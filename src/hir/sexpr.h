/**
 * @file
 * S-expression parser for HIR.
 *
 * The paper's implementation exchanges expressions between Halide
 * (C++) and Rake (Racket) as s-expressions; this module provides the
 * same interchange format. `parse_expr(to_sexpr(e))` is structurally
 * equal to `e`.
 */
#ifndef RAKE_HIR_SEXPR_H
#define RAKE_HIR_SEXPR_H

#include <memory>
#include <string>
#include <vector>

#include "hir/expr.h"

namespace rake::hir {

/** A parsed s-expression tree: either an atom or a list. */
struct SExpr {
    bool is_atom = false;
    std::string atom;
    std::vector<SExpr> items;
};

/**
 * The deepest list nesting parse_sexpr accepts. The suite's and the
 * fuzzer's expressions and selections nest a few dozen levels at most;
 * the reader recurses once per level, so deeper text (a served
 * request can carry a megabyte of parentheses) is refused before it
 * can exhaust the stack.
 */
constexpr int kMaxSexprDepth = 1000;

/**
 * Parse one s-expression from text; throws UserError on bad syntax or
 * nesting deeper than kMaxSexprDepth.
 */
SExpr parse_sexpr(const std::string &text);

/** Parse an HIR expression from its s-expression rendering. */
ExprPtr parse_expr(const std::string &text);

/** Build an HIR expression from an already-parsed s-expression tree. */
ExprPtr expr_from_sexpr(const SExpr &s);

} // namespace rake::hir

#endif // RAKE_HIR_SEXPR_H
