/**
 * @file
 * HIR: the Halide-like vector-expression IR that Rake takes as input.
 *
 * This models Halide's IR *after* lowering and vectorization, i.e.
 * exactly the form Rake intercepts in the paper (Fig. 3): a pure
 * expression DAG over strided vector loads, broadcast scalars and
 * constants, arithmetic, min/max/absd, shifts, comparisons, and
 * selects. Expressions are immutable and hash-consed-friendly
 * (structural hash + deep equality are provided).
 */
#ifndef RAKE_HIR_EXPR_H
#define RAKE_HIR_EXPR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/type.h"

namespace rake::hir {

/** HIR operator kinds. */
enum class Op : uint8_t {
    // Leaves
    Load,      ///< vector load from a buffer at (x + dx + lane, y + dy)
    Const,     ///< integer constant (scalar or broadcast)
    Var,       ///< named scalar variable (scalar or broadcast)
    // Conversions
    Cast,      ///< wrapping (two's-complement) element cast
    Broadcast, ///< replicate a scalar expression across lanes
    // Arithmetic (lane-wise)
    Add,
    Sub,
    Mul,
    Min,
    Max,
    AbsDiff,   ///< |a - b|, Halide's absd
    ShiftLeft,
    ShiftRight, ///< arithmetic if signed element, logical if unsigned
    And,
    Or,
    Xor,
    Not,
    // Comparisons (result: same lanes, Int8 with 0 / 1 lanes)
    Lt,
    Le,
    Eq,
    // Ternary
    Select,    ///< cond ? a : b, lane-wise
};

/** Number of children each op expects (-1 for Load/Const/Var leaves). */
int arity(Op op);

/** Mnemonic used by the printer and the s-expression format. */
std::string to_string(Op op);

/** Identifies one strided vector load: buffer id + (dx, dy) offset. */
struct LoadRef {
    int buffer = 0;
    int dx = 0;
    int dy = 0;

    bool
    operator==(const LoadRef &o) const
    {
        return buffer == o.buffer && dx == o.dx && dy == o.dy;
    }
    bool operator<(const LoadRef &o) const
    {
        if (buffer != o.buffer)
            return buffer < o.buffer;
        if (dy != o.dy)
            return dy < o.dy;
        return dx < o.dx;
    }

    /** Are both offsets within kMaxOffset of zero? */
    bool
    offsets_in_range() const
    {
        return dx >= -kMaxOffset && dx <= kMaxOffset && dy >= -kMaxOffset &&
               dy <= kMaxOffset;
    }
};

std::string to_string(const LoadRef &l);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * An immutable HIR expression node.
 *
 * Construct via the static factories, which type-check their
 * arguments (throwing UserError on ill-typed input so user-authored
 * expressions fail fast).
 */
class Expr
{
  public:
    /** Vector load of `type` from buffer `ref`. */
    static ExprPtr make_load(LoadRef ref, VecType type);

    /** Constant `v` of the given (possibly vector) type. */
    static ExprPtr make_const(int64_t v, VecType type);

    /** Named scalar variable of the given type (lanes must be 1). */
    static ExprPtr make_var(const std::string &name, VecType type);

    /** Wrapping cast of `a` to element type `elem` (same lanes). */
    static ExprPtr make_cast(ScalarType elem, ExprPtr a);

    /** Broadcast scalar expression `a` to `lanes` lanes. */
    static ExprPtr make_broadcast(ExprPtr a, int lanes);

    /** Generic n-ary constructor for arithmetic/compare/select ops. */
    static ExprPtr make(Op op, std::vector<ExprPtr> args);

    Op op() const { return op_; }
    const VecType &type() const { return type_; }
    const std::vector<ExprPtr> &args() const { return args_; }
    const ExprPtr &arg(int i) const { return args_[i]; }
    int num_args() const { return static_cast<int>(args_.size()); }

    /** Constant payload; valid only when op() == Op::Const. */
    int64_t const_value() const { return imm_; }

    /** Load payload; valid only when op() == Op::Load. */
    const LoadRef &load_ref() const { return load_; }

    /** Variable name; valid only when op() == Op::Var. */
    const std::string &var_name() const { return var_; }

    /** Structural hash (cached at construction). */
    size_t hash() const { return hash_; }

    /** Deep structural equality. */
    bool equals(const Expr &other) const;

    /** Total node count of the expression tree. */
    int node_count() const;

    /** Maximum depth of the expression tree. */
    int depth() const;

  private:
    Expr(Op op, VecType type, std::vector<ExprPtr> args, int64_t imm,
         LoadRef load, std::string var);

    static size_t compute_hash(Op op, const VecType &type,
                               const std::vector<ExprPtr> &args,
                               int64_t imm, const LoadRef &load,
                               const std::string &var);

    Op op_;
    VecType type_;
    std::vector<ExprPtr> args_;
    int64_t imm_ = 0;
    LoadRef load_;
    std::string var_;
    size_t hash_ = 0;
};

/** Deep equality through pointers (also true for identical pointers). */
bool equal(const ExprPtr &a, const ExprPtr &b);

/** True iff e is a Const with the given value. */
bool is_const(const ExprPtr &e, int64_t v);

/** True iff e is any Const; if so, *v receives its value. */
bool as_const(const ExprPtr &e, int64_t *v);

} // namespace rake::hir

#endif // RAKE_HIR_EXPR_H
