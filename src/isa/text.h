/**
 * @file
 * Text forms of every ISA's instruction DAGs (isa/node.h).
 *
 * The s-expression codec is the round-trippable interchange the paper
 * gets from its Racket/Halide bridge (§6): the persistent cache, the
 * rule tables and the compile server's replies carry selections as
 * `(op type args... #imms...)`, with a load written
 * `(op type buffer dx dy)` and a broadcast `(op type <hir sexpr>)`.
 * Holes are search-time placeholders and have no text.
 *
 * The listing prints one instruction per line with virtual registers,
 * `v3:i16x64 = vadd.h(v1, v2)`, naming each node by its ISA's
 * `concrete_name`. It numbers nodes by structure: separately built but
 * equal nodes share one line, as they share one count in the cost
 * models and instruction_count().
 */
#ifndef RAKE_ISA_TEXT_H
#define RAKE_ISA_TEXT_H

#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "hir/printer.h"
#include "hir/sexpr.h"
#include "isa/node.h"
#include "support/error.h"
#include "support/parse.h"
#include "support/structural.h"

namespace rake::isa {

namespace detail {

template <typename Traits>
void
print_sexpr(std::ostringstream &os, const Node<Traits> &n)
{
    RAKE_CHECK(n.op() != Traits::kHole,
               "serializing an unsolved sketch hole");
    os << "(" << to_string(n.op()) << " " << to_string(n.type());
    if (n.op() == Traits::kRead) {
        os << " " << n.load_ref().buffer << " " << n.load_ref().dx << " "
           << n.load_ref().dy;
    } else if (n.op() == Traits::kSplat) {
        os << " " << hir::to_sexpr(n.splat_value());
    } else {
        for (const auto &a : n.args()) {
            os << " ";
            print_sexpr(os, *a);
        }
        for (int64_t imm : n.imms())
            os << " #" << imm;
    }
    os << ")";
}

/** Mnemonic to opcode, from the opcode table (mnemonics are unique). */
template <typename Traits>
const std::map<std::string, typename Traits::Op> &
opcode_table()
{
    using Op = typename Traits::Op;
    static const std::map<std::string, Op> table = [] {
        std::map<std::string, Op> t;
        for (int i = 0; i < Traits::kNumOps; ++i) {
            const Op op = static_cast<Op>(i);
            if (op == Traits::kHole)
                continue;
            const bool inserted = t.emplace(to_string(op), op).second;
            RAKE_CHECK(inserted, "duplicate " << Traits::kName
                                              << " mnemonic: "
                                              << to_string(op));
        }
        return t;
    }();
    return table;
}

template <typename Traits>
std::shared_ptr<const Node<Traits>>
from_sexpr(const hir::SExpr &s)
{
    using N = Node<Traits>;
    RAKE_USER_CHECK(!s.is_atom && s.items.size() >= 2 &&
                        s.items[0].is_atom && s.items[1].is_atom,
                    "expected (opcode type ...) form");
    const auto &table = opcode_table<Traits>();
    auto it = table.find(s.items[0].atom);
    RAKE_USER_CHECK(it != table.end(), "unknown " << Traits::kName
                                                  << " opcode: "
                                                  << s.items[0].atom);
    const auto op = it->second;
    const VecType type = vec_type_from_string(s.items[1].atom);

    if (op == Traits::kRead) {
        RAKE_USER_CHECK(s.items.size() == 5,
                        to_string(op) << " expects 3 fields");
        hir::LoadRef ref{parse_int_as<int>(s.items[2].atom, "buffer id"),
                         parse_int_as<int>(s.items[3].atom, "load dx"),
                         parse_int_as<int>(s.items[4].atom, "load dy")};
        return N::make_read(ref, type);
    }
    if (op == Traits::kSplat) {
        RAKE_USER_CHECK(s.items.size() == 3,
                        to_string(op) << " expects a payload");
        return N::make_splat(hir::expr_from_sexpr(s.items[2]), type.lanes);
    }

    std::vector<std::shared_ptr<const N>> args;
    std::vector<int64_t> imms;
    for (size_t i = 2; i < s.items.size(); ++i) {
        const hir::SExpr &item = s.items[i];
        if (item.is_atom) {
            RAKE_USER_CHECK(!item.atom.empty() && item.atom[0] == '#',
                            "expected #imm, got " << item.atom);
            imms.push_back(
                parse_int_as<int64_t>(item.atom.substr(1), "immediate"));
        } else {
            RAKE_USER_CHECK(imms.empty(),
                            "operands must precede immediates");
            args.push_back(from_sexpr<Traits>(item));
        }
    }
    // The declared element type doubles as make()'s out_elem, so ops
    // whose result element type is a free parameter (bitcasts,
    // saturating narrows) reconstruct exactly; the final check pins
    // every other op's inferred type to the declared one.
    auto n = N::make(op, std::move(args), std::move(imms), type.elem);
    RAKE_USER_CHECK(n->type() == type, "declared type "
                                           << to_string(type)
                                           << " != inferred "
                                           << to_string(n->type()));
    return n;
}

/**
 * Register numbers by node structure: separately built but equal
 * nodes share one line, as they share one count in the cost models.
 */
template <typename Traits>
using Registers = std::unordered_map<const Node<Traits> *, int,
                                     StructuralHash, StructuralEqual>;

template <typename Traits>
int
list(const Node<Traits> &n, Registers<Traits> &reg, std::ostringstream &os,
     int &next)
{
    auto it = reg.find(&n);
    if (it != reg.end())
        return it->second;
    std::vector<int> arg_regs;
    for (const auto &a : n.args())
        arg_regs.push_back(list(*a, reg, os, next));
    const int r = next++;
    reg.emplace(&n, r);
    os << "  " << Traits::kRegister << r << ":" << to_string(n.type())
       << " = ";
    if (n.op() == Traits::kRead) {
        os << to_string(n.op()) << "(" << hir::to_string(n.load_ref());
    } else if (n.op() == Traits::kSplat) {
        os << to_string(n.op()) << "(" << hir::to_string(n.splat_value());
    } else {
        os << concrete_name(n) << "(";
        const char *sep = "";
        for (int ar : arg_regs) {
            os << sep << Traits::kRegister << ar;
            sep = ", ";
        }
        for (int64_t imm : n.imms()) {
            os << sep << "#" << imm;
            sep = ", ";
        }
    }
    os << ")\n";
    return r;
}

} // namespace detail

/** Render an instruction DAG as one s-expression. */
template <typename Traits>
std::string
to_sexpr(const std::shared_ptr<const Node<Traits>> &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    detail::print_sexpr(os, *n);
    return os.str();
}

/** Parse an instruction back; throws UserError on malformed input. */
template <typename Traits>
std::shared_ptr<const Node<Traits>>
parse_instr(const std::string &text)
{
    return detail::from_sexpr<Traits>(hir::parse_sexpr(text));
}

/** Flat listing: one instruction per line, structurally equal nodes once. */
template <typename Traits>
std::string
to_listing(const std::shared_ptr<const Node<Traits>> &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    detail::Registers<Traits> reg;
    int next = 0;
    detail::list(*n, reg, os, next);
    return os.str();
}

} // namespace rake::isa

#endif // RAKE_ISA_TEXT_H
