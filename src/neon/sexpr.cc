#include "neon/sexpr.h"

#include <map>
#include <sstream>

#include "hir/printer.h"
#include "hir/sexpr.h"
#include "support/error.h"
#include "support/parse.h"

namespace rake::neon {

namespace {

/**
 * Mnemonic to opcode, from the opcode table (mnemonics are unique).
 * Holes are search-time placeholders and never parse.
 */
const std::map<std::string, NOp> &
opcode_table()
{
    static const std::map<std::string, NOp> table = [] {
        std::map<std::string, NOp> t;
        for (int i = 0; i < kNumNOps; ++i) {
            const NOp op = static_cast<NOp>(i);
            if (op == NOp::Hole)
                continue;
            const bool inserted =
                t.emplace(to_string(op), op).second;
            RAKE_CHECK(inserted,
                       "duplicate Neon mnemonic: " << to_string(op));
        }
        return t;
    }();
    return table;
}

void
print(std::ostringstream &os, const NInstrPtr &n)
{
    // Holes are search-time placeholders; a persisted DAG is complete.
    RAKE_CHECK(n->op() != NOp::Hole, "serializing an unsolved sketch hole");
    os << "(" << to_string(n->op()) << " " << to_string(n->type());
    switch (n->op()) {
      case NOp::Ld1:
        os << " " << n->load_ref().buffer << " " << n->load_ref().dx
           << " " << n->load_ref().dy;
        break;
      case NOp::Dup:
        os << " " << hir::to_sexpr(n->dup_value());
        break;
      default:
        for (const auto &a : n->args()) {
            os << " ";
            print(os, a);
        }
        for (int64_t imm : n->imms())
            os << " #" << imm;
        break;
    }
    os << ")";
}

NInstrPtr
from_sexpr(const hir::SExpr &s)
{
    RAKE_USER_CHECK(!s.is_atom && s.items.size() >= 2 &&
                        s.items[0].is_atom && s.items[1].is_atom,
                    "expected (opcode type ...) form");
    auto it = opcode_table().find(s.items[0].atom);
    RAKE_USER_CHECK(it != opcode_table().end(),
                    "unknown Neon opcode: " << s.items[0].atom);
    const NOp op = it->second;
    const VecType type = vec_type_from_string(s.items[1].atom);

    if (op == NOp::Ld1) {
        RAKE_USER_CHECK(s.items.size() == 5, "vld1 expects 3 fields");
        hir::LoadRef ref{
            parse_int_as<int>(s.items[2].atom, "buffer id"),
            parse_int_as<int>(s.items[3].atom, "load dx"),
            parse_int_as<int>(s.items[4].atom, "load dy")};
        return NInstr::make_load(ref, type);
    }
    if (op == NOp::Dup) {
        RAKE_USER_CHECK(s.items.size() == 3, "vdup expects a payload");
        return NInstr::make_dup(hir::expr_from_sexpr(s.items[2]),
                                type.lanes);
    }

    std::vector<NInstrPtr> args;
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
            args.push_back(from_sexpr(item));
        }
    }
    // The declared element type doubles as make()'s out_elem so ops
    // whose result signedness is a free parameter (vqmovn/vqmovun,
    // vreinterpret, ...) reconstruct exactly; the final check pins
    // every other op's inferred type to the declared one.
    NInstrPtr n = NInstr::make(op, std::move(args), std::move(imms),
                               type.elem);
    RAKE_USER_CHECK(n->type() == type,
                    "declared type " << to_string(type)
                                     << " != inferred "
                                     << to_string(n->type()));
    return n;
}

} // namespace

std::string
to_sexpr(const NInstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    print(os, n);
    return os.str();
}

NInstrPtr
parse_instr(const std::string &text)
{
    return from_sexpr(hir::parse_sexpr(text));
}

} // namespace rake::neon
