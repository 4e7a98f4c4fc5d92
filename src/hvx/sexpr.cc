#include "hvx/sexpr.h"

#include <map>
#include <sstream>

#include "hir/printer.h"
#include "hir/sexpr.h"
#include "support/error.h"
#include "support/parse.h"

namespace rake::hvx {

namespace {

/** Opcode-name table (base mnemonics are unique per Opcode). */
const std::map<std::string, Opcode> &
opcode_table()
{
    static const std::map<std::string, Opcode> table = [] {
        std::map<std::string, Opcode> t;
        for (int i = 0; i < kNumOpcodes; ++i) {
            const Opcode op = static_cast<Opcode>(i);
            t.emplace(to_string(op), op);
        }
        return t;
    }();
    return table;
}

void
print(std::ostringstream &os, const InstrPtr &n)
{
    os << "(" << to_string(n->op()) << " " << to_string(n->type());
    switch (n->op()) {
      case Opcode::VRead:
        os << " " << n->load_ref().buffer << " " << n->load_ref().dx
           << " " << n->load_ref().dy;
        break;
      case Opcode::VSplat:
        os << " " << hir::to_sexpr(n->splat_value());
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

InstrPtr
from_sexpr(const hir::SExpr &s)
{
    RAKE_USER_CHECK(!s.is_atom && s.items.size() >= 2 &&
                        s.items[0].is_atom && s.items[1].is_atom,
                    "expected (opcode type ...) form");
    auto it = opcode_table().find(s.items[0].atom);
    RAKE_USER_CHECK(it != opcode_table().end(),
                    "unknown HVX opcode: " << s.items[0].atom);
    const Opcode op = it->second;
    const VecType type = vec_type_from_string(s.items[1].atom);

    if (op == Opcode::VRead) {
        RAKE_USER_CHECK(s.items.size() == 5, "vmem expects 3 fields");
        hir::LoadRef ref{
            parse_int_as<int>(s.items[2].atom, "buffer id"),
            parse_int_as<int>(s.items[3].atom, "load dx"),
            parse_int_as<int>(s.items[4].atom, "load dy")};
        return Instr::make_read(ref, type);
    }
    if (op == Opcode::VSplat) {
        RAKE_USER_CHECK(s.items.size() == 3, "vsplat expects a payload");
        return Instr::make_splat(hir::expr_from_sexpr(s.items[2]),
                                 type.lanes);
    }

    std::vector<InstrPtr> args;
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
    InstrPtr n = Instr::make(op, std::move(args), std::move(imms),
                             type.elem);
    RAKE_USER_CHECK(n->type() == type,
                    "declared type " << to_string(type)
                                     << " != inferred "
                                     << to_string(n->type()));
    return n;
}

} // namespace

std::string
to_sexpr(const InstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    print(os, n);
    return os.str();
}

InstrPtr
parse_instr(const std::string &text)
{
    return from_sexpr(hir::parse_sexpr(text));
}

} // namespace rake::hvx
