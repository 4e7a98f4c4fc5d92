#include "hvx/printer.h"

#include <sstream>

#include "hir/printer.h"
#include "support/error.h"

namespace rake::hvx {

namespace {

/** HVX assembly type-suffix letters: b/h/w (+u prefix for unsigned). */
std::string
suffix(ScalarType t)
{
    std::string s = is_signed(t) ? "" : "u";
    switch (bits(t)) {
      case 8:
        return s + "b";
      case 16:
        return s + "h";
      case 32:
        return s + "w";
      default:
        return s + "d";
    }
}

void
print_tree(std::ostringstream &os, const InstrPtr &n)
{
    switch (n->op()) {
      case Opcode::VRead:
        os << hir::to_string(n->load_ref());
        return;
      case Opcode::VSplat:
        os << "vsplat(" << hir::to_string(n->splat_value()) << ")";
        return;
      default:
        break;
    }
    os << concrete_name(*n) << "(";
    bool first = true;
    for (const auto &a : n->args()) {
        if (!first)
            os << ", ";
        first = false;
        print_tree(os, a);
    }
    for (int64_t imm : n->imms()) {
        if (!first)
            os << ", ";
        first = false;
        os << imm;
    }
    os << ")";
}

} // namespace

std::string
concrete_name(const Instr &n)
{
    const OpcodeInfo &oi = info(n.op());
    std::string name = oi.mnemonic;
    // Type suffix comes from the *input* element type for narrowing
    // ops and from the result type otherwise.
    ScalarType st = n.type().elem;
    if (n.num_args() > 0) {
        switch (n.op()) {
          case Opcode::VPackE:
          case Opcode::VPackO:
          case Opcode::VSat:
          case Opcode::VPackSat:
          case Opcode::VAsrNarrow:
          case Opcode::VAsrNarrowSat:
          case Opcode::VAsrNarrowRndSat:
          case Opcode::VRoundSat:
            // vsat.ub-style: suffix names the *output* type.
            st = n.type().elem;
            break;
          default:
            st = n.arg(0)->type().elem;
            break;
        }
    }
    return name + "." + suffix(st);
}

std::string
to_string(const InstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    print_tree(os, n);
    return os.str();
}

} // namespace rake::hvx
