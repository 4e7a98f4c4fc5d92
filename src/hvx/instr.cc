#include "hvx/instr.h"

namespace rake::hvx {

using isa::require;

VecType
Traits::result_type(Opcode op, const std::vector<InstrPtr> &args,
                    const std::vector<int64_t> &imms, ScalarType out_elem)
{
    const VecType a0 = args[0]->type();
    const int L = a0.lanes;
    VecType result = a0;

    auto same_binary = [&]() {
        require(args[1]->type() == a0, op, "operand types must match");
    };

    switch (op) {
      case Opcode::VBitcast: {
        const int in_bytes = a0.total_bytes();
        const int out_width = bytes(out_elem);
        require(in_bytes % out_width == 0, op,
                "byte size not divisible by target element width");
        result = VecType(out_elem, in_bytes / out_width);
        break;
      }
      case Opcode::VCombine:
        same_binary();
        result = a0.with_lanes(2 * L);
        break;
      case Opcode::VHi:
      case Opcode::VLo:
        require(L % 2 == 0, op, "pair must have even lane count");
        result = a0.with_lanes(L / 2);
        break;
      case Opcode::VAlign:
        same_binary();
        require(imms[0] >= 0 && imms[0] <= L, op, "align amount range");
        break;
      case Opcode::VRor:
        require(imms[0] >= 0 && imms[0] < L, op, "rotate amount range");
        break;
      case Opcode::VShuffVdd:
      case Opcode::VDealVdd:
        require(L % 2 == 0, op, "pair must have even lane count");
        break;
      case Opcode::VMux:
        require(args[1]->type() == args[2]->type(), op,
                "value operand types must match");
        require(args[0]->type().lanes == args[1]->type().lanes, op,
                "predicate lane count mismatch");
        result = args[1]->type();
        break;
      case Opcode::VPackE:
      case Opcode::VPackO:
        same_binary();
        require(bits(a0.elem) > 8, op, "cannot narrow 8-bit input");
        result = VecType(narrow(a0.elem), 2 * L);
        break;
      case Opcode::VSat:
      case Opcode::VPackSat:
        same_binary();
        require(bits(out_elem) * 2 == bits(a0.elem), op,
                "saturating pack must halve the element width");
        result = VecType(out_elem, 2 * L);
        break;
      case Opcode::VZxt:
        require(!is_signed(a0.elem), op, "vzxt input must be unsigned");
        require(bits(a0.elem) < 64, op, "cannot widen 64-bit input");
        result = a0.with_elem(widen(a0.elem));
        break;
      case Opcode::VSxt:
        require(is_signed(a0.elem), op, "vsxt input must be signed");
        require(bits(a0.elem) < 64, op, "cannot widen 64-bit input");
        result = a0.with_elem(widen(a0.elem));
        break;
      case Opcode::VAdd:
      case Opcode::VAddSat:
      case Opcode::VSub:
      case Opcode::VSubSat:
      case Opcode::VAvg:
      case Opcode::VAvgRnd:
      case Opcode::VNavg:
      case Opcode::VAbsDiff:
      case Opcode::VMax:
      case Opcode::VMin:
      case Opcode::VAnd:
      case Opcode::VOr:
      case Opcode::VXor:
        same_binary();
        break;
      case Opcode::VNot:
        break;
      case Opcode::VCmpGt:
      case Opcode::VCmpEq:
        same_binary();
        result = a0.with_elem(ScalarType::Int8);
        break;
      case Opcode::VAsl:
      case Opcode::VAsr:
      case Opcode::VAsrRnd:
      case Opcode::VLsr:
        require(imms[0] >= 0 && imms[0] < bits(a0.elem), op,
                "shift amount range");
        break;
      case Opcode::VAsrNarrow:
      case Opcode::VAsrNarrowSat:
      case Opcode::VAsrNarrowRndSat:
        same_binary();
        require(bits(a0.elem) > 8, op, "cannot narrow 8-bit input");
        require(imms[0] >= 0 && imms[0] < bits(a0.elem), op,
                "shift amount range");
        if (op == Opcode::VAsrNarrow) {
            result = VecType(narrow(a0.elem), 2 * L);
        } else {
            require(bits(out_elem) * 2 == bits(a0.elem), op,
                    "narrowing shift must halve the element width");
            result = VecType(out_elem, 2 * L);
        }
        break;
      case Opcode::VRoundSat:
        same_binary();
        require(bits(out_elem) * 2 == bits(a0.elem), op,
                "vround must halve the element width");
        result = VecType(out_elem, 2 * L);
        break;
      case Opcode::VMpy: {
        same_binary();
        require(bits(a0.elem) < 64, op, "cannot widen 64-bit input");
        const bool sgn =
            is_signed(a0.elem) || is_signed(args[1]->type().elem);
        ScalarType w = widen(a0.elem);
        result = a0.with_elem(sgn ? to_signed(w) : to_unsigned(w));
        break;
      }
      case Opcode::VMpyAcc: {
        require(args[1]->type() == args[2]->type(), op,
                "multiplicand types must match");
        require(args[1]->type().lanes == args[0]->type().lanes, op,
                "accumulator lane count mismatch");
        require(bits(args[0]->type().elem) ==
                    2 * bits(args[1]->type().elem),
                op, "accumulator must be the widened type");
        result = args[0]->type();
        break;
      }
      case Opcode::VMpyi:
        same_binary();
        require(bits(a0.elem) >= 16, op, "vmpyi needs h or w elements");
        break;
      case Opcode::VMpyiAcc:
        require(args[1]->type() == args[2]->type(), op,
                "multiplicand types must match");
        require(args[0]->type() == args[1]->type(), op,
                "accumulator type must match");
        require(bits(a0.elem) >= 16, op, "vmpyi needs h or w elements");
        break;
      case Opcode::VMpa:
      case Opcode::VDmpy:
      case Opcode::VTmpy:
        same_binary();
        require(bits(a0.elem) < 64, op, "cannot widen 64-bit input");
        result = a0.with_elem(to_signed(widen(a0.elem)));
        break;
      case Opcode::VMpaAcc:
      case Opcode::VDmpyAcc:
      case Opcode::VTmpyAcc:
        require(args[1]->type() == args[2]->type(), op,
                "operand types must match");
        require(args[0]->type() ==
                    args[1]->type().with_elem(
                        to_signed(widen(args[1]->type().elem))),
                op, "accumulator must be the widened type");
        result = args[0]->type();
        break;
      case Opcode::VRmpy:
        same_binary();
        require(bits(a0.elem) == 8, op, "vrmpy operates on bytes");
        result = a0.with_elem(ScalarType::Int32);
        break;
      case Opcode::VRmpyAcc:
        require(args[1]->type() == args[2]->type(), op,
                "operand types must match");
        require(bits(args[1]->type().elem) == 8, op,
                "vrmpy operates on bytes");
        require(args[0]->type() ==
                    args[1]->type().with_elem(ScalarType::Int32),
                op, "accumulator must be i32");
        result = args[0]->type();
        break;
      case Opcode::VDotRmpy:
        same_binary();
        require(bits(a0.elem) == 8, op, "vrmpy.dot operates on bytes");
        require(L % 4 == 0, op, "lane count must be divisible by 4");
        result = VecType(is_signed(a0.elem) ? ScalarType::Int32
                                            : ScalarType::UInt32,
                         L / 4);
        break;
      case Opcode::VDotRmpyAcc: {
        require(args[1]->type() == args[2]->type(), op,
                "operand types must match");
        const VecType m = args[1]->type();
        require(bits(m.elem) == 8, op, "vrmpy.dot operates on bytes");
        require(m.lanes % 4 == 0, op, "lane count must be divisible by 4");
        require(args[0]->type().lanes == m.lanes / 4 &&
                    bits(args[0]->type().elem) == 32,
                op, "accumulator must be a 32-bit quarter-width vector");
        result = args[0]->type();
        break;
      }
      case Opcode::VMpyIE:
        require(bits(a0.elem) == 32, op, "first operand must be words");
        require(args[1]->type().elem == ScalarType::UInt16, op,
                "vmpyie multiplies *unsigned* even halfwords");
        require(args[1]->type().lanes == 2 * L, op,
                "halfword operand must have twice the lanes");
        result = a0.with_elem(ScalarType::Int32);
        break;
      case Opcode::VMpyIO:
        require(bits(a0.elem) == 32, op, "first operand must be words");
        require(bits(args[1]->type().elem) == 16, op,
                "second operand must be halfwords");
        require(args[1]->type().lanes == 2 * L, op,
                "halfword operand must have twice the lanes");
        result = a0.with_elem(ScalarType::Int32);
        break;
      case Opcode::VRead:
      case Opcode::VSplat:
      case Opcode::Hole:
        RAKE_UNREACHABLE("leaves have dedicated factories");
    }
    return result;
}

} // namespace rake::hvx
