#include "neon/instr.h"

#include <iterator>

#include "support/error.h"

namespace rake::neon {

namespace {

constexpr NOpInfo kTable[] = {
    // op             mnemonic        lat  free   args, imms
    {NOp::Ld1,        "vld1",         4,   false, 0, 0},
    {NOp::Dup,        "vdup",         0,   true,  0, 0},
    {NOp::Bitcast,    "vreinterpret", 0,   true,  1, 0},
    {NOp::Movl,       "vmovl",        3,   false, 1, 0},
    {NOp::Add,        "vadd",         2,   false, 2, 0},
    {NOp::Qadd,       "vqadd",        2,   false, 2, 0},
    {NOp::Sub,        "vsub",         2,   false, 2, 0},
    {NOp::Mul,        "vmul",         4,   false, 2, 0},
    {NOp::Mla,        "vmla",         4,   false, 3, 0},
    {NOp::Mull,       "vmull",        4,   false, 2, 0},
    {NOp::Mlal,       "vmlal",        4,   false, 3, 0},
    {NOp::Abd,        "vabd",         2,   false, 2, 0},
    {NOp::Min,        "vmin",         2,   false, 2, 0},
    {NOp::Max,        "vmax",         2,   false, 2, 0},
    {NOp::Hadd,       "vhadd",        2,   false, 2, 0},
    {NOp::Rhadd,      "vrhadd",       2,   false, 2, 0},
    {NOp::Shl,        "vshl",         3,   false, 1, 1},
    {NOp::Sshr,       "vshr.s",       3,   false, 1, 1},
    {NOp::Ushr,       "vshr.u",       3,   false, 1, 1},
    {NOp::Rshr,       "vrshr",        3,   false, 1, 1},
    {NOp::Xtn,        "vmovn",        3,   false, 1, 0},
    {NOp::Qxtn,       "vqmovn",       3,   false, 1, 0},
    {NOp::Shrn,       "vshrn",        3,   false, 1, 1},
    {NOp::Qrshrn,     "vqrshrn",      3,   false, 1, 1},
    {NOp::Cmgt,       "vcgt",         2,   false, 2, 0},
    {NOp::Cmeq,       "vceq",         2,   false, 2, 0},
    {NOp::Bsl,        "vbsl",         2,   false, 3, 0},
    {NOp::And,        "vand",         2,   false, 2, 0},
    {NOp::Orr,        "vorr",         2,   false, 2, 0},
    {NOp::Eor,        "veor",         2,   false, 2, 0},
    {NOp::Not,        "vmvn",         2,   false, 1, 0},
    {NOp::Hole,       "??",           0,   true,  0, 1},
    {NOp::Lo,         "vget_low",     0,   true,  1, 0},
    {NOp::Hi,         "vget_high",    0,   true,  1, 0},
    {NOp::Combine,    "vcombine",     0,   true,  2, 0},
    {NOp::Ext,        "vext",         3,   false, 2, 1},
    {NOp::Zip,        "vzip",         3,   false, 1, 0},
    {NOp::Uzp,        "vuzp",         3,   false, 1, 0},
    {NOp::Rev,        "vrev",         3,   false, 1, 0},
    {NOp::Tbl,        "vtbl",         3,   false, 1, isa::kAnyImms},
};

static_assert(std::size(kTable) == kNumNOps, "one kTable entry per NOp");

constexpr bool
table_in_opcode_order()
{
    for (int i = 0; i < kNumNOps; ++i) {
        if (static_cast<int>(kTable[i].op) != i)
            return false;
    }
    return true;
}

static_assert(table_in_opcode_order(), "kTable rows follow NOp order");

} // namespace

const NOpInfo &
info(NOp op)
{
    const int i = static_cast<int>(op);
    RAKE_CHECK(i >= 0 && i < kNumNOps, "bad NOp " << i);
    return kTable[i];
}

std::string
to_string(NOp op)
{
    return info(op).mnemonic;
}

VecType
Traits::result_type(NOp op, const std::vector<NInstrPtr> &args,
                    const std::vector<int64_t> &imms, ScalarType out_elem)
{
    using isa::require;
    const VecType a0 = args[0]->type();
    VecType result = a0;

    // Data movement remaps lanes; it returns from the switch. Every
    // other op is lane-wise and breaks out to the lane-count check.
    switch (op) {
      case NOp::Lo:
      case NOp::Hi:
        require(a0.lanes % 2 == 0, op, "needs an even-lane operand");
        return a0.with_lanes(a0.lanes / 2);
      case NOp::Combine:
        require(args[1]->type() == a0, op, "operand types must match");
        return a0.with_lanes(a0.lanes * 2);
      case NOp::Ext:
        require(args[1]->type() == a0, op, "operand types must match");
        require(imms[0] > 0 && imms[0] < a0.lanes, op,
                "extract amount range");
        return a0;
      case NOp::Zip:
      case NOp::Uzp:
        require(a0.lanes % 2 == 0, op, "needs an even-lane operand");
        return a0;
      case NOp::Rev:
        return a0;
      case NOp::Tbl:
        return a0.with_lanes(static_cast<int>(imms.size()));
      case NOp::Bitcast:
        require(bits(out_elem) == bits(a0.elem), op,
                "vreinterpret here only swaps signedness");
        result = a0.with_elem(out_elem);
        break;
      case NOp::Movl:
        require(bits(a0.elem) < 64, op, "cannot widen 64-bit input");
        result = a0.with_elem(widen(a0.elem));
        break;
      case NOp::Mull:
        require(args[1]->type().elem == a0.elem, op,
                "operand types must match");
        result = a0.with_elem(widen(a0.elem));
        break;
      case NOp::Mlal:
        require(args[1]->type().elem == args[2]->type().elem &&
                    bits(a0.elem) == 2 * bits(args[1]->type().elem),
                op, "accumulator must be the widened type");
        break;
      case NOp::Xtn:
      case NOp::Shrn:
        require(bits(a0.elem) > 8, op, "cannot narrow 8-bit input");
        result = a0.with_elem(narrow(a0.elem));
        break;
      case NOp::Qxtn:
      case NOp::Qrshrn:
        require(bits(out_elem) * 2 == bits(a0.elem), op,
                "saturating narrow must halve the element width");
        result = a0.with_elem(out_elem);
        break;
      case NOp::Cmgt:
      case NOp::Cmeq:
        result = a0.with_elem(ScalarType::Int8);
        break;
      case NOp::Bsl:
        require(args[1]->type() == args[2]->type(), op,
                "value operand types must match");
        result = args[1]->type();
        break;
      case NOp::Mla:
      case NOp::Shl:
      case NOp::Sshr:
      case NOp::Ushr:
      case NOp::Rshr:
      case NOp::Not:
        break;
      case NOp::Add:
      case NOp::Qadd:
      case NOp::Sub:
      case NOp::Mul:
      case NOp::Abd:
      case NOp::Min:
      case NOp::Max:
      case NOp::Hadd:
      case NOp::Rhadd:
      case NOp::And:
      case NOp::Orr:
      case NOp::Eor:
        require(args[1]->type() == a0, op, "operand types must match");
        break;
      case NOp::Ld1:
      case NOp::Dup:
      case NOp::Hole:
        RAKE_UNREACHABLE("leaves have dedicated factories");
    }
    // Lane i of a lane-wise op reads lane i of every operand.
    for (const auto &a : args)
        require(a->type().lanes == result.lanes, op,
                "operand lane counts must match the result's");
    return result;
}

} // namespace rake::neon
