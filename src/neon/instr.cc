#include "neon/instr.h"

#include <functional>
#include <iterator>
#include <map>
#include <sstream>

#include "hir/printer.h"
#include "support/error.h"
#include "support/structural.h"

namespace rake::neon {

namespace {

constexpr NOpInfo kTable[] = {
    // op             mnemonic        lat  free
    {NOp::Ld1,        "vld1",         4,   false},
    {NOp::Dup,        "vdup",         0,   true},
    {NOp::Bitcast,    "vreinterpret", 0,   true},
    {NOp::Movl,       "vmovl",        3,   false},
    {NOp::Add,        "vadd",         2,   false},
    {NOp::Qadd,       "vqadd",        2,   false},
    {NOp::Sub,        "vsub",         2,   false},
    {NOp::Mul,        "vmul",         4,   false},
    {NOp::Mla,        "vmla",         4,   false},
    {NOp::Mull,       "vmull",        4,   false},
    {NOp::Mlal,       "vmlal",        4,   false},
    {NOp::Abd,        "vabd",         2,   false},
    {NOp::Min,        "vmin",         2,   false},
    {NOp::Max,        "vmax",         2,   false},
    {NOp::Hadd,       "vhadd",        2,   false},
    {NOp::Rhadd,      "vrhadd",       2,   false},
    {NOp::Shl,        "vshl",         3,   false},
    {NOp::Sshr,       "vshr.s",       3,   false},
    {NOp::Ushr,       "vshr.u",       3,   false},
    {NOp::Rshr,       "vrshr",        3,   false},
    {NOp::Xtn,        "vmovn",        3,   false},
    {NOp::Qxtn,       "vqmovn",       3,   false},
    {NOp::Shrn,       "vshrn",        3,   false},
    {NOp::Qrshrn,     "vqrshrn",      3,   false},
    {NOp::Cmgt,       "vcgt",         2,   false},
    {NOp::Cmeq,       "vceq",         2,   false},
    {NOp::Bsl,        "vbsl",         2,   false},
    {NOp::And,        "vand",         2,   false},
    {NOp::Orr,        "vorr",         2,   false},
    {NOp::Eor,        "veor",         2,   false},
    {NOp::Not,        "vmvn",         2,   false},
    {NOp::Hole,       "??",           0,   true},
    {NOp::Lo,         "vget_low",     0,   true},
    {NOp::Hi,         "vget_high",    0,   true},
    {NOp::Combine,    "vcombine",     0,   true},
    {NOp::Ext,        "vext",         3,   false},
    {NOp::Zip,        "vzip",         3,   false},
    {NOp::Uzp,        "vuzp",         3,   false},
    {NOp::Rev,        "vrev",         3,   false},
    {NOp::Tbl,        "vtbl",         3,   false},
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

NInstr::NInstr(NOp op, VecType type, std::vector<NInstrPtr> args,
               std::vector<int64_t> imms, hir::LoadRef load,
               hir::ExprPtr dup)
    : op_(op), type_(type), args_(std::move(args)), imms_(std::move(imms)),
      load_(load), dup_(std::move(dup))
{
    size_t h = static_cast<size_t>(op_);
    h = hash_mix(h, static_cast<size_t>(type_.elem));
    h = hash_mix(h, static_cast<size_t>(type_.lanes));
    for (int64_t i : imms_)
        h = hash_mix(h, std::hash<int64_t>{}(i));
    h = hash_mix(h, std::hash<int>{}(load_.buffer * 8191 + load_.dx * 31 +
                                     load_.dy));
    if (dup_)
        h = hash_mix(h, dup_->hash());
    for (const auto &a : args_)
        h = hash_mix(h, a->hash());
    hash_ = h;
}

NInstrPtr
NInstr::make_load(hir::LoadRef ref, VecType type)
{
    RAKE_USER_CHECK(type.lanes >= 1 && type.lanes <= kMaxLanes,
                    "vld1 must load 1 to " << kMaxLanes << " lanes");
    return NInstrPtr(
        new NInstr(NOp::Ld1, type, {}, {}, ref, nullptr));
}

NInstrPtr
NInstr::make_dup(hir::ExprPtr scalar, int lanes)
{
    RAKE_USER_CHECK(scalar != nullptr && scalar->type().lanes == 1,
                    "vdup payload must be scalar");
    RAKE_USER_CHECK(lanes >= 1 && lanes <= kMaxLanes,
                    "vdup must have 1 to " << kMaxLanes << " lanes");
    VecType t(scalar->type().elem, lanes);
    return NInstrPtr(new NInstr(NOp::Dup, t, {}, {}, hir::LoadRef{},
                                std::move(scalar)));
}

NInstrPtr
NInstr::make_hole(int id, VecType type)
{
    RAKE_USER_CHECK(id >= 0, "hole id must be non-negative");
    return NInstrPtr(new NInstr(NOp::Hole, type, {}, {id},
                                hir::LoadRef{}, nullptr));
}

NInstrPtr
NInstr::make(NOp op, std::vector<NInstrPtr> args,
             std::vector<int64_t> imms, ScalarType out_elem)
{
    RAKE_USER_CHECK(op != NOp::Ld1 && op != NOp::Dup && op != NOp::Hole,
                    "use the dedicated factory");
    RAKE_USER_CHECK(!args.empty(), to_string(op) << " needs operands");
    for (const auto &a : args)
        RAKE_USER_CHECK(a != nullptr, "null operand");
    const VecType a0 = args[0]->type();
    VecType result = a0;

    switch (op) {
      case NOp::Bitcast:
        RAKE_USER_CHECK(bits(out_elem) == bits(a0.elem),
                        "vreinterpret here only swaps signedness");
        result = a0.with_elem(out_elem);
        break;
      case NOp::Movl:
        RAKE_USER_CHECK(args.size() == 1 && bits(a0.elem) < 64,
                        "bad vmovl");
        result = a0.with_elem(widen(a0.elem));
        break;
      case NOp::Mull:
        RAKE_USER_CHECK(args.size() == 2 &&
                            args[1]->type().elem == a0.elem,
                        "vmull operand mismatch");
        result = a0.with_elem(widen(a0.elem));
        break;
      case NOp::Mlal:
        RAKE_USER_CHECK(args.size() == 3 &&
                            args[1]->type().elem ==
                                args[2]->type().elem &&
                            bits(a0.elem) ==
                                2 * bits(args[1]->type().elem),
                        "vmlal operand mismatch");
        result = a0;
        break;
      case NOp::Mla:
        RAKE_USER_CHECK(args.size() == 3, "vmla is ternary");
        break;
      case NOp::Xtn:
      case NOp::Qxtn:
        RAKE_USER_CHECK(args.size() == 1 && bits(a0.elem) > 8,
                        "bad narrow");
        result = op == NOp::Xtn ? a0.with_elem(narrow(a0.elem))
                                : a0.with_elem(out_elem);
        if (op == NOp::Qxtn) {
            RAKE_USER_CHECK(bits(out_elem) * 2 == bits(a0.elem),
                            "vqmovn must halve the width");
        }
        break;
      case NOp::Shrn:
      case NOp::Qrshrn:
        RAKE_USER_CHECK(args.size() == 1 && imms.size() == 1 &&
                            bits(a0.elem) > 8,
                        "bad narrowing shift");
        result = op == NOp::Shrn ? a0.with_elem(narrow(a0.elem))
                                 : a0.with_elem(out_elem);
        if (op == NOp::Qrshrn) {
            RAKE_USER_CHECK(bits(out_elem) * 2 == bits(a0.elem),
                            "vqrshrn must halve the width");
        }
        break;
      case NOp::Shl:
      case NOp::Sshr:
      case NOp::Ushr:
      case NOp::Rshr:
        RAKE_USER_CHECK(args.size() == 1 && imms.size() == 1,
                        "shift takes one operand and one immediate");
        break;
      case NOp::Cmgt:
      case NOp::Cmeq:
        RAKE_USER_CHECK(args.size() == 2, "compare is binary");
        result = a0.with_elem(ScalarType::Int8);
        break;
      case NOp::Bsl:
        RAKE_USER_CHECK(args.size() == 3 &&
                            args[1]->type() == args[2]->type(),
                        "vbsl operand mismatch");
        result = args[1]->type();
        break;
      case NOp::Not:
        RAKE_USER_CHECK(args.size() == 1, "vmvn is unary");
        break;
      case NOp::Lo:
      case NOp::Hi:
        RAKE_USER_CHECK(args.size() == 1 && a0.lanes % 2 == 0,
                        "half extraction needs an even-lane operand");
        result = VecType(a0.elem, a0.lanes / 2);
        break;
      case NOp::Combine:
        RAKE_USER_CHECK(args.size() == 2 && args[1]->type() == a0,
                        "vcombine operand mismatch");
        result = VecType(a0.elem, a0.lanes * 2);
        break;
      case NOp::Ext:
        RAKE_USER_CHECK(args.size() == 2 && args[1]->type() == a0 &&
                            imms.size() == 1 && imms[0] > 0 &&
                            imms[0] < a0.lanes,
                        "bad vext");
        break;
      case NOp::Zip:
      case NOp::Uzp:
        RAKE_USER_CHECK(args.size() == 1 && a0.lanes % 2 == 0,
                        "zip/uzp need an even-lane operand");
        break;
      case NOp::Rev:
        RAKE_USER_CHECK(args.size() == 1, "vrev is unary");
        break;
      case NOp::Tbl:
        RAKE_USER_CHECK(args.size() == 1 && !imms.empty(),
                        "vtbl needs a table and an index list");
        result = VecType(a0.elem, static_cast<int>(imms.size()));
        break;
      default:
        RAKE_USER_CHECK(args.size() == 2 && args[1]->type() == a0,
                        to_string(op) << " operand mismatch");
        break;
    }
    // Operands are within the ceiling, so computing `result` could not
    // overflow; a result past it is refused before anything grows it.
    RAKE_USER_CHECK(result.lanes <= kMaxLanes,
                    to_string(op) << " result of " << result.lanes
                                  << " lanes exceeds the ceiling of "
                                  << kMaxLanes);
    return NInstrPtr(new NInstr(op, result, std::move(args),
                                std::move(imms), hir::LoadRef{},
                                nullptr));
}

bool
NInstr::equals(const NInstr &other) const
{
    if (this == &other)
        return true;
    if (op_ != other.op_ || !(type_ == other.type_) ||
        hash_ != other.hash_ || imms_ != other.imms_ ||
        !(load_ == other.load_) || args_.size() != other.args_.size() ||
        !hir::equal(dup_, other.dup_))
        return false;
    for (size_t i = 0; i < args_.size(); ++i) {
        if (!args_[i]->equals(*other.args_[i]))
            return false;
    }
    return true;
}

int
NInstr::instruction_count() const
{
    int count = 0;
    for_each_distinct_node(*this, [&](const NInstr &n) {
        if (!info(n.op()).free)
            ++count;
    });
    return count;
}

namespace {

int
emit(const NInstrPtr &n, std::map<const NInstr *, int> &reg,
     std::ostringstream &os, int &next)
{
    auto it = reg.find(n.get());
    if (it != reg.end())
        return it->second;
    std::vector<int> arg_regs;
    for (const auto &a : n->args())
        arg_regs.push_back(emit(a, reg, os, next));
    const int r = next++;
    reg.emplace(n.get(), r);
    os << "  q" << r << ":" << to_string(n->type()) << " = "
       << to_string(n->op());
    os << "(";
    bool first = true;
    if (n->op() == NOp::Ld1) {
        os << hir::to_string(n->load_ref());
        first = false;
    }
    if (n->op() == NOp::Dup) {
        os << hir::to_string(n->dup_value());
        first = false;
    }
    for (int ar : arg_regs) {
        if (!first)
            os << ", ";
        first = false;
        os << "q" << ar;
    }
    for (int64_t imm : n->imms()) {
        if (!first)
            os << ", ";
        first = false;
        os << "#" << imm;
    }
    os << ")\n";
    return r;
}

} // namespace

std::string
to_listing(const NInstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "printing null instruction");
    std::ostringstream os;
    std::map<const NInstr *, int> reg;
    int next = 0;
    emit(n, reg, os, next);
    return os.str();
}

} // namespace rake::neon
