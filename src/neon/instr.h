/**
 * @file
 * The ARM Neon instruction model (paper §6, "Extending to other
 * ISAs"): its opcode table and typing rule, over the instruction node,
 * interpreter, codec and listing every ISA shares (isa/).
 *
 * The paper reports that the uber-instructions derived for HVX can be
 * re-used for ARM "with only slight modifications", because both ISAs
 * target the same fixed-point compute patterns. This module
 * demonstrates exactly that: the *same* Uber-Instruction IR produced
 * by the lifting stage lowers onto a Neon instruction model instead.
 *
 * Neon differs from HVX in the dimension the paper highlights: its
 * compute instructions perform no implicit data movement (no
 * deinterleaved register pairs), so the layout parameterization of
 * §5.1 is unnecessary. Lowering is otherwise the full search HVX
 * runs, over Neon's grammar, swizzle moves and cost model
 * (backend/neon_backend.h).
 */
#ifndef RAKE_NEON_INSTR_H
#define RAKE_NEON_INSTR_H

#include <memory>
#include <string>
#include <vector>

#include "base/type.h"
#include "isa/node.h"
#include "isa/text.h"

namespace rake::neon {

/** Neon opcode families (type variants selected by the node type). */
enum class NOp : uint8_t {
    Ld1,    ///< vector load
    Dup,    ///< broadcast a scalar (vdup)
    Bitcast,///< free register reinterpretation (vreinterpret)
    Movl,   ///< widening move (sxtl / uxtl)
    Add,    ///< vadd
    Qadd,   ///< saturating add (vqadd)
    Sub,    ///< vsub
    Mul,    ///< non-widening multiply (vmul)
    Mla,    ///< non-widening multiply-accumulate (vmla)
    Mull,   ///< widening multiply (vmull)
    Mlal,   ///< widening multiply-accumulate (vmlal)
    Abd,    ///< absolute difference (vabd)
    Min,    ///< vmin
    Max,    ///< vmax
    Hadd,   ///< halving add (vhadd)
    Rhadd,  ///< rounding halving add (vrhadd)
    Shl,    ///< shift left immediate (vshl)
    Sshr,   ///< arithmetic shift right immediate (vshr.s)
    Ushr,   ///< logical shift right immediate (vshr.u)
    Rshr,   ///< rounding shift right immediate (vrshr)
    Xtn,    ///< truncating narrow (vmovn)
    Qxtn,   ///< saturating narrow (vqmovn / vqmovun)
    Shrn,   ///< truncating shift-right narrow (vshrn)
    Qrshrn, ///< saturating rounding shift-right narrow (vqrshrn/un)
    Cmgt,   ///< compare greater-than (vcgt)
    Cmeq,   ///< compare equal (vceq)
    Bsl,    ///< bitwise select (vbsl)
    And,
    Orr,
    Eor,
    Not,

    // Data movement (the swizzle repertoire) and sketch holes.
    Hole,   ///< ??-hole awaiting swizzle synthesis (search-time only)
    Lo,     ///< low half of a register pair (vget_low)
    Hi,     ///< high half of a register pair (vget_high)
    Combine,///< concatenate two halves (vcombine)
    Ext,    ///< lane-wise funnel extract (vext)
    Zip,    ///< interleave the two halves in place (vzip)
    Uzp,    ///< deinterleave even/odd lanes in place (vuzp)
    Rev,    ///< reverse all lanes (vrev)
    Tbl,    ///< table lookup with a static index list (vtbl)
};

/** Number of NOp values. */
inline constexpr int kNumNOps = static_cast<int>(NOp::Tbl) + 1;

/** Static metadata of an opcode; the one table is in instr.cc. */
struct NOpInfo {
    NOp op;               ///< the entry's own opcode (order is checked)
    const char *mnemonic; ///< unique: the listing and s-expression name
    int latency;          ///< result latency in cycles (neon/cost.h)
    /**
     * Costs no issue slot: register renames and loop-invariant
     * broadcasts (vdup of a kernel constant is hoisted out of the
     * loop), plus the search-time Hole placeholder. Shared by the
     * instruction counter and the cycle-cost model.
     */
    bool free;
    int num_args; ///< register operand count
    int num_imms; ///< immediate count (isa::kAnyImms: one or more)
};

/** Metadata for one opcode. */
const NOpInfo &info(NOp op);

/** Mnemonic of the opcode family. */
std::string to_string(NOp op);

struct Traits;

/** An immutable Neon instruction node (linear lane semantics). */
using NInstr = isa::Node<Traits>;
using NInstrPtr = std::shared_ptr<const NInstr>;

/** Neon's repertoire, for isa::Node (see isa/node.h). */
struct Traits {
    using Op = NOp;
    static constexpr Op kRead = NOp::Ld1;
    static constexpr Op kSplat = NOp::Dup;
    static constexpr Op kHole = NOp::Hole;
    static constexpr int kNumOps = kNumNOps;
    static constexpr const char *kName = "Neon";
    static constexpr char kRegister = 'q';

    static const NOpInfo &info(Op op) { return neon::info(op); }
    static bool free(Op op) { return info(op).free; }

    /** The typing rule of every non-leaf opcode (instr.cc). */
    static VecType result_type(Op op, const std::vector<NInstrPtr> &args,
                               const std::vector<int64_t> &imms,
                               ScalarType out_elem);
};

/** Listing name: Neon's mnemonics already name one instruction. */
inline std::string
concrete_name(const NInstr &n)
{
    return to_string(n.op());
}

/** Flat listing renderer (one instruction per line, isa/text.h). */
using isa::to_listing;

} // namespace rake::neon

#endif // RAKE_NEON_INSTR_H
