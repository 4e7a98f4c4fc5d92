/**
 * @file
 * Preliminary ARM Neon backend (paper §6, "Extending to other ISAs").
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
 * §5.1 is unnecessary and the lowering is a direct greedy mapping —
 * the "preliminary" port the paper describes, not a full search.
 */
#ifndef RAKE_NEON_INSTR_H
#define RAKE_NEON_INSTR_H

#include <memory>
#include <string>
#include <vector>

#include "base/type.h"
#include "hir/expr.h"

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
};

/** Metadata for one opcode. */
const NOpInfo &info(NOp op);

/** Mnemonic of the opcode family. */
std::string to_string(NOp op);

class NInstr;
using NInstrPtr = std::shared_ptr<const NInstr>;

/** An immutable Neon instruction node (linear lane semantics). */
class NInstr
{
  public:
    static NInstrPtr make_load(hir::LoadRef ref, VecType type);
    static NInstrPtr make_dup(hir::ExprPtr scalar, int lanes);
    static NInstrPtr make_hole(int id, VecType type);
    static NInstrPtr make(NOp op, std::vector<NInstrPtr> args,
                          std::vector<int64_t> imms = {},
                          ScalarType out_elem = ScalarType::Int32);

    NOp op() const { return op_; }
    const VecType &type() const { return type_; }
    const std::vector<NInstrPtr> &args() const { return args_; }
    const NInstrPtr &arg(int i) const { return args_[i]; }
    int num_args() const { return static_cast<int>(args_.size()); }
    const std::vector<int64_t> &imms() const { return imms_; }
    const hir::LoadRef &load_ref() const { return load_; }
    const hir::ExprPtr &dup_value() const { return dup_; }

    /** Hole table index (Hole nodes only). */
    int
    hole_id() const
    {
        RAKE_CHECK(op_ == NOp::Hole, "hole_id of a non-hole");
        return static_cast<int>(imms_[0]);
    }

    /** Structural hash (cached). */
    size_t hash() const { return hash_; }

    /** Deep structural equality. */
    bool equals(const NInstr &other) const;

    /**
     * Instructions in the DAG (structurally equal nodes once), not
     * counting free register plumbing (NOpInfo::free).
     */
    int instruction_count() const;

  private:
    NInstr(NOp op, VecType type, std::vector<NInstrPtr> args,
           std::vector<int64_t> imms, hir::LoadRef load,
           hir::ExprPtr dup);

    NOp op_;
    VecType type_;
    std::vector<NInstrPtr> args_;
    std::vector<int64_t> imms_;
    hir::LoadRef load_;
    hir::ExprPtr dup_;
    size_t hash_ = 0;
};

/** Flat listing renderer (one instruction per line). */
std::string to_listing(const NInstrPtr &n);

} // namespace rake::neon

#endif // RAKE_NEON_INSTR_H
