/**
 * @file
 * HVX instruction DAGs: the output language of Rake's lowering stage
 * and of the baseline optimizer.
 *
 * A node is one HVX instruction (or a free register-file rename such
 * as vlo/vhi/vbitcast); its children are the producing instructions.
 * Types track *element counts*, not registers: a value of type u16x64
 * with 128-byte vectors is a single register, u16x128 is a register
 * pair. The cost model (hvx/cost.h) derives register occupancy from
 * the type and the target vector width.
 */
#ifndef RAKE_HVX_INSTR_H
#define RAKE_HVX_INSTR_H

#include <memory>
#include <string>
#include <vector>

#include "base/type.h"
#include "hir/expr.h"
#include "hvx/isa.h"

namespace rake::hvx {

class Instr;
using InstrPtr = std::shared_ptr<const Instr>;

/** An immutable HVX instruction node. */
class Instr
{
  public:
    /** Vector load of `type` from buffer `ref` (elements, not bytes). */
    static InstrPtr make_read(hir::LoadRef ref, VecType type);

    /**
     * Broadcast of a scalar HIR expression (constant, variable, or
     * scalar arithmetic over them). Loop-invariant: hoisted by LLVM,
     * so it costs nothing inside the loop (paper Fig. 4 caption).
     */
    static InstrPtr make_splat(hir::ExprPtr scalar, int lanes);

    /** Generic constructor; validates signature for the opcode. */
    static InstrPtr make(Opcode op, std::vector<InstrPtr> args,
                         std::vector<int64_t> imms = {},
                         ScalarType out_elem = ScalarType::Int32);

    /**
     * A ??load / ??swizzle placeholder of the given type (paper §4).
     * Only appears inside sketches during synthesis; `id` indexes the
     * sketch's hole table.
     */
    static InstrPtr make_hole(int id, VecType type);

    /** Hole id; valid only when op() == Opcode::Hole. */
    int hole_id() const { return static_cast<int>(imms_[0]); }

    Opcode op() const { return op_; }
    const VecType &type() const { return type_; }
    const std::vector<InstrPtr> &args() const { return args_; }
    const InstrPtr &arg(int i) const { return args_[i]; }
    int num_args() const { return static_cast<int>(args_.size()); }
    const std::vector<int64_t> &imms() const { return imms_; }
    int64_t imm(int i) const { return imms_[i]; }

    /** Load payload; valid only when op() == Opcode::VRead. */
    const hir::LoadRef &load_ref() const { return load_; }

    /** Scalar payload; valid only when op() == Opcode::VSplat. */
    const hir::ExprPtr &splat_value() const { return splat_; }

    /** Structural hash (cached). */
    size_t hash() const { return hash_; }

    /** Deep structural equality. */
    bool equals(const Instr &other) const;

    /** Cost-bearing instructions in the DAG, equal nodes once. */
    int instruction_count() const;

  private:
    Instr(Opcode op, VecType type, std::vector<InstrPtr> args,
          std::vector<int64_t> imms, hir::LoadRef load,
          hir::ExprPtr splat);

    Opcode op_;
    VecType type_;
    std::vector<InstrPtr> args_;
    std::vector<int64_t> imms_;
    hir::LoadRef load_;
    hir::ExprPtr splat_;
    size_t hash_ = 0;
};

/** Deep equality through pointers. */
bool equal(const InstrPtr &a, const InstrPtr &b);

} // namespace rake::hvx

#endif // RAKE_HVX_INSTR_H
