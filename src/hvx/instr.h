/**
 * @file
 * HVX instruction DAGs: the output language of Rake's lowering stage
 * and of the baseline optimizer.
 *
 * A node (isa/node.h) is one HVX instruction (or a free register-file
 * rename such as vlo/vhi/vbitcast); its children are the producing
 * instructions. Types track *element counts*, not registers: a value
 * of type u16x64 with 128-byte vectors is a single register, u16x128
 * is a register pair. The cost model (hvx/cost.h) derives register
 * occupancy from the type and the target vector width.
 */
#ifndef RAKE_HVX_INSTR_H
#define RAKE_HVX_INSTR_H

#include <memory>
#include <vector>

#include "base/type.h"
#include "hvx/isa.h"
#include "isa/node.h"

namespace rake::hvx {

struct Traits;

/** An immutable HVX instruction node. */
using Instr = isa::Node<Traits>;
using InstrPtr = std::shared_ptr<const Instr>;

/** HVX's repertoire, for isa::Node (see isa/node.h). */
struct Traits {
    using Op = Opcode;
    static constexpr Op kRead = Opcode::VRead;
    static constexpr Op kSplat = Opcode::VSplat;
    static constexpr Op kHole = Opcode::Hole;
    static constexpr int kNumOps = kNumOpcodes;
    static constexpr const char *kName = "HVX";
    static constexpr char kRegister = 'v';

    static const OpcodeInfo &info(Op op) { return hvx::info(op); }

    /** Register renames and loop-invariant broadcasts. */
    static bool free(Op op) { return info(op).resource == Resource::None; }

    /** The typing rule of every non-leaf opcode (instr.cc). */
    static VecType result_type(Op op, const std::vector<InstrPtr> &args,
                               const std::vector<int64_t> &imms,
                               ScalarType out_elem);
};

using isa::equal;

} // namespace rake::hvx

#endif // RAKE_HVX_INSTR_H
