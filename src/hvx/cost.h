/**
 * @file
 * The Rake cost model for HVX expressions (paper §6).
 *
 * HVX has multiple hardware resources (multiply, shift, permute, ALU,
 * load) and different instructions execute on different resources
 * within the same VLIW packet. The cost of an expression is the
 * per-resource instruction count, combined as the MAXIMUM over
 * resources — biasing selection toward implementations that spread
 * work across resources. Ties break on total instruction count, then
 * on total latency.
 *
 * Register occupancy matters for instruction counts: an operation on
 * a register *pair* issues twice (once per register), which is why
 * e.g. two vmpyi-acc are needed where one widening vmpy-acc suffices
 * (paper Fig. 12, "add" row). `Cost` accounts for this via the target
 * vector width.
 */
#ifndef RAKE_HVX_COST_H
#define RAKE_HVX_COST_H

#include <array>
#include <string>

#include "hvx/instr.h"

namespace rake::hvx {

/** Target machine description. */
struct Target {
    /** Native vector register width in bytes (HVX 128B mode). */
    int vector_bytes = 128;

    /** Registers occupied by a value of the given type (>= 1). */
    int
    regs_for(const VecType &t) const
    {
        const int total = t.total_bytes();
        return total <= vector_bytes ? 1
                                     : (total + vector_bytes - 1) /
                                           vector_bytes;
    }
};

/** Cost vector of an HVX expression. */
struct Cost {
    std::array<int, kNumCostedResources> per_resource = {};
    int total_instructions = 0;
    int total_latency = 0;
    int loads = 0;

    /** The paper's scalar cost: max over per-resource counts. */
    int
    scalar() const
    {
        int m = 0;
        for (int c : per_resource)
            m = std::max(m, c);
        return m;
    }

    /** Strict-weak ordering: scalar cost, then total, then latency. */
    bool
    better_than(const Cost &o) const
    {
        if (scalar() != o.scalar())
            return scalar() < o.scalar();
        if (total_instructions != o.total_instructions)
            return total_instructions < o.total_instructions;
        return total_latency < o.total_latency;
    }
};

std::string to_string(const Cost &c);

/** Cost of an instruction DAG; structurally equal nodes count once. */
Cost cost_of(const InstrPtr &n, const Target &target);

/**
 * Issue count of a single instruction node: register-pair operations
 * issue once per occupied result register; free renames issue zero.
 */
int issue_count(const Instr &n, const Target &target);

} // namespace rake::hvx

#endif // RAKE_HVX_COST_H
