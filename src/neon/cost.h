/**
 * @file
 * Neon machine model and cycle-cost estimator.
 *
 * The model mirrors the structure of hvx/cost.h at Neon's scale: a
 * Target describing the register file (128-bit Q registers), an
 * issue count per instruction, the latencies of the opcode table
 * (NOpInfo, neon/instr.h), and a DAG-walking cost_of(). Wide logical vectors (the benchmark suite works on
 * 64-lane values) occupy several Q registers, so a non-free
 * instruction issues once per register it produces — narrows count
 * the wider input side. Register plumbing (vget_low/high, vcombine,
 * vreinterpret) and loop-invariant broadcasts are free.
 *
 * Neon has no per-resource slot structure worth modeling at this
 * granularity, so the headline scalar metric is simply the total
 * issue count; ties break on latency.
 */
#ifndef RAKE_NEON_COST_H
#define RAKE_NEON_COST_H

#include <string>

#include "neon/instr.h"

namespace rake::neon {

/** The modeled Neon machine. */
struct Target {
    int vector_bytes = 16; ///< one 128-bit Q register

    /** Q registers needed to hold a value of type `t`. */
    int
    regs_for(const VecType &t) const
    {
        const int total = t.total_bytes();
        if (total <= vector_bytes)
            return 1;
        return (total + vector_bytes - 1) / vector_bytes;
    }
};

/** Cost of one instruction DAG. */
struct Cost {
    int total_instructions = 0; ///< issue slots
    int total_latency = 0;      ///< summed issue latencies
    int loads = 0;              ///< vld1 issues within the total

    /** Headline metric: Neon issues one instruction per cycle. */
    int
    scalar() const
    {
        return total_instructions;
    }

    bool
    better_than(const Cost &o) const
    {
        if (total_instructions != o.total_instructions)
            return total_instructions < o.total_instructions;
        return total_latency < o.total_latency;
    }
};

/** Issue slots one node occupies (0 for free movement). */
int issue_count(const NInstr &n, const Target &target);

/** Cost of a DAG; structurally equal nodes count once. */
Cost cost_of(const NInstrPtr &n, const Target &target);

std::string to_string(const Cost &c);

} // namespace rake::neon

#endif // RAKE_NEON_COST_H
