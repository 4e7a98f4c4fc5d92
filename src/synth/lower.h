/**
 * @file
 * Lowering from the Uber-Instruction IR to a target ISA (paper §4-§5,
 * Algorithm 2).
 *
 * For each uber-instruction, bottom-up:
 *
 *  1. enumerate swizzle-free sketches — concrete compute intrinsics
 *     with data movement abstracted behind symbolic-vector holes —
 *     from the grammar specialized to that uber-instruction;
 *  2. verify each sketch against the uber-instruction under the CEGIS
 *     oracle (lane-0 pruning first, §4.1);
 *  3. concretize the holes via swizzle synthesis under the cost bound
 *     β (§5), tighten β, and backtrack for a cheaper implementation.
 *
 * The backend's cost_of() / instruction_count() count structurally
 * equal nodes once, so a move the swizzle search builds twice is
 * charged once, as if it were shared.
 *
 * Lowering is parameterized over the output data layout ℓ
 * (linear / deinterleaved, §5.1) so intermediate values can stay in
 * the layout widening instructions naturally produce.
 *
 * The search itself is target-independent: the instruction grammar,
 * interpreter, swizzle repertoire, and cost model come from a
 * backend::TargetISA (see backend/target_isa.h).
 */
#ifndef RAKE_SYNTH_LOWER_H
#define RAKE_SYNTH_LOWER_H

#include <optional>

#include "backend/target_isa.h"
#include "synth/sketch.h"
#include "synth/swizzle.h"
#include "synth/verify.h"
#include "uir/uexpr.h"

namespace rake::synth {

/** Knobs for the lowering search (ablation switches included). */
struct LowerOptions {
    bool backtracking = true;  ///< keep searching after the first impl
    bool layouts = true;       ///< parameterize over data layouts
    bool lane0_pruning = true; ///< quick lane-0 sketch rejection (§4.1)
    int swizzle_budget = 8;    ///< instruction budget per hole

    /**
     * Wall-clock budget polled between sketches and inside both
     * swizzle solvers (the backend receives it via
     * TargetISA::set_deadline). Excluded from the cache fingerprint:
     * a deadline aborts a search, it never changes its answer.
     */
    Deadline deadline;
};

/** Instrumentation for Table 1. */
struct LowerStats {
    QueryStats sketch;   ///< sketch synthesis queries
    SwizzleStats swizzle;///< swizzle synthesis queries
    int backtracks = 0;  ///< implementations improved upon
};

/** Result of lowering through an arbitrary backend. */
struct BackendLowerResult {
    backend::InstrHandle instr;
    LowerStats stats;
};

/**
 * Lower a lifted expression through the given backend. Returns
 * nullopt when no verified implementation was found (the caller then
 * falls back to its baseline selector, as Rake falls back to
 * Halide's). The backend instance carries per-run state (the swizzle
 * search's window reads); use a fresh one per call.
 */
std::optional<BackendLowerResult>
lower_with_backend(Verifier &verifier, const uir::UExprPtr &lifted,
                   backend::TargetISA &isa,
                   const LowerOptions &opts = {});

} // namespace rake::synth

#endif // RAKE_SYNTH_LOWER_H
