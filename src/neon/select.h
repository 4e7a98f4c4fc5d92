/**
 * @file
 * Uber-Instruction-IR -> Neon instruction selection (paper §6).
 *
 * The Neon port originally demonstrated retargeting with a greedy
 * one-template mapping per uber-instruction. It now goes through the
 * same synthesis stack as HVX — sketch grammar, CEGIS verification,
 * the one swizzle search under a cost budget, backtracking, and the
 * cross-expression cache — via backend::make_neon_backend(), on the
 * same cache key the compile server uses for the same options. The
 * greedy mapping is kept behind SelectOptions::greedy as the ablation
 * baseline.
 */
#ifndef RAKE_NEON_SELECT_H
#define RAKE_NEON_SELECT_H

#include <optional>

#include "base/value.h"
#include "neon/instr.h"
#include "neon/interp.h"
#include "support/deadline.h"
#include "synth/lower.h"
#include "synth/rake.h"
#include "synth/verify.h"
#include "uir/uexpr.h"

namespace rake::neon {

/** Configuration of one Neon selection run. */
struct SelectOptions {
    /** Use the old greedy one-template mapping (ablation baseline). */
    bool greedy = false;

    synth::LowerOptions lower;
    synth::VerifierOptions verifier;
    uint64_t seed = 1;     ///< example-pool seed
    bool use_cache = true; ///< consult the cross-expression cache

    /**
     * Wall-clock budget for the synthesis path (see
     * synth::RakeOptions::deadline). On expiry selection degrades to
     * the greedy mapping, reported through the `status` out-param.
     * The greedy path itself ignores the deadline — it is the
     * fallback and performs no search.
     */
    Deadline deadline;

    /** Persistent-cache directory (see synth::RakeOptions::cache_dir);
     *  "" disables the disk tier. The greedy path never consults it. */
    std::string cache_dir;

    /** Mined rewrite-rule table (see synth::RakeOptions::rules_file);
     *  "" disables the rule-first stage. Greedy never consults it. */
    std::string rules_file;
};

/**
 * Greedily lower a lifted expression to Neon. Returns nullopt when an
 * uber-instruction has no mapping in the greedy repertoire (e.g.
 * saturating multiply-add chains).
 */
std::optional<NInstrPtr> lower_to_neon(const uir::UExprPtr &lifted);

/**
 * Full flow: lift the HIR expression with the shared lifting stage,
 * then search for the lowest-cost Neon lowering (or, under
 * opts.greedy, apply the one-template mapping). Every returned result
 * has been verified against the HIR reference on concrete examples.
 *
 * `status`, when non-null, receives the timeout taxonomy of the run:
 * Ok, NoSolution (returned nullopt), or TimedOut (the deadline fired
 * and the returned program is the greedy degradation).
 */
std::optional<NInstrPtr> select_instructions(const hir::ExprPtr &expr,
                                             const SelectOptions &opts
                                             = {},
                                             synth::SynthStatus *status
                                             = nullptr);

} // namespace rake::neon

#endif // RAKE_NEON_SELECT_H
