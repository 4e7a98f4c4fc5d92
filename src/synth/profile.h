/**
 * @file
 * Synthesis profiler: a rollup of every stage's query counters and
 * wall-clock time over one or more Rake runs, rendered as the
 * `--profile` breakdown the bench drivers print.
 *
 * The per-stage counters already exist for Table 1; the profiler adds
 * the per-rule split of lifting, the fast-path effectiveness numbers
 * (reference-cache and dedup hit rates, swizzle memo hits), and a
 * time-share column so a regression in any one stage is visible
 * without rebuilding with gprof.
 */
#ifndef RAKE_SYNTH_PROFILE_H
#define RAKE_SYNTH_PROFILE_H

#include <string>

#include "synth/rake.h"

namespace rake::synth {

/** Accumulated profile over a set of Rake runs. */
struct SynthProfile {
    // Lifting, split by rule (the paper's update / replace / extend).
    QueryStats lift_update;
    QueryStats lift_replace;
    QueryStats lift_extend;

    // Lowering: sketch verification and swizzle search.
    QueryStats sketch;
    SwizzleStats swizzle;
    int backtracks = 0;

    int runs = 0;       ///< syntheses folded into this profile
    int cache_hits = 0; ///< runs answered by the cross-expression cache
    int disk_hits = 0;  ///< runs answered by the persistent on-disk tier
    int rule_hits = 0;  ///< runs answered by the rule-first stage
    int rule_instance_rejects = 0; ///< rule instantiations refused by
                                   ///< the per-instance example re-check
    int rule_table_size = 0; ///< rules loaded for this configuration
                             ///< (max across merges, not a sum)
    int timeouts = 0;   ///< runs aborted by the wall-clock deadline
    int degraded = 0;   ///< runs that fell back to the greedy selector

    // Whole-pipeline selection counters, folded in by the pipeline
    // compiler (not by add(): they are DAG-level, not per-synthesis).
    // All zero for single-expression runs, and rendered only when a
    // DAG was in play, so flat output stays bit-identical.
    int stages = 0;            ///< DAG stages compiled
    int boundary_swizzles = 0; ///< boundary permutes left after
                               ///< layout negotiation
    int64_t hashcons_hits = 0; ///< shared HIR subtrees deduplicated

    /** Fold one synthesis result (either flavor) into the profile. */
    void add(const RakeOutcome &r);

    /** Fold another profile in (drivers aggregate across benchmarks). */
    void merge(const SynthProfile &o);

    /** Sum of all stage clocks (synthesis effort, not wall time). */
    double total_seconds() const;

    int total_queries() const;
    int total_dedup_skips() const;
    int total_ref_cache_hits() const;

    /**
     * Render the breakdown: one row per stage/rule with queries,
     * accept/reject outcomes, fast-path hits and time share, then the
     * effectiveness summary lines.
     */
    std::string to_string() const;
};

} // namespace rake::synth

#endif // RAKE_SYNTH_PROFILE_H
