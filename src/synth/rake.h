/**
 * @file
 * The top-level Rake instruction selector: lift to Uber-Instruction
 * IR, lower through a target backend, optionally prove the result
 * with z3.
 *
 * This is the public entry point a compiler embeds (Fig. 1): hand it
 * one vectorized HIR expression, get back a verified instruction DAG
 * plus the per-stage synthesis statistics reported in Table 1. The
 * fast path in front of synthesis (memory, disk and rule tiers) and
 * the timeout fallback are written once, over backend::TargetISA
 * (paper §6: retargeting swaps only the instruction repertoire);
 * the HVX-typed select_instructions() is a thin wrapper.
 */
#ifndef RAKE_SYNTH_RAKE_H
#define RAKE_SYNTH_RAKE_H

#include <optional>

#include "hvx/cost.h"
#include "support/deadline.h"
#include "synth/lift.h"
#include "synth/lower.h"
#include "synth/z3_verify.h"

namespace rake::synth {

/**
 * Structured outcome of one selection query (the timeout taxonomy).
 * `Error` is reserved for the embedder catching a non-timeout
 * exception at its own boundary; the entry points here either return
 * one of the first three or propagate the exception.
 */
enum class SynthStatus {
    Ok,         ///< verified implementation within every budget
    NoSolution, ///< search exhausted: no implementation exists within
                ///< the cost budgets (deterministic, cacheable)
    TimedOut,   ///< aborted by the wall-clock deadline (never cached)
    Error,      ///< synthesis raised a non-timeout error
};

const char *to_string(SynthStatus status);

/** Configuration of one Rake run. */
struct RakeOptions {
    hvx::Target target;
    LowerOptions lower;
    VerifierOptions verifier;
    bool z3_prove = false;  ///< final SMT proof of the selected code
                            ///< (HVX; Unknown on other backends)
    uint64_t seed = 1;      ///< example-pool seed
    bool use_cache = true;  ///< consult the cross-expression cache

    /**
     * Wall-clock budget for this query. Combined (sooner wins) into
     * the verifier and lowering deadlines, so one knob bounds every
     * stage. On expiry select_instructions* returns a degraded
     * result (status = TimedOut, instr = the backend's greedy
     * program) instead of hanging or throwing. Excluded from the
     * cache fingerprint: a deadline aborts runs, it never changes a
     * completed run's answer, so completed results are shared across
     * budgets.
     */
    Deadline deadline;

    /**
     * Directory of the persistent (on-disk) cache tier; "" disables
     * it (see synth/persist.h). Consulted on an in-memory miss before
     * CEGIS runs, written after each completed synthesis. Like the
     * deadline, excluded from the cache fingerprint: where a result
     * is stored never changes what the result is. CLIs resolve this
     * knob with resolve_cache_dir() (--cache-dir, then
     * RAKE_CACHE_DIR).
     */
    std::string cache_dir;

    /**
     * Path of a mined rewrite-rule table (synth/rules.h); "" disables
     * the rule-first stage. On a memory-tier and disk-tier miss the
     * table is consulted before sketch enumeration + CEGIS: a
     * structural match instantiates the rule's holes, re-checks the
     * instantiation against the reference interpreter on this query's
     * examples, and publishes into both cache tiers like any other
     * completed result. Like the deadline and cache_dir, excluded
     * from the cache fingerprint — every shipped rule is
     * verifier-proven equivalent, so where an answer comes from does
     * not change the key. CLIs resolve this knob with
     * resolve_rules_file() (--rules / --no-rules, then RAKE_RULES).
     */
    std::string rules_file;
};

/**
 * Everything a Rake run produces besides the selected code: the
 * intermediate, the Table 1 statistics and which tier answered.
 * Shared by the HVX-typed and the type-erased result below.
 */
struct RakeOutcome {
    uir::UExprPtr lifted;       ///< intermediate Uber-Instruction IR
    LiftStats lift;             ///< Table 1: lifting columns
    LowerStats lower;           ///< Table 1: sketch + swizzle columns
    ProofResult proof = ProofResult::Unknown; ///< z3 outcome if asked

    /**
     * True when this result was answered from the cross-expression
     * synthesis cache. The stage statistics above are then those of
     * the original (deterministic) synthesis, so Table 1 aggregates
     * stay bit-identical whether or not a run was cached.
     */
    bool cache_hit = false;

    /**
     * True when this result was answered from the persistent on-disk
     * tier (a prior process's completed synthesis). `lifted` is null
     * on disk hits — the UIR intermediate is not persisted.
     */
    bool disk_hit = false;

    /**
     * True when this result came from the rule-first stage: a mined,
     * verifier-proven rewrite rule matched the query and its
     * instantiation passed the per-instance example re-check. The
     * stage statistics are all zero — no CEGIS query ran. `lifted`
     * is null, like a disk hit.
     */
    bool rule_hit = false;

    /**
     * Matching rule instantiations rejected by the per-instance
     * example re-check (or the z3 proof) before this result was
     * produced (whether it then came from another rule or fell
     * through to synthesis).
     */
    int rule_rejects = 0;

    SynthStatus status = SynthStatus::Ok;

    /**
     * True when the deadline expired and `instr` is the backend's
     * greedy program rather than a synthesized one. The stage
     * statistics are all zero; degraded results are never stored in
     * either cache tier.
     */
    bool degraded = false;
};

/** A Rake run plus its selected implementation. */
template <typename InstrPtr> struct BasicRakeResult : RakeOutcome {
    InstrPtr instr; ///< selected implementation
};

/** The HVX-typed result of select_instructions(). */
using RakeResult = BasicRakeResult<hvx::InstrPtr>;

/**
 * The result of select_instructions_for(): the implementation is
 * type-erased behind the backend's instruction handle.
 */
using BackendRakeResult = BasicRakeResult<backend::InstrHandle>;

/**
 * Instruction selection through an explicit target backend — the one
 * selection ladder. On the way down: the in-memory cache, the
 * on-disk cache, the rule-first stage, then synthesis proper (lift
 * with the shared stage, lower through the backend's sketch grammar,
 * swizzle repertoire and cost model, then the optional z3 proof).
 * Returns nullopt when no verified implementation exists (the caller
 * should fall back to its default selector). When opts.deadline
 * expires mid-search the call instead returns a *degraded* result:
 * status = TimedOut and TargetISA::greedy_select's program as
 * `instr`, so the pipeline always has something runnable.
 *
 * `isa` carries per-run state and must outlive the call. Each
 * backend name has its own memory table; `opts.target` is only part
 * of the options fingerprint (the backend brings its own machine
 * model). `z3_prove` proves HVX results; other backends have no lane
 * encoding and record ProofResult::Unknown.
 */
std::optional<BackendRakeResult>
select_instructions_for(const hir::ExprPtr &expr, backend::TargetISA &isa,
                        const RakeOptions &opts = {});

/**
 * The HVX-typed entry point the pipeline compiler embeds: the ladder
 * above over a fresh HVX backend for `opts.target`, with the
 * selected code recovered as an hvx::InstrPtr.
 */
std::optional<RakeResult> select_instructions(const hir::ExprPtr &expr,
                                              const RakeOptions &opts
                                              = {});

} // namespace rake::synth

#endif // RAKE_SYNTH_RAKE_H
