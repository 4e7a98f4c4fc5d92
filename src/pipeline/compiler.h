/**
 * @file
 * End-to-end compilation driver (paper Fig. 1).
 *
 * A Benchmark is a set of vectorized Halide-IR expressions (the
 * "qualifying vector expressions" Rake extracts from the lowered
 * Halide program) plus loop trip counts. The driver compiles each
 * expression twice — through the pattern-matching baseline and
 * through Rake — functionally validates both against the HIR
 * interpreter, schedules both on the VLIW machine model, and reports
 * cycles, speedups and per-stage synthesis statistics (Fig. 11 /
 * Table 1).
 */
#ifndef RAKE_PIPELINE_COMPILER_H
#define RAKE_PIPELINE_COMPILER_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baseline/halide_optimizer.h"
#include "sim/simulator.h"
#include "synth/profile.h"
#include "synth/rake.h"

namespace rake::pipeline {

/** One vectorized expression extracted from a kernel's inner loop. */
struct KernelExpr {
    std::string name;     ///< human label (e.g. "row-conv")
    hir::ExprPtr expr;    ///< the lowered vector expression
    int64_t iterations = 4096; ///< inner-loop trips over the image

    /**
     * Stage-boundary edges: buffer id read by this expression →
     * name of the KernelExpr (in the same Benchmark) that produces
     * it. Buffers not listed here are external pipeline inputs.
     * Empty for single-stage kernels, in which case the benchmark
     * compiles as a degenerate one-node-per-expression DAG and stays
     * bit-identical to the legacy flat path.
     */
    std::map<int, std::string> deps = {};
};

/** A benchmark: a named set of kernel expressions. */
struct Benchmark {
    std::string name;
    std::string category; ///< paper §7 grouping
    std::vector<KernelExpr> exprs;
};

/** Per-expression compilation artifacts. */
struct ExprCompilation {
    const KernelExpr *kernel = nullptr;
    hvx::InstrPtr baseline;
    hvx::InstrPtr rake;            ///< null when Rake fell back
    std::optional<synth::RakeResult> rake_result;
    sim::ScheduleStats baseline_sched;
    sim::ScheduleStats rake_sched;
    double seconds = 0.0; ///< this expression's compile time (its own
                          ///< clock, so the sum is job-count-invariant)
};

/** Whole-benchmark outcome. */
struct BenchmarkResult {
    std::string name;
    std::vector<ExprCompilation> exprs;
    int64_t baseline_cycles = 0;
    int64_t rake_cycles = 0;
    double speedup = 0.0;

    // Aggregated Table 1 statistics.
    int optimized_exprs = 0;
    int lifting_queries = 0;
    int sketch_queries = 0;
    int swizzle_queries = 0;
    double lifting_seconds = 0.0;
    double sketch_seconds = 0.0;
    double swizzle_seconds = 0.0;

    /**
     * Sum of per-expression compile seconds — the Table 1 notion of
     * synthesis effort, independent of how many workers ran.
     */
    double total_seconds = 0.0;

    /** Wall-clock of the whole benchmark (drops as jobs increase). */
    double wall_seconds = 0.0;

    // Cross-expression synthesis cache effectiveness (delta of the
    // process-wide counters over this benchmark's compilation).
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;

    // Persistent (on-disk) tier deltas; all zero unless
    // CompileOptions::rake.cache_dir points at a cache directory, and
    // reported/serialized only when nonzero.
    int64_t disk_hits = 0;
    int64_t disk_writes = 0;
    int64_t disk_invalid = 0;

    // Equivalence-checking fast-path effectiveness (see DESIGN.md).
    int dedup_skips = 0;
    int ref_cache_hits = 0;
    int swizzle_memo_hits = 0;

    // Deadline outcomes (DESIGN.md "Deadlines & degradation"). Both
    // stay 0 when no timeout is configured, and the report/JSON emit
    // them only when nonzero, keeping no-deadline output bit-identical.
    int timeouts = 0; ///< expressions whose synthesis hit the deadline
    int degraded = 0; ///< expressions that shipped the greedy fallback

    // Whole-pipeline selection (DESIGN.md "Whole-pipeline selection").
    // `stages` and `boundary_swizzles` are reported whenever the
    // benchmark's DAG has at least one stage-boundary edge (even when
    // zero swizzles remain); the rest only when nonzero. Flat
    // benchmarks report none of them, keeping legacy output
    // bit-identical.
    int stages = 0;             ///< DAG nodes (0 for flat benchmarks)
    int boundary_swizzles = 0;  ///< permutes left on stage boundaries
    int boundary_swizzles_saved = 0; ///< removed by layout negotiation
    int64_t hashcons_hits = 0;  ///< shared HIR subtrees deduplicated
    int64_t dag_cycles = 0;     ///< whole-DAG concatenated schedule

    /** Per-stage/per-rule rollup behind the `--profile` breakdown. */
    synth::SynthProfile profile;

    /**
     * Canonical s-expressions of Rake's selections, in suite order —
     * the payload of the drivers' `--selections` bit-identity dumps.
     * The HVX path extracts them from `exprs`; backend drivers (whose
     * results are type-erased) fill this directly instead.
     */
    std::vector<std::string> selections;
};

/** Driver configuration. */
struct CompileOptions {
    synth::RakeOptions rake;
    baseline::BaselineOptions baseline;
    sim::MachineModel machine;
    bool validate = true; ///< cross-check both codegens vs HIR
    int validate_trials = 4;

    /**
     * Threads compiling the benchmark's expressions concurrently: the
     * caller and up to jobs - 1 claim helpers, at most one per usable
     * CPU. 0 = take the RAKE_JOBS environment variable (default 1).
     * Results and statistics are identical for every job count; only
     * wall_seconds changes.
     */
    int jobs = 0;

    /**
     * Per-expression synthesis budget in milliseconds (0 = none).
     * An expression whose budget expires ships the greedy baseline's
     * program, marked degraded. Resolved against RAKE_TIMEOUT_MS by
     * the CLI layer, not here.
     */
    int timeout_ms = 0;

    /**
     * Whole-benchmark budget in milliseconds (0 = none): one clock
     * armed at compile_benchmark() entry that every expression's
     * deadline also observes, so a pathological suite degrades
     * instead of overrunning. Resolved against RAKE_RUN_TIMEOUT_MS by
     * the CLI layer.
     */
    int run_timeout_ms = 0;
};

/** Compile, validate, and simulate one benchmark. */
BenchmarkResult compile_benchmark(const Benchmark &bench,
                                  const CompileOptions &opts = {});

/**
 * Functional cross-check of an HVX implementation against the HIR
 * reference on the example pool's deterministic corner patterns plus
 * `trials` randomized environments. Throws InternalError on mismatch.
 */
void validate_against_reference(const hir::ExprPtr &ref,
                                const hvx::InstrPtr &impl, int trials,
                                uint64_t seed);

} // namespace rake::pipeline

#endif // RAKE_PIPELINE_COMPILER_H
