/**
 * @file
 * The traced run's per-layer probes. Each probe calls one layer's
 * public entry directly, on the inputs of the workload being traced,
 * and adds that layer's per-layer metrics to the outcome. Every traced
 * run emits every per-layer metric: a layer the workload bypasses is
 * probed on inputs made from the same seed at a reduced size (the
 * serve path, which neither workload drives, on a seeded request pool
 * over fuzz::Generator programs).
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "pipeline/compiler.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"

namespace perfbench {

/**
 * Every pipeline `suite_compile` compiles: Table 1 then the fused DAGs
 * (with `tiny`, only the first two of Table 1).
 */
std::vector<const rake::pipeline::Benchmark *> suite_pipelines(bool tiny);

/** One cold compile of the suite (memory cache cleared per pipeline). */
struct SuiteRun {
    std::vector<rake::pipeline::BenchmarkResult> results;
    std::vector<const rake::pipeline::Benchmark *> pipelines;
    double wall_s = 0; ///< sum of the pipelines' compile wall times
    int jobs = 1;
};

SuiteRun compile_suite(const std::vector<const rake::pipeline::Benchmark *>
                           &pipelines,
                       int jobs);

/** Deterministic counts of a suite compile (queries, cycles, swizzles). */
void suite_counters(const SuiteRun &run, Outcome &out);

/** One selected program of the suite, ready to run over whole images. */
struct ExecCase {
    std::string name;
    const rake::pipeline::Benchmark *bench = nullptr;
    int expr = -1; ///< expression index, or -1 for a whole fused DAG
    rake::pipeline::PipelineDag dag; ///< fused cases only
    std::vector<rake::hvx::InstrPtr> programs; ///< one, or one per stage
    std::map<int, rake::pipeline::Image> inputs;
    std::map<std::string, int64_t> scalars;
    rake::pipeline::Image reference;
    int64_t pixels() const
    {
        return static_cast<int64_t>(reference.width) * reference.height;
    }
};

/** Execution cases of a compiled suite over seeded w x h images. */
std::vector<ExecCase>
make_exec_cases(const std::vector<rake::pipeline::BenchmarkResult> &results,
                const std::vector<const rake::pipeline::Benchmark *>
                    &pipelines,
                int width, int height, uint64_t seed);

/** Run one case natively (compile, bind, run inside). */
rake::pipeline::Image run_exec_case(const ExecCase &c);

/** Per-layer metrics of the compile path (synth, baseline, sim, hir...). */
void probe_compile_layers(const SuiteRun &run, Outcome &out);

/** Per-layer metrics of the execute path (jit, executor, ceiling). */
void probe_exec_layers(const std::vector<ExecCase> &cases, Outcome &out);

/**
 * Per-layer metrics of the serve path (service, tiers, codec, NEON):
 * cold selection of every requested program, direct persistent-store
 * calls, an in-process replay and a live server, over a seeded Zipf(0.9)
 * request stream of 10 requests per program on a fixed pool of
 * fuzz::Generator programs, all under the output directory.
 */
void probe_serve_layers(const Args &args, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
