/**
 * @file
 * execute_jit: the selections of suite_compile (Rake's, or the
 * baseline's where Rake declined) run natively over seeded synthetic
 * images, one whole image per op: run_tiles_jit for a flat expression,
 * run_dag_jit for a fused pipeline, per-tile validation off, JIT
 * compile inside the op. CEGIS runs only in setup. Every output image
 * is compared with the HIR-reference image computed in setup.
 */
#include <exception>

#include "layers.h"
#include "pipeline/report.h"

namespace perfbench {

namespace {

using namespace rake;
using namespace rake::pipeline;

class ExecuteJit : public Workload
{
  public:
    explicit ExecuteJit(const Args &args) : args_(args) {}

    void
    setup() override
    {
        pipelines_ = suite_pipelines(args_.tiny);
        suite_ = compile_suite(pipelines_, resolve_workers(args_));
        const int width = args_.tiny ? 256 : 1024;
        const int height = args_.tiny ? 16 : 256;
        cases_ = make_exec_cases(suite_.results, pipelines_, width, height,
                                 args_.seed);
        PassLog warmup;
        pass(warmup);
        if (warmup.failed > 0)
            throw std::runtime_error("execute_jit warm-up pass failed: " +
                                     mismatches_.front());
    }

    void
    pass(PassLog &log) override
    {
        const auto t0 = Clock::now();
        for (const ExecCase &c : cases_) {
            ++log.attempted;
            const auto op0 = Clock::now();
            try {
                Image out;
                {
                    Span span(c.expr >= 0 ? "pipeline::run_tiles_jit"
                                          : "pipeline::run_dag_jit");
                    out = run_exec_case(c);
                }
                log.latency_ms.push_back(ms_since(op0));
                if (out.pixels != c.reference.pixels) {
                    ++log.failed;
                    mismatches_.push_back(c.name);
                }
            } catch (const std::exception &e) {
                ++log.failed;
                mismatches_.push_back(c.name + ": " + e.what());
            }
        }
        log.seconds = seconds_since(t0);
    }

    void
    finish(Outcome &out) override
    {
        for (const std::string &m : mismatches_)
            out.fail(0, "execute_jit: " + m +
                            " differs from the HIR reference image");
        std::vector<double> speedups;
        for (const BenchmarkResult &r : suite_.results)
            speedups.push_back(r.speedup);
        out.metrics["modeled_speedup_geomean"] = {geomean(speedups), "x"};
        suite_counters(suite_, out);
        int64_t pixels = 0;
        for (const ExecCase &c : cases_)
            pixels += c.pixels();
        out.counters["execute.pixels_per_pass"] = pixels;
    }

    void
    layers(Outcome &out) override
    {
        probe_compile_layers(suite_, out);
        probe_exec_layers(cases_, out);
        probe_serve_layers(args_, out);
    }

  private:
    Args args_;
    std::vector<const Benchmark *> pipelines_;
    SuiteRun suite_;
    std::vector<ExecCase> cases_;
    std::vector<std::string> mismatches_;
};

} // namespace

std::unique_ptr<Workload>
make_execute_jit(const Args &args)
{
    return std::make_unique<ExecuteJit>(args);
}

} // namespace perfbench
