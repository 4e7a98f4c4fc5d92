/**
 * @file
 * suite_compile: the 21 Table 1 kernels and the 4 fused pipelines,
 * compiled cold on HVX one pipeline at a time (one op = one
 * compile_benchmark call, validation on). The memory cache is cleared
 * before every op, so no op reuses another's synthesis and an op's
 * cost does not depend on the order; there is no disk tier and no rule
 * table, so CEGIS, the baseline, the simulator and layout negotiation
 * do all the work. The seed fixes the order pipelines compile in.
 */
#include <algorithm>
#include <exception>

#include "hvx/sexpr.h"
#include "layers.h"
#include "pipeline/report.h"
#include "support/rng.h"
#include "synth/cache.h"

namespace perfbench {

namespace {

using namespace rake;
using namespace rake::pipeline;

/** What a pass must reproduce exactly: selections and modeled cycles. */
struct Fingerprint {
    std::vector<std::string> selections;
    int64_t baseline_cycles = 0;
    int64_t rake_cycles = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprint(const BenchmarkResult &r)
{
    Fingerprint f;
    for (const ExprCompilation &ec : r.exprs)
        f.selections.push_back(ec.rake ? hvx::to_sexpr(ec.rake) : "-");
    f.baseline_cycles = r.baseline_cycles;
    f.rake_cycles = r.rake_cycles;
    return f;
}

class SuiteCompile : public Workload
{
  public:
    explicit SuiteCompile(const Args &args) : args_(args) {}

    void
    setup() override
    {
        pipelines_ = suite_pipelines(args_.tiny);
        Rng rng(args_.seed);
        for (size_t i = pipelines_.size(); i > 1; --i)
            std::swap(pipelines_[i - 1],
                      pipelines_[rng.range(0, static_cast<int64_t>(i) - 1)]);
        warm_ = compile_suite(pipelines_, resolve_workers(args_));
        for (const BenchmarkResult &r : warm_.results) {
            if (r.degraded > 0 || r.timeouts > 0)
                throw std::runtime_error("warm-up compile of " + r.name +
                                         " degraded");
            reference_.push_back(fingerprint(r));
        }
    }

    void
    pass(PassLog &log) override
    {
        CompileOptions opts;
        opts.jobs = resolve_workers(args_);
        const auto t0 = Clock::now();
        for (size_t i = 0; i < pipelines_.size(); ++i) {
            synth::synthesis_cache().clear();
            const auto op0 = Clock::now();
            ++log.attempted;
            try {
                BenchmarkResult r;
                {
                    Span span("pipeline::compile_benchmark");
                    r = compile_benchmark(*pipelines_[i], opts);
                }
                log.latency_ms.push_back(ms_since(op0));
                if (r.degraded > 0 || r.timeouts > 0 ||
                    !(fingerprint(r) == reference_[i])) {
                    ++log.failed;
                    mismatches_.push_back(r.name);
                }
            } catch (const std::exception &e) {
                ++log.failed;
                mismatches_.push_back(pipelines_[i]->name + ": " +
                                      e.what());
            }
        }
        log.seconds = seconds_since(t0);
    }

    void
    finish(Outcome &out) override
    {
        for (const std::string &m : mismatches_)
            out.fail(0, "suite_compile: " + m +
                            " differs from the warm-up pass");
        std::vector<double> speedups;
        for (const BenchmarkResult &r : warm_.results)
            speedups.push_back(r.speedup);
        out.metrics["modeled_speedup_geomean"] = {geomean(speedups), "x"};
        suite_counters(warm_, out);
    }

    void
    layers(Outcome &out) override
    {
        probe_compile_layers(warm_, out);
        const std::vector<ExecCase> cases = make_exec_cases(
            warm_.results, pipelines_, 256, 64, args_.seed);
        probe_exec_layers(cases, out);
        probe_serve_layers(args_, out);
    }

  private:
    Args args_;
    std::vector<const Benchmark *> pipelines_;
    SuiteRun warm_;
    std::vector<Fingerprint> reference_;
    std::vector<std::string> mismatches_;
};

} // namespace

std::unique_ptr<Workload>
make_suite_compile(const Args &args)
{
    return std::make_unique<SuiteCompile>(args);
}

} // namespace perfbench
