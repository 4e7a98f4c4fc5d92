#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "backend/target_isa.h"
#include "baseline/halide_optimizer.h"
#include "ceiling.h"
#include "fuzz/generator.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hir/simplify.h"
#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/profile.h"
#include "synth/service.h"
#include "synth/spec.h"
#include "synth/swizzle.h"

namespace perfbench {

using namespace rake;
using namespace rake::pipeline;
namespace fs = std::filesystem;

namespace {

void
put(Outcome &out, const std::string &name, double value,
    const std::string &unit)
{
    out.metrics[name] = {value, unit};
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The synth-search metrics of one set of cold searches. */
void
put_synth_metrics(const synth::SynthProfile &p, int searches,
                  int no_solution, Outcome &out)
{
    const synth::QueryStats *lift[] = {&p.lift_update, &p.lift_replace,
                                       &p.lift_extend};
    int lift_queries = 0;
    double lift_s = 0;
    for (const synth::QueryStats *q : lift) {
        lift_queries += q->queries;
        lift_s += q->seconds;
    }
    put(out, "synth.lift.queries", lift_queries, "count");
    put(out, "synth.lift.busy_ms", lift_s * 1e3, "ms");
    put(out, "synth.sketch.queries", p.sketch.queries, "count");
    put(out, "synth.sketch.busy_ms", p.sketch.seconds * 1e3, "ms");
    put(out, "synth.swizzle.queries", p.swizzle.queries, "count");
    put(out, "synth.swizzle.busy_ms", p.swizzle.seconds * 1e3, "ms");
    // Share of swizzle goals answered from the memo table.
    put(out, "synth.swizzle.memo_hit_ratio",
        ratio(p.swizzle.memo_hits, p.swizzle.memo_hits + p.swizzle.solved +
                                       p.swizzle.unsat),
        "ratio");
    put(out, "synth.verify.dedup_skip_ratio",
        ratio(p.total_dedup_skips(), p.total_queries()), "ratio");
    put(out, "synth.verify.ref_cache_hit_ratio",
        ratio(p.total_ref_cache_hits(), p.total_queries()), "ratio");
    put(out, "synth.lower.backtracks", p.backtracks, "count");
    put(out, "synth.search.no_solution_ratio", ratio(no_solution, searches),
        "ratio");
    out.counters["synth.lift.queries"] = lift_queries;
    out.counters["synth.sketch.queries"] = p.sketch.queries;
    out.counters["synth.swizzle.queries"] = p.swizzle.queries;
}

/** Mean microseconds per call of fn over `reps` rounds of `n` calls. */
template <typename Fn>
double
mean_us(int n, int reps, Fn &&fn)
{
    if (n <= 0)
        return 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
        for (int i = 0; i < n; ++i)
            fn(i);
    return seconds_since(t0) * 1e6 / (static_cast<double>(n) * reps);
}

Env
env_for(const std::map<int, Image> &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    Env env;
    for (const auto &[id, img] : inputs) {
        Buffer buf(img.elem, img.width, img.height, 0, 0);
        buf.data = img.pixels;
        env.buffers.emplace(id, std::move(buf));
    }
    for (const auto &[name, v] : scalars)
        env.scalars.emplace(name, v);
    return env;
}

std::map<int, Image>
crop_rows(const std::map<int, Image> &inputs, int rows)
{
    std::map<int, Image> out;
    for (const auto &[id, img] : inputs) {
        Image c(img.elem, img.width, std::min(rows, img.height));
        std::copy_n(img.pixels.begin(), c.pixels.size(), c.pixels.begin());
        out.emplace(id, std::move(c));
    }
    return out;
}

} // namespace

std::vector<const Benchmark *>
suite_pipelines(bool tiny)
{
    std::vector<const Benchmark *> out;
    for (const Benchmark &b : benchmark_suite())
        if (!tiny || out.size() < 2)
            out.push_back(&b);
    for (const Benchmark &b : fused_suite())
        out.push_back(&b);
    return out;
}

SuiteRun
compile_suite(const std::vector<const Benchmark *> &pipelines, int jobs)
{
    SuiteRun run;
    run.jobs = jobs;
    run.pipelines = pipelines;
    CompileOptions opts;
    opts.jobs = jobs;
    for (const Benchmark *b : pipelines) {
        synth::synthesis_cache().clear();
        Span span("pipeline::compile_benchmark");
        run.results.push_back(compile_benchmark(*b, opts));
        run.wall_s += run.results.back().wall_seconds;
    }
    return run;
}

void
suite_counters(const SuiteRun &run, Outcome &out)
{
    int64_t lift = 0, sketch = 0, swizzle = 0, base = 0, rk = 0, saved = 0;
    for (const BenchmarkResult &r : run.results) {
        lift += r.lifting_queries;
        sketch += r.sketch_queries;
        swizzle += r.swizzle_queries;
        base += r.baseline_cycles;
        rk += r.rake_cycles;
        saved += r.boundary_swizzles_saved;
    }
    out.counters["suite.lift_queries"] = lift;
    out.counters["suite.sketch_queries"] = sketch;
    out.counters["suite.swizzle_queries"] = swizzle;
    out.counters["suite.baseline_cycles"] = base;
    out.counters["suite.rake_cycles"] = rk;
    out.counters["pipeline.boundary_swizzles_saved"] = saved;
}

// ------------------------------------------------------------------
// Execution cases
// ------------------------------------------------------------------

namespace {

/**
 * Seeded input images for every buffer `expr` loads. A fused stage's
 * slots map to external buffer ids through `external`; slots missing
 * from it are intermediates another stage produces. Without a map
 * (flat expressions) every slot is an external buffer of that id.
 */
void
add_inputs(const hir::ExprPtr &expr, const std::map<int, int> *external,
           int width, int height, uint64_t seed,
           std::map<int, Image> &inputs,
           std::map<std::string, int64_t> &scalars)
{
    const synth::Spec spec = synth::Spec::from_expr(expr);
    for (const auto &[slot, elem] : spec.buffer_elem) {
        int id = slot;
        if (external) {
            const auto it = external->find(slot);
            if (it == external->end())
                continue;
            id = it->second;
        }
        if (!inputs.count(id))
            inputs.emplace(id, Image::synthetic(
                                   elem, width, height,
                                   seed * 1000003ull +
                                       static_cast<uint64_t>(id)));
    }
    for (const std::string &v : spec.vars)
        scalars.emplace(v, 1 + static_cast<int64_t>(seed % 7));
}

} // namespace

std::vector<ExecCase>
make_exec_cases(const std::vector<BenchmarkResult> &results,
                const std::vector<const Benchmark *> &pipelines,
                int width, int height, uint64_t seed)
{
    std::vector<ExecCase> cases;
    for (size_t b = 0; b < results.size(); ++b) {
        const BenchmarkResult &r = results[b];
        if (r.stages == 0) {
            for (size_t e = 0; e < r.exprs.size(); ++e) {
                const ExprCompilation &ec = r.exprs[e];
                ExecCase c;
                c.name = r.name + "/" + ec.kernel->name;
                c.bench = pipelines[b];
                c.expr = static_cast<int>(e);
                c.programs.push_back(ec.rake ? ec.rake : ec.baseline);
                add_inputs(ec.kernel->expr, nullptr, width, height, seed,
                           c.inputs, c.scalars);
                c.reference = run_tiles_reference(ec.kernel->expr, c.inputs,
                                                  c.scalars);
                cases.push_back(std::move(c));
            }
            continue;
        }
        ExecCase c;
        c.name = r.name;
        c.bench = pipelines[b];
        c.dag = from_benchmark(*pipelines[b]);
        for (size_t s = 0; s < c.dag.stages.size(); ++s) {
            const DagStage &stage = c.dag.stages[s];
            const ExprCompilation &ec = r.exprs[s];
            c.programs.push_back(ec.rake ? ec.rake : ec.baseline);
            std::map<int, int> external;
            for (const StageInput &in : stage.inputs)
                if (in.external >= 0)
                    external.emplace(in.slot, in.external);
            add_inputs(stage.expr, &external, width, height, seed, c.inputs,
                       c.scalars);
        }
        c.reference = run_dag_reference(c.dag, c.inputs, c.scalars);
        cases.push_back(std::move(c));
    }
    return cases;
}

Image
run_exec_case(const ExecCase &c)
{
    JitRunOptions fast;
    fast.validate = false;
    if (c.expr >= 0)
        return run_tiles_jit(c.programs[0], c.inputs, c.scalars, fast);
    return run_dag_jit(c.dag, c.programs, c.inputs, c.scalars, fast);
}

// ------------------------------------------------------------------
// Compile-path probes
// ------------------------------------------------------------------

void
probe_compile_layers(const SuiteRun &run, Outcome &out)
{
    synth::SynthProfile profile;
    int searches = 0, no_solution = 0;
    double expr_seconds = 0;
    int64_t saved = 0;
    for (const BenchmarkResult &r : run.results) {
        profile.merge(r.profile);
        expr_seconds += r.total_seconds;
        saved += r.boundary_swizzles_saved;
        for (const ExprCompilation &ec : r.exprs) {
            ++searches;
            no_solution += ec.rake == nullptr;
        }
    }
    put_synth_metrics(profile, searches, no_solution, out);
    put(out, "pipeline.parallel_efficiency",
        ratio(expr_seconds, run.wall_s * run.jobs), "ratio");
    put(out, "pipeline.boundary_swizzles_saved", static_cast<double>(saved),
        "count");

    // Every expression of the suite, in its own buffer space, with the
    // program shipped for it (flat pipelines only: a fused stage's
    // shipped program is negotiated against its neighbours).
    std::vector<hir::ExprPtr> exprs;
    std::vector<hvx::InstrPtr> shipped;
    std::vector<hir::ExprPtr> shipped_ref;
    for (const BenchmarkResult &r : run.results)
        for (const ExprCompilation &ec : r.exprs) {
            exprs.push_back(ec.kernel->expr);
            if (r.stages == 0) {
                shipped.push_back(ec.rake ? ec.rake : ec.baseline);
                shipped_ref.push_back(ec.kernel->expr);
            }
        }
    const int n = static_cast<int>(exprs.size());
    const hvx::Target target;
    const sim::MachineModel machine;

    {
        Span span("baseline::select_instructions");
        put(out, "baseline.select_us", mean_us(n, 3, [&](int i) {
                (void)baseline::select_instructions(exprs[i], target);
            }), "us");
    }
    {
        Span span("sim::schedule");
        const int m = static_cast<int>(shipped.size());
        put(out, "sim.schedule_us", mean_us(m, 3, [&](int i) {
                (void)sim::schedule(shipped[i], target, machine);
            }), "us");
    }
    {
        Span span("pipeline::validate_against_reference");
        const int m = static_cast<int>(shipped.size());
        put(out, "pipeline.validate_ms", mean_us(m, 1, [&](int i) {
                validate_against_reference(shipped_ref[i], shipped[i], 4,
                                           17);
            }) / 1e3, "ms");
    }
    {
        Span span("hir::simplify");
        put(out, "hir.simplify_us", mean_us(n, 5, [&](int i) {
                (void)hir::simplify(exprs[i]);
            }), "us");
    }
    {
        std::vector<std::string> texts;
        for (const hir::ExprPtr &e : exprs)
            texts.push_back(hir::to_sexpr(e));
        Span span("hir::parse_expr");
        put(out, "hir.parse_us", mean_us(n, 5, [&](int i) {
                (void)hir::parse_expr(texts[i]);
            }), "us");
    }

    // Layout negotiation over each fused pipeline's stage programs as
    // selected before negotiation (Rake's, else the baseline's): the
    // same call compile_benchmark makes.
    std::vector<std::vector<synth::StageProgram>> dags;
    for (size_t b = 0; b < run.results.size(); ++b) {
        const BenchmarkResult &r = run.results[b];
        if (r.stages == 0)
            continue;
        const PipelineDag dag = from_benchmark(*run.pipelines[b]);
        const int k = static_cast<int>(dag.stages.size());
        std::vector<int> topo_pos(k);
        for (int t = 0; t < k; ++t)
            topo_pos[dag.topo[t]] = t;
        std::vector<synth::StageProgram> sps(k);
        for (int t = 0; t < k; ++t) {
            const int i = dag.topo[t];
            const ExprCompilation &ec = r.exprs[i];
            sps[t].instr = ec.rake_result ? ec.rake_result->instr
                                          : ec.baseline;
            sps[t].iterations = dag.stages[i].iterations;
            for (const StageInput &in : dag.stages[i].inputs)
                if (in.producer >= 0)
                    sps[t].producers.emplace(in.slot, topo_pos[in.producer]);
        }
        dags.push_back(std::move(sps));
    }
    {
        Span span("synth::negotiate_layouts");
        put(out, "pipeline.negotiate_us",
            mean_us(static_cast<int>(dags.size()), 3, [&](int i) {
                (void)synth::negotiate_layouts(dags[i], target, machine);
            }), "us");
    }
}

// ------------------------------------------------------------------
// Execute-path probes
// ------------------------------------------------------------------

void
probe_exec_layers(const std::vector<ExecCase> &cases, Outcome &out)
{
    double compile_us = 0, bind_us = 0, run_s = 0, op_s = 0;
    double flat_compile_s = 0;
    std::map<const ExecCase *, double> run_by_case; ///< per-tile run time
    int64_t code_bytes = 0, flat_px = 0;
    int programs = 0, flat = 0;
    double interp_s = 0;
    int64_t interp_px = 0;
    for (const ExecCase &c : cases) {
        for (const hvx::InstrPtr &p : c.programs) {
            const auto t0 = Clock::now();
            std::unique_ptr<jit::Program> prog;
            {
                Span span("jit::Program::compile");
                prog = jit::Program::compile(p);
            }
            compile_us += seconds_since(t0) * 1e6;
            code_bytes += static_cast<int64_t>(prog->code_size());
            ++programs;
        }
        if (c.expr < 0)
            continue;
        // Flat case: split one whole-image op into compile, bind and
        // per-tile run, and time the op itself through the executor.
        ++flat;
        flat_px += c.pixels();
        const auto c0 = Clock::now();
        std::unique_ptr<jit::Program> prog = jit::Program::compile(
            c.programs[0]);
        flat_compile_s += seconds_since(c0);
        Env env = env_for(c.inputs, c.scalars);
        const int lanes = prog->out_type().lanes;
        std::vector<double> binds, runs, ops;
        for (int rep = 0; rep < 3; ++rep) {
            auto t0 = Clock::now();
            {
                Span span("jit::Program::bind");
                prog->bind(env);
            }
            binds.push_back(seconds_since(t0));
            t0 = Clock::now();
            {
                Span span("jit::Program::run");
                int64_t sink = 0;
                for (int y = 0; y < c.reference.height; ++y)
                    for (int x = 0; x < c.reference.width; x += lanes)
                        sink += prog->run(x, y)[0];
                if (sink == 42)
                    env.x = 0; // keep the loop observable
            }
            runs.push_back(seconds_since(t0));
            t0 = Clock::now();
            {
                Span span("pipeline::run_tiles_jit");
                (void)run_exec_case(c);
            }
            ops.push_back(seconds_since(t0));
        }
        bind_us += median(binds) * 1e6;
        run_s += median(runs);
        run_by_case[&c] = median(runs);
        op_s += median(ops);

        const std::map<int, Image> small = crop_rows(c.inputs, 4);
        const auto t0 = Clock::now();
        {
            Span span("pipeline::run_tiles");
            (void)run_tiles(c.programs[0], small, c.scalars);
        }
        interp_s += seconds_since(t0);
        interp_px += static_cast<int64_t>(small.begin()->second.width) *
                     small.begin()->second.height;
    }
    put(out, "jit.compile_us", ratio(compile_us, programs), "us");
    put(out, "jit.code_kib", static_cast<double>(code_bytes) / 1024.0, "KiB");
    out.counters["jit.code_bytes"] = code_bytes;
    put(out, "jit.bind_us", ratio(bind_us, flat), "us");
    put(out, "jit.run_ns_per_px", ratio(run_s * 1e9, flat_px), "ns/px");
    // Executor overhead: op time not spent in compile, bind or run.
    put(out, "pipeline.executor.overhead_ratio",
        ratio(op_s - flat_compile_s - bind_us * 1e-6 - run_s, op_s),
        "ratio");
    put(out, "exec.interp_ns_per_px", ratio(interp_s * 1e9, interp_px),
        "ns/px");

    // Host ceiling: plain -O3 C++ over the same images, bit-equal to
    // the HIR reference, beside the JIT's per-tile run on the same two
    // kernels.
    double ceil_s = 0, jit_s = 0;
    int64_t ceil_px = 0;
    for (const ExecCase &c : cases) {
        if (c.expr != 0 ||
            (c.bench->name != "sobel" && c.bench->name != "gaussian3x3"))
            continue;
        const Image &in = c.inputs.begin()->second;
        std::vector<uint8_t> src(in.pixels.begin(), in.pixels.end());
        std::vector<uint8_t> dst(src.size());
        const bool sobel = c.bench->name == "sobel";
        std::vector<double> times;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            {
                Span span("ceiling kernel");
                if (sobel)
                    ceiling_sobel3x3(src.data(), dst.data(), in.width,
                                     in.height);
                else
                    ceiling_gaussian3x3(src.data(), dst.data(), in.width,
                                        in.height);
            }
            times.push_back(seconds_since(t0));
        }
        for (size_t i = 0; i < dst.size(); ++i)
            if (dst[i] != c.reference.pixels[i]) {
                out.fail(1, "ceiling " + c.bench->name +
                                " differs from the HIR reference at pixel " +
                                std::to_string(i));
                break;
            }
        ceil_s += median(times);
        jit_s += run_by_case.at(&c);
        ceil_px += c.pixels();
    }
    put(out, "exec.ceiling_ns_per_px", ratio(ceil_s * 1e9, ceil_px), "ns/px");
    put(out, "jit.ceiling_kernels_ns_per_px", ratio(jit_s * 1e9, ceil_px),
        "ns/px");
}

// ------------------------------------------------------------------
// Serve-path probes
// ------------------------------------------------------------------

namespace {

/** One program of the serve probe's request pool. */
struct PoolProgram {
    std::string backend; ///< "hvx" or "neon"
    std::string sexpr;   ///< HIR s-expression
};

/**
 * "hvx" and "neon" backend factories whose targets outlive every
 * backend they create. serve::default_backend_registry() binds each
 * backend's target reference to a temporary, so every query through it
 * reads a dangling reference; the probe hands this registry to the
 * server and the service instead.
 */
const std::map<std::string, synth::BackendFactory> &
backend_registry()
{
    static const hvx::Target hvx_target;
    static const neon::Target neon_target;
    static const std::map<std::string, synth::BackendFactory> registry = {
        {"hvx", [] { return backend::make_hvx_backend(hvx_target); }},
        {"neon", [] { return backend::make_neon_backend(neon_target); }},
    };
    return registry;
}

std::unique_ptr<backend::TargetISA>
make_isa(const std::string &backend)
{
    return backend_registry().at(backend)();
}

void
clear_caches()
{
    synth::synthesis_cache().clear();
    synth::backend_synthesis_cache("hvx").clear();
    synth::backend_synthesis_cache("neon").clear();
}

/**
 * Pool of default-option fuzz::Generator programs from one fixed
 * stream, alternately bound to hvx and neon. Every seed asks for the
 * same synthesis work; the seed shapes the request stream over it.
 */
std::vector<PoolProgram>
make_pool(int programs)
{
    const fuzz::Generator gen;
    std::vector<PoolProgram> pool;
    for (int i = 0; i < programs; ++i) {
        PoolProgram p;
        p.backend = i % 2 ? "neon" : "hvx";
        p.sexpr = hir::to_sexpr(gen.generate(fuzz::program_seed(0x5eed, i)));
        pool.push_back(std::move(p));
    }
    return pool;
}

/**
 * Zipf(0.9) request stream over a seeded popularity ranking of
 * `programs`, in seeded order.
 */
std::vector<int>
make_requests(uint64_t seed, int programs, int count)
{
    // Popularity rank -> program is a seeded permutation, so the hot
    // programs differ from seed to seed.
    Rng rng(seed ^ 0x5a17f00dull);
    std::vector<int> by_rank(programs);
    for (int i = 0; i < programs; ++i)
        by_rank[i] = i;
    for (int i = programs; i > 1; --i)
        std::swap(by_rank[i - 1], by_rank[rng.range(0, i - 1)]);
    std::vector<double> cdf(programs);
    double total = 0;
    for (int k = 0; k < programs; ++k) {
        total += 1.0 / std::pow(k + 1.0, 0.9);
        cdf[k] = total;
    }
    std::vector<int> requests(count);
    for (int i = 0; i < count; ++i) {
        const double u =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
        const int rank = static_cast<int>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        requests[i] = by_rank[std::min(rank, programs - 1)];
    }
    return requests;
}

} // namespace

void
probe_serve_layers(const Args &args, Outcome &out)
{
    const int programs = args.tiny ? 40 : 300;
    const std::vector<PoolProgram> pool = make_pool(programs);
    const std::vector<int> requests =
        make_requests(args.seed, programs, programs * 10);
    const std::string dir = args.out_dir + "/layers";
    const int jobs = resolve_workers(args);
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Cold selection of every requested program, one backend at a time
    // through the generic ladder with the memory tier off.
    std::vector<int> distinct(requests);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    synth::RakeOptions cold;
    cold.use_cache = false;
    std::map<std::string, std::pair<double, int>> select_ms;
    std::vector<std::optional<synth::BackendRakeResult>> solved(pool.size());
    clear_caches();
    for (int p : distinct) {
        const hir::ExprPtr expr = hir::parse_expr(pool[p].sexpr);
        const std::unique_ptr<backend::TargetISA> isa =
            make_isa(pool[p].backend);
        const auto t0 = Clock::now();
        {
            Span span("synth::select_instructions_for");
            solved[p] = synth::select_instructions_for(expr, *isa, cold);
        }
        auto &[ms, count] = select_ms[pool[p].backend];
        ms += ms_since(t0);
        ++count;
    }
    for (const char *b : {"hvx", "neon"}) {
        const auto &[ms, count] = select_ms[b];
        put(out, std::string("backend.") + b + ".select_ms",
            ratio(ms, count), "ms");
    }

    // Persistent store: publish a seeded third of the solutions into
    // the live server's cache directory, then read them back.
    const std::string live_dir = dir + "/live";
    synth::PersistentStore store(live_dir);
    const uint64_t fp = synth::options_fingerprint(synth::RakeOptions{});
    Rng rng(0x9e5157ull);
    int stored = 0;
    double store_ms = 0, load_us = 0;
    for (int p : distinct) {
        if (!solved[p] || rng.range(0, 2) != 0)
            continue;
        const hir::ExprPtr norm =
            hir::simplify(hir::parse_expr(pool[p].sexpr));
        const std::unique_ptr<backend::TargetISA> isa =
            make_isa(pool[p].backend);
        auto t0 = Clock::now();
        {
            Span span("PersistentStore::store_backend");
            store.store_backend(norm, fp, *isa, solved[p]);
        }
        store_ms += ms_since(t0);
        t0 = Clock::now();
        {
            Span span("PersistentStore::load_backend");
            (void)store.load_backend(norm, fp, *isa);
        }
        load_us += seconds_since(t0) * 1e6;
        ++stored;
    }
    put(out, "synth.persist.store_ms", ratio(store_ms, stored), "ms");
    put(out, "synth.persist.load_us", ratio(load_us, stored), "us");

    // Wire codec: request and response encode + parse per request.
    std::vector<std::string> answers(pool.size());
    for (int p : distinct)
        if (solved[p])
            answers[p] = make_isa(pool[p].backend)->instr_to_sexpr(
                solved[p]->instr);
    {
        Span span("serve::encode/parse");
        put(out, "serve.codec_us",
            mean_us(static_cast<int>(requests.size()), 1, [&](int i) {
                const PoolProgram &p = pool[requests[i]];
                serve::Request rq;
                rq.op = serve::Op::Select;
                rq.id = i + 1;
                rq.backend = p.backend;
                rq.expr = p.sexpr;
                (void)serve::parse_request(serve::encode_request(rq));
                serve::Response rs;
                rs.id = i + 1;
                rs.tier = "memory";
                rs.instr = answers[requests[i]];
                (void)serve::parse_response(serve::encode_response(rs));
            }), "us");
    }

    // In-process replay of the stream through SelectService.
    clear_caches();
    std::vector<double> memory_hit_us;
    {
        synth::ServiceConfig config;
        config.backends = backend_registry();
        synth::SelectService service(config);
        for (int p : requests) {
            synth::ServiceRequest rq;
            rq.backend = pool[p].backend;
            rq.expr = pool[p].sexpr;
            const auto t0 = Clock::now();
            synth::ServiceReply reply;
            {
                Span span("SelectService::select");
                reply = service.select(rq);
            }
            if (reply.tier == "memory")
                memory_hit_us.push_back(seconds_since(t0) * 1e6);
        }
        const synth::ServiceMetrics m = service.metrics();
        put(out, "synth.cache.hit_ratio",
            ratio(m.memory_hits, m.requests), "ratio");
        // One thread replays the stream, so its tier counts repeat.
        out.counters["serve.replay.memory_hits"] = m.memory_hits;
        out.counters["serve.replay.cegis_runs"] = m.cegis_runs;
        out.counters["serve.replay.no_solution"] = m.no_solution;
    }
    put(out, "synth.cache.lookup_us",
        memory_hit_us.empty() ? 0 : median(memory_hit_us), "us");

    // Live server over the third-populated directory: nproc clients,
    // one request outstanding each.
    clear_caches();
    std::vector<double> client_memory_us;
    std::mutex mu;
    std::atomic<int> next{0};
    std::atomic<int64_t> client_errors{0};
    serve::ServeOptions so;
    so.socket_path = dir + "/probe.sock";
    so.jobs = jobs;
    so.rake.cache_dir = live_dir;
    so.backends = backend_registry();
    serve::Server server(so);
    std::vector<std::thread> clients;
    for (int c = 0; c < jobs; ++c)
        clients.emplace_back([&] {
            try {
                serve::ClientOptions co;
                co.socket_path = server.socket_path();
                co.degrade_locally = false;
                serve::RemoteSelect client(co);
                std::vector<double> mine;
                for (int i; (i = next.fetch_add(1)) <
                            static_cast<int>(requests.size());) {
                    const PoolProgram &p = pool[requests[i]];
                    const auto t0 = Clock::now();
                    serve::Response rs;
                    {
                        Span span("serve::RemoteSelect::select");
                        rs = client.select(p.backend, p.sexpr);
                    }
                    if (rs.tier == "memory")
                        mine.push_back(seconds_since(t0) * 1e6);
                    if (rs.status != "ok" && rs.status != "no_solution")
                        ++client_errors;
                }
                std::lock_guard<std::mutex> lock(mu);
                client_memory_us.insert(client_memory_us.end(), mine.begin(),
                                        mine.end());
            } catch (const std::exception &) {
                ++client_errors;
            }
        });
    for (std::thread &t : clients)
        t.join();
    const synth::ServiceMetrics m = server.service().metrics();
    server.stop();
    synth::CacheStats disk;
    for (const char *b : {"hvx", "neon"}) {
        const synth::CacheStats s = synth::backend_synthesis_cache(b).stats();
        disk.misses += s.misses;
        disk.disk_hits += s.disk_hits;
        disk.disk_invalid += s.disk_invalid;
    }
    put(out, "synth.cache.inflight_dedup",
        static_cast<double>(m.inflight_dedup), "count");
    put(out, "synth.persist.hit_ratio", ratio(disk.disk_hits, disk.misses),
        "ratio");
    put(out, "synth.persist.invalid", static_cast<double>(disk.disk_invalid),
        "count");
    put(out, "serve.shed", static_cast<double>(m.overloaded), "count");
    put(out, "serve.errors",
        static_cast<double>(m.errors + client_errors.load()), "count");
    put(out, "serve.transport_us_p50",
        client_memory_us.empty() || memory_hit_us.empty()
            ? 0
            : median(client_memory_us) - median(memory_hit_us),
        "us");
    fs::remove_all(dir);
}

} // namespace perfbench
