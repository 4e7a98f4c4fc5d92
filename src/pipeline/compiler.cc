#include "pipeline/compiler.h"

#include <algorithm>
#include <chrono>

#include "hir/analysis.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "sim/linearize.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "synth/cache.h"
#include "synth/swizzle.h"

namespace rake::pipeline {

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** Element type stage `expr` loads from buffer/slot `buffer`. */
ScalarType
slot_elem(const hir::ExprPtr &expr, int buffer)
{
    if (expr->op() == hir::Op::Load &&
        expr->load_ref().buffer == buffer)
        return expr->type().elem;
    for (const hir::ExprPtr &a : expr->args()) {
        for (const hir::LoadRef &l : hir::collect_loads(a))
            if (l.buffer == buffer)
                return slot_elem(a, buffer);
    }
    RAKE_UNREACHABLE("slot " << buffer << " has no load");
}

/**
 * End-to-end image check of the negotiated stage programs: the DAG
 * executor over the final (possibly re-laid-out) programs must equal
 * composing the stages' HIR interpreters. Per-stage validation runs
 * before negotiation; this is the only check that sees the boundary
 * permutes, whose effects must cancel across each edge.
 */
void
validate_dag_programs(const PipelineDag &dag,
                      const std::vector<hvx::InstrPtr> &programs)
{
    int lanes = 1;
    std::map<std::string, int64_t> scalars;
    for (const DagStage &stage : dag.stages) {
        lanes = std::max(lanes, stage.expr->type().lanes);
        for (const std::string &v : hir::collect_vars(stage.expr))
            scalars.emplace(v, 5);
    }

    std::map<int, Image> inputs;
    uint64_t seed = 1;
    for (const DagStage &stage : dag.stages)
        for (const StageInput &in : stage.inputs) {
            if (in.external < 0 || inputs.count(in.external))
                continue;
            inputs.emplace(
                in.external,
                Image::synthetic(slot_elem(stage.expr, in.slot), lanes,
                                 4, seed++));
        }

    const Image expected = run_dag_reference(dag, inputs, scalars);
    const Image actual = run_dag(dag, programs, inputs, scalars);
    RAKE_CHECK(count_mismatches(expected, actual) == 0,
               "pipeline '" << dag.name
                            << "': DAG executor disagrees with the "
                               "composed HIR reference");
}

} // namespace

void
validate_against_reference(const hir::ExprPtr &ref,
                           const hvx::InstrPtr &impl, int trials,
                           uint64_t seed)
{
    synth::Spec spec = synth::Spec::from_expr(ref);
    synth::ExamplePool pool(spec, seed);
    const int n = trials + synth::ExamplePool::kCornerExamples;
    for (int i = 0; i < n; ++i) {
        const Env &env = pool.at(i);
        const Value expected = hir::evaluate(ref, env);
        const Value actual = hvx::evaluate(impl, env);
        RAKE_CHECK(expected == actual,
                   "generated code disagrees with the reference on "
                   "example "
                       << i << ": expected " << to_string(expected)
                       << ", got " << to_string(actual));
    }
}

BenchmarkResult
compile_benchmark(const Benchmark &bench, const CompileOptions &opts)
{
    BenchmarkResult result;
    result.name = bench.name;
    result.optimized_exprs = static_cast<int>(bench.exprs.size());

    // Lower to the pipeline DAG first: this validates stage deps and,
    // for multi-stage benchmarks, moves each stage into slot space and
    // hash-conses shared subtrees. Flat benchmarks come back with
    // their expressions pointer-identical, so the legacy path below is
    // exactly the degenerate one-node-per-expression DAG.
    const PipelineDag dag = from_benchmark(bench);

    const synth::CacheStats cache_before =
        synth::synthesis_cache().stats();
    const double t0 = now_seconds();
    const int n = static_cast<int>(bench.exprs.size());
    const int jobs = resolve_jobs(opts.jobs);

    // The whole-run budget is one clock shared by every expression;
    // per-expression budgets are armed at task start so a queued task
    // gets its full allowance no matter when a worker picks it up.
    const Deadline run_deadline = opts.run_timeout_ms > 0
                                      ? Deadline::after_ms(
                                            opts.run_timeout_ms)
                                      : Deadline();

    // Phase 1 (concurrent): every expression's baseline selection,
    // Rake synthesis, validation, and scheduling are independent of
    // the others — per-expression Verifier / ExamplePool /
    // SwizzleSolver state is local to the call, and the only shared
    // structure is the mutex-guarded synthesis cache. The calling
    // thread and up to jobs - 1 claim helpers take expressions one at
    // a time, each writing its own slot.
    std::vector<ExprCompilation> compiled(n);
    const auto compile_expr = [&](int i) {
        const KernelExpr &kernel = bench.exprs[i];
        // The stage's (possibly slot-space, hash-consed) expression;
        // pointer-identical to kernel.expr for flat benchmarks.
        const hir::ExprPtr &expr = dag.stages[i].expr;
        const double e0 = now_seconds();
        ExprCompilation ec;
        ec.kernel = &kernel;

        // Baseline (Halide's pattern-matching selector).
        ec.baseline = baseline::select_instructions(
            expr, opts.rake.target, opts.baseline);

        // Rake (three-stage synthesis). Falls back to the baseline's
        // code when synthesis cannot produce a verified result.
        synth::RakeOptions ropts = opts.rake;
        if (opts.timeout_ms > 0)
            ropts.deadline = ropts.deadline.sooner(
                Deadline::after_ms(opts.timeout_ms));
        ropts.deadline = ropts.deadline.sooner(run_deadline);
        auto rk = synth::select_instructions(expr, ropts);
        if (rk) {
            ec.rake = rk->instr;
            ec.rake_result = *rk;
        }

        if (opts.validate) {
            validate_against_reference(expr, ec.baseline,
                                       opts.validate_trials, 17);
            if (ec.rake)
                validate_against_reference(expr, ec.rake,
                                           opts.validate_trials, 17);
        }

        ec.baseline_sched = sim::schedule(ec.baseline, opts.rake.target,
                                          opts.machine);
        const hvx::InstrPtr rake_code = ec.rake ? ec.rake : ec.baseline;
        ec.rake_sched =
            sim::schedule(rake_code, opts.rake.target, opts.machine);
        ec.seconds = now_seconds() - e0;
        compiled[i] = std::move(ec);
    };
    parallel_claims(n, jobs, [&] { return compile_expr; });

    // Cross-stage layout negotiation (multi-stage benchmarks only):
    // pick one stored layout per producer edge by measured cycles,
    // emitting the surviving boundary permutes as real instructions.
    // This is the measured replacement for the old modeled
    // boundary-penalty fee.
    if (dag.has_edges()) {
        result.stages = n;
        result.hashcons_hits = dag.hashcons_hits;

        std::vector<int> topo_pos(n);
        for (int t = 0; t < n; ++t)
            topo_pos[dag.topo[t]] = t;

        std::vector<synth::StageProgram> sps(n);
        for (int t = 0; t < n; ++t) {
            const int i = dag.topo[t];
            const ExprCompilation &ec = compiled[i];
            sps[t].instr = ec.rake ? ec.rake : ec.baseline;
            sps[t].iterations = bench.exprs[i].iterations;
            for (const StageInput &in : dag.stages[i].inputs)
                if (in.producer >= 0)
                    sps[t].producers.emplace(in.slot,
                                             topo_pos[in.producer]);
        }
        const synth::NegotiationResult neg = synth::negotiate_layouts(
            sps, opts.rake.target, opts.machine);
        result.boundary_swizzles = neg.boundary_swizzles;
        result.boundary_swizzles_saved = neg.boundary_swizzles_saved;
        result.profile.stages = n;
        result.profile.boundary_swizzles = neg.boundary_swizzles;
        result.profile.hashcons_hits = dag.hashcons_hits;

        std::vector<hvx::InstrPtr> final_programs(n);
        for (int t = 0; t < n; ++t) {
            const int i = dag.topo[t];
            ExprCompilation &ec = compiled[i];
            final_programs[i] = neg.programs[t];
            if (ec.rake)
                ec.rake = neg.programs[t];
            ec.rake_sched = sim::schedule(neg.programs[t],
                                          opts.rake.target, opts.machine);
        }

        // Whole-DAG fused schedule: stage programs concatenated in
        // topo order, intermediate buffers given whole-DAG ids so
        // stage-boundary reads wait for the producer's stores.
        int max_ext = -1;
        for (const DagStage &s : dag.stages)
            for (const StageInput &in : s.inputs)
                max_ext = std::max(max_ext, in.external);
        std::vector<sim::DagScheduleInput> fused(n);
        int64_t fused_iters = 0;
        for (int t = 0; t < n; ++t) {
            const int i = dag.topo[t];
            std::map<int, int> remap;
            for (const StageInput &in : dag.stages[i].inputs) {
                const int gid = in.external >= 0
                                    ? in.external
                                    : max_ext + 1 + in.producer;
                remap[in.slot] = gid;
                if (in.producer >= 0)
                    fused[t].producers.emplace(gid,
                                               topo_pos[in.producer]);
            }
            fused[t].root =
                sim::remap_read_buffers(neg.programs[t], remap);
            fused[t].iterations = bench.exprs[i].iterations;
            fused_iters = std::max(fused_iters, fused[t].iterations);
        }
        result.dag_cycles =
            sim::schedule_dag(fused, opts.rake.target, opts.machine)
                .cycles(fused_iters);

        // End-to-end check over the negotiated programs: boundary
        // permutes must cancel exactly across every edge.
        if (opts.validate)
            validate_dag_programs(dag, final_programs);
    }

    // Phase 2 (sequential, in suite order): aggregation is identical
    // for every job count because it never depends on completion
    // order.
    for (int i = 0; i < n; ++i) {
        ExprCompilation &ec = compiled[i];
        const KernelExpr &kernel = bench.exprs[i];

        if (ec.rake_result) {
            const synth::RakeResult &rk = *ec.rake_result;
            if (rk.status == synth::SynthStatus::TimedOut)
                ++result.timeouts;
            if (rk.degraded)
                ++result.degraded;
            result.lifting_queries += rk.lift.total_queries();
            result.lifting_seconds += rk.lift.total_seconds();
            result.sketch_queries += rk.lower.sketch.queries;
            result.sketch_seconds += rk.lower.sketch.seconds;
            result.swizzle_queries += rk.lower.swizzle.queries;
            result.swizzle_seconds += rk.lower.swizzle.seconds;
            result.profile.add(rk);
        }

        result.baseline_cycles +=
            ec.baseline_sched.cycles(kernel.iterations);
        result.rake_cycles += ec.rake_sched.cycles(kernel.iterations);
        result.total_seconds += ec.seconds;
        result.exprs.push_back(std::move(ec));
    }
    result.wall_seconds = now_seconds() - t0;
    result.dedup_skips = result.profile.total_dedup_skips();
    result.ref_cache_hits = result.profile.total_ref_cache_hits();
    result.swizzle_memo_hits = result.profile.swizzle.memo_hits;

    const synth::CacheStats cache_after =
        synth::synthesis_cache().stats();
    result.cache_hits = cache_after.hits - cache_before.hits;
    result.cache_misses = cache_after.misses - cache_before.misses;
    result.disk_hits = cache_after.disk_hits - cache_before.disk_hits;
    result.disk_writes =
        cache_after.disk_writes - cache_before.disk_writes;
    result.disk_invalid =
        cache_after.disk_invalid - cache_before.disk_invalid;

    result.speedup = result.rake_cycles > 0
                         ? static_cast<double>(result.baseline_cycles) /
                               static_cast<double>(result.rake_cycles)
                         : 0.0;
    return result;
}

} // namespace rake::pipeline
