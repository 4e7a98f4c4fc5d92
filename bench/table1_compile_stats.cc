/**
 * @file
 * Table 1: compilation statistics, per target backend.
 *
 * For every benchmark: the number of optimized vector expressions and
 * the per-stage synthesis effort — lifting queries/time, sketch
 * (swizzle-free) queries/time, swizzle queries/time, and total
 * synthesis time. The paper's headline distribution should hold:
 * lifting is the cheapest stage and swizzle synthesis dominates the
 * query count.
 *
 * `--jobs N` (or RAKE_JOBS) compiles each benchmark's expressions on
 * N workers. The per-stage columns and "total s" sum per-expression
 * effort, so they are identical for every job count (Table 1 stays
 * faithful); "wall s" is the elapsed time and is what parallelism
 * and the cross-expression synthesis cache improve.
 *
 * `--target neon` runs the same suite through the Neon TargetISA
 * backend (synthesis statistics only — the VLIW scheduling columns of
 * the HVX pipeline do not apply, and expressions run sequentially).
 *
 * `--cache-dir PATH` (or RAKE_CACHE_DIR) enables the persistent
 * synthesis cache: a warm directory answers repeated suites from
 * disk, and the report/JSON gain disk_hits / disk_writes /
 * disk_invalid counters (only when nonzero).
 *
 * `--rules PATH` (or RAKE_RULES; `--no-rules` forces the stage off)
 * loads a mined rewrite-rule table: matching queries skip CEGIS
 * entirely, and the report/JSON gain rule_hits /
 * rule_instance_rejects / rule_table_size counters (only when
 * nonzero). `--selections PATH` dumps every selected instruction DAG,
 * one canonical s-expression per line, so CI can diff a warm-rule run
 * against a rule-free one for bit-identity.
 *
 * `--execute jit|interp` runs each selected program over a whole
 * synthetic image after compiling it, reporting wall-clock
 * microseconds next to the synthesis statistics (jit_us / interp_us
 * in the JSON, per benchmark and total). hvx target only; "jit"
 * requires an x86-64 host.
 *
 * `--dag` swaps the 21 flat benchmarks for the fused multi-stage
 * suite (pipeline::fused_suite): the same columns apply, and the
 * report/JSON gain stages / boundary_swizzles (always, for DAG
 * benchmarks) plus hashcons_hits / boundary_swizzles_saved /
 * dag_cycles (when nonzero).
 */
#include <chrono>
#include <iostream>

#include "backend/neon_backend.h"
#include "hvx/sexpr.h"
#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/report.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/rules.h"

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * The Neon analog of pipeline::compile_benchmark, reporting only the
 * synthesis-statistics fields (no baseline or VLIW schedule exists
 * for this target).
 */
rake::pipeline::BenchmarkResult
compile_neon_benchmark(const rake::pipeline::Benchmark &bench,
                       const rake::pipeline::CompileOptions &opts)
{
    using namespace rake;
    pipeline::BenchmarkResult result;
    result.name = bench.name;
    const synth::CacheStats cache_before =
        synth::backend_synthesis_cache("neon").stats();
    const double t0 = now_seconds();
    const Deadline run_deadline =
        opts.run_timeout_ms > 0
            ? Deadline::after_ms(opts.run_timeout_ms)
            : Deadline();
    for (const pipeline::KernelExpr &kernel : bench.exprs) {
        const double e0 = now_seconds();
        // Fresh backend per expression: it carries per-run search
        // state (the swizzle memo).
        neon::Target machine;
        auto isa = backend::make_neon_backend(machine);
        synth::RakeOptions ropts = opts.rake;
        if (opts.timeout_ms > 0)
            ropts.deadline = Deadline::after_ms(opts.timeout_ms);
        ropts.deadline = ropts.deadline.sooner(run_deadline);
        auto rk = synth::select_instructions_for(kernel.expr, *isa,
                                                 ropts);
        const double dt = now_seconds() - e0;
        result.total_seconds += dt;
        if (!rk)
            continue;
        if (rk->instr)
            result.selections.push_back(isa->instr_to_sexpr(rk->instr));
        ++result.optimized_exprs;
        if (rk->status == synth::SynthStatus::TimedOut)
            ++result.timeouts;
        if (rk->degraded)
            ++result.degraded;
        result.lifting_queries += rk->lift.total_queries();
        result.lifting_seconds += rk->lift.total_seconds();
        result.sketch_queries += rk->lower.sketch.queries;
        result.sketch_seconds += rk->lower.sketch.seconds;
        result.swizzle_queries += rk->lower.swizzle.queries;
        result.swizzle_seconds += rk->lower.swizzle.seconds;
        result.profile.add(*rk);
    }
    result.wall_seconds = now_seconds() - t0;
    result.dedup_skips = result.profile.total_dedup_skips();
    result.ref_cache_hits = result.profile.total_ref_cache_hits();
    result.swizzle_memo_hits = result.profile.swizzle.memo_hits;
    const synth::CacheStats cache_after =
        synth::backend_synthesis_cache("neon").stats();
    result.cache_hits = cache_after.hits - cache_before.hits;
    result.cache_misses = cache_after.misses - cache_before.misses;
    result.disk_hits = cache_after.disk_hits - cache_before.disk_hits;
    result.disk_writes =
        cache_after.disk_writes - cache_before.disk_writes;
    result.disk_invalid =
        cache_after.disk_invalid - cache_before.disk_invalid;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rake;
    using namespace rake::pipeline;

    const BenchArgs args = parse_bench_args(argc, argv);
    RAKE_USER_CHECK(args.execute != "jit" || jit::available(),
                    "--execute jit needs an x86-64 host (try "
                    "--execute interp)");
    CompileOptions opts;
    opts.validate = false; // Table 1 measures synthesis effort only
    opts.jobs = args.jobs;
    opts.rake.verifier.dedup = !args.no_dedup;
    opts.timeout_ms =
        resolve_timeout_ms(args.timeout_ms, "RAKE_TIMEOUT_MS");
    opts.run_timeout_ms =
        resolve_timeout_ms(args.run_timeout_ms, "RAKE_RUN_TIMEOUT_MS");
    opts.rake.cache_dir = synth::resolve_cache_dir(args.cache_dir);
    opts.rake.rules_file =
        synth::resolve_rules_file(args.rules, args.no_rules);
    const bool neon_target = args.target == "neon";

    std::cout << "Table 1: compilation statistics (" << args.target
              << ", per benchmark, " << resolve_jobs(opts.jobs)
              << " job(s))\n\n";
    Table table({"benchmark", "exprs", "lift q", "sketch q", "swizzle q",
                 "lift s", "sketch s", "swizzle s", "total s",
                 "wall s"});

    long lift_q = 0, sketch_q = 0, swizzle_q = 0;
    double lift_s = 0, sketch_s = 0, swizzle_s = 0, total_s = 0,
           wall_s = 0;
    int exprs = 0;
    double exec_us_total = 0;
    synth::SynthProfile profile;
    std::string bench_json;
    std::string selections_dump;
    // --dag swaps in the fused multi-stage suite; the Table 1 columns
    // are the same, and DAG-only counters ride along in the JSON.
    for (const Benchmark &b :
         args.dag ? fused_suite() : benchmark_suite()) {
        if (!args.only.empty() && b.name != args.only)
            continue;
        std::cerr << "[table1] compiling " << b.name << "...\n";
        BenchmarkResult r = neon_target
                                ? compile_neon_benchmark(b, opts)
                                : compile_benchmark(b, opts);
        table.add_row({r.name, std::to_string(r.optimized_exprs),
                       std::to_string(r.lifting_queries),
                       std::to_string(r.sketch_queries),
                       std::to_string(r.swizzle_queries),
                       fmt(r.lifting_seconds, 3),
                       fmt(r.sketch_seconds, 3),
                       fmt(r.swizzle_seconds, 3),
                       fmt(r.total_seconds, 3),
                       fmt(r.wall_seconds, 3)});
        lift_q += r.lifting_queries;
        sketch_q += r.sketch_queries;
        swizzle_q += r.swizzle_queries;
        lift_s += r.lifting_seconds;
        sketch_s += r.sketch_seconds;
        swizzle_s += r.swizzle_seconds;
        total_s += r.total_seconds;
        wall_s += r.wall_seconds;
        exprs += r.optimized_exprs;
        profile.merge(r.profile);
        if (!args.selections.empty()) {
            // HVX results keep their typed DAG in r.exprs; backend
            // runs filled r.selections directly.
            if (neon_target) {
                for (const std::string &s : r.selections)
                    selections_dump += s + "\n";
            } else {
                for (const ExprCompilation &ec : r.exprs) {
                    if (ec.rake)
                        selections_dump += hvx::to_sexpr(ec.rake) + "\n";
                }
            }
        }
        Json bj;
        bj.put("name", r.name)
            .put("exprs", r.optimized_exprs)
            .put("total_seconds", r.total_seconds)
            .put("wall_seconds", r.wall_seconds)
            .put("lift_queries", static_cast<int64_t>(r.lifting_queries))
            .put("sketch_queries",
                 static_cast<int64_t>(r.sketch_queries))
            .put("swizzle_queries",
                 static_cast<int64_t>(r.swizzle_queries))
            .put("dedup_skips", r.dedup_skips)
            .put("ref_cache_hits", r.ref_cache_hits)
            .put("swizzle_memo_hits", r.swizzle_memo_hits)
            .put("cache_hits", r.cache_hits)
            .put("cache_misses", r.cache_misses);
        // Only when a deadline fired, so no-timeout JSON stays
        // bit-identical.
        if (r.timeouts > 0)
            bj.put("timeouts", r.timeouts);
        if (r.degraded > 0)
            bj.put("degraded", r.degraded);
        // Likewise for the disk tier: silent without --cache-dir.
        if (r.disk_hits > 0)
            bj.put("disk_hits", r.disk_hits);
        if (r.disk_writes > 0)
            bj.put("disk_writes", r.disk_writes);
        if (r.disk_invalid > 0)
            bj.put("disk_invalid", r.disk_invalid);
        // And the rule-first stage: silent without --rules.
        if (r.profile.rule_hits > 0)
            bj.put("rule_hits", r.profile.rule_hits);
        if (r.profile.rule_instance_rejects > 0)
            bj.put("rule_instance_rejects",
                   r.profile.rule_instance_rejects);
        // Whole-pipeline counters: stages and boundary_swizzles are
        // present whenever the benchmark is a real DAG (even when
        // negotiation eliminated every swizzle), the rest only when
        // nonzero. Flat benchmarks emit none, staying bit-identical.
        if (r.stages > 0) {
            bj.put("stages", r.stages);
            bj.put("boundary_swizzles", r.boundary_swizzles);
        }
        if (r.boundary_swizzles_saved > 0)
            bj.put("boundary_swizzles_saved", r.boundary_swizzles_saved);
        if (r.hashcons_hits > 0)
            bj.put("hashcons_hits", r.hashcons_hits);
        if (r.dag_cycles > 0)
            bj.put("dag_cycles", r.dag_cycles);
        // The --execute phase: wall-clock next to the synthesis
        // statistics, keyed by tier. Absent without the flag, so
        // default JSON stays bit-identical.
        if (!args.execute.empty() && !neon_target) {
            const double us = execute_benchmark_us(r, args.execute);
            exec_us_total += us;
            bj.put(args.execute + "_us", us);
        }
        if (!bench_json.empty())
            bench_json += ",";
        bench_json += bj.to_string();
    }
    table.add_row({"(total)", std::to_string(exprs),
                   std::to_string(lift_q), std::to_string(sketch_q),
                   std::to_string(swizzle_q), fmt(lift_s, 3),
                   fmt(sketch_s, 3), fmt(swizzle_s, 3), fmt(total_s, 3),
                   fmt(wall_s, 3)});
    std::cout << table.to_string() << "\n";

    if (!args.execute.empty()) {
        std::cout << "execution (" << args.execute
                  << ", whole image): " << fmt(exec_us_total, 1)
                  << " us total";
        if (args.execute == "jit")
            std::cout << " (" << to_string(jit::simd_level()) << ")";
        std::cout << "\n";
    }

    const synth::CacheStats cache =
        neon_target ? synth::backend_synthesis_cache("neon").stats()
                    : synth::synthesis_cache().stats();
    std::cout << "synthesis cache: " << cache.hits << " hits, "
              << cache.misses << " misses, " << cache.entries
              << " entries (repeated expressions are synthesized "
                 "once and reuse the original run's statistics)\n";
    if (cache.disk_hits > 0 || cache.disk_writes > 0 ||
        cache.disk_invalid > 0) {
        std::cout << "persistent cache: " << cache.disk_hits
                  << " hits, " << cache.disk_writes << " writes, "
                  << cache.disk_invalid << " invalidated\n";
    }
    if (!opts.rake.rules_file.empty()) {
        if (neon_target) {
            neon::Target machine;
            auto isa = backend::make_neon_backend(machine);
            profile.rule_table_size = synth::rule_table_size(
                opts.rake.rules_file, isa->name(),
                isa->grammar_version(), isa->cost_model_version());
        } else {
            profile.rule_table_size = synth::rule_table_size(
                opts.rake.rules_file, "hvx", synth::kHvxGrammarVersion,
                synth::kHvxCostModelVersion);
        }
        std::cout << "rule table (" << opts.rake.rules_file << "): "
                  << profile.rule_table_size << " rules, "
                  << profile.rule_hits << " hits, "
                  << profile.rule_instance_rejects
                  << " instance rejects\n";
    }

    if (!args.selections.empty()) {
        write_text_file(args.selections, selections_dump);
        std::cout << "wrote " << args.selections << "\n";
    }

    if (args.profile)
        std::cout << "\n" << profile.to_string();

    if (!args.json.empty()) {
        Json j;
        j.put("driver", std::string("table1_compile_stats"))
            .put("target", args.target)
            .put("jobs", resolve_jobs(opts.jobs))
            .put("dedup",
                 static_cast<int64_t>(opts.rake.verifier.dedup))
            .put("wall_seconds", wall_s)
            .put("total_seconds", total_s)
            .put("queries",
                 static_cast<int64_t>(lift_q + sketch_q + swizzle_q))
            .put("dedup_skips", profile.total_dedup_skips())
            .put("ref_cache_hits", profile.total_ref_cache_hits())
            .put("swizzle_memo_hits", profile.swizzle.memo_hits)
            .put("cache_hits", cache.hits)
            .put("cache_misses", cache.misses);
        if (profile.timeouts > 0)
            j.put("timeouts", profile.timeouts);
        if (profile.degraded > 0)
            j.put("degraded", profile.degraded);
        if (cache.disk_hits > 0)
            j.put("disk_hits", cache.disk_hits);
        if (cache.disk_writes > 0)
            j.put("disk_writes", cache.disk_writes);
        if (cache.disk_invalid > 0)
            j.put("disk_invalid", cache.disk_invalid);
        if (profile.rule_hits > 0)
            j.put("rule_hits", profile.rule_hits);
        if (profile.rule_instance_rejects > 0)
            j.put("rule_instance_rejects", profile.rule_instance_rejects);
        if (profile.rule_table_size > 0)
            j.put("rule_table_size", profile.rule_table_size);
        if (profile.stages > 0) {
            j.put("stages", profile.stages);
            j.put("boundary_swizzles", profile.boundary_swizzles);
            j.put("hashcons_hits", profile.hashcons_hits);
        }
        if (!args.execute.empty()) {
            j.put("execute", args.execute);
            j.put(args.execute + "_us", exec_us_total);
            if (args.execute == "jit")
                j.put("jit_simd", to_string(jit::simd_level()));
        }
        j.put_raw("benchmarks", "[" + bench_json + "]");
        write_text_file(args.json, j.to_string() + "\n");
        std::cout << "wrote " << args.json << "\n";
    }

    std::cout << "paper: mean compile 62 min/benchmark on z3 "
                 "(lifting 9%, sketches 21%, swizzles 70% of time); "
                 "this reproduction replaces the SMT search engine "
                 "with concrete CEGIS, so absolute times are far "
                 "smaller while the per-stage query distribution "
                 "keeps the same ordering (swizzle queries "
              << (swizzle_q > lift_q ? ">" : "<=")
              << " lifting queries).\n";
    return 0;
}
