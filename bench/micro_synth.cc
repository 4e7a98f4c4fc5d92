/**
 * @file
 * Micro measurements of the synthesis engine: end-to-end synthesis
 * wall time per expression size, with the per-stage breakdown behind
 * `--profile` (§7.2's compilation-performance discussion, measured on
 * this reproduction's engine).
 *
 * Every iteration runs the full three-stage synthesis with the
 * cross-expression cache disabled, so the numbers track the engine's
 * hot loop rather than cache effectiveness. `--no-dedup` additionally
 * switches off the observational-equivalence fast path for A/B runs;
 * `--json PATH` writes the machine-readable results the CI perf smoke
 * archives.
 *
 * `--target neon` measures the Neon backend through the same shared
 * engine (`--greedy` additionally swaps in the old one-template
 * mapper as an ablation, which reports no search statistics).
 *
 * `--timeout-ms` / `--run-timeout-ms` (or RAKE_TIMEOUT_MS /
 * RAKE_RUN_TIMEOUT_MS) bound each query / the whole run; expired
 * queries ship the greedy degradation and the JSON gains `timeouts` /
 * `degraded` counts (emitted only when nonzero).
 *
 * `--cache-dir PATH` (or RAKE_CACHE_DIR) points the persistent
 * synthesis cache at a directory: the first run writes every solved
 * case, a second run answers them all from disk (the JSON gains
 * `disk_hits`/`disk_writes` counts and a per-case `selection`
 * s-expression, emitted only in cache-dir runs so plain output stays
 * bit-identical). Note use_cache=false only disables the *in-memory*
 * sharing tier — a warm directory is still honored, which is exactly
 * what the CI warm-cache smoke exercises.
 *
 * `--rules PATH` (or RAKE_RULES; `--no-rules` forces the stage off)
 * loads a mined rewrite-rule table (tools/rake_mine_rules): on a disk
 * miss the rule-first stage answers matching queries without any
 * CEGIS work. The JSON gains `rule_hits` / `rule_instance_rejects` /
 * `rule_table_size` counts and the per-case `selection`, emitted only
 * in rules runs so plain output stays bit-identical.
 *
 *   micro_synth [--target hvx|neon] [--iters K] [--jobs N]
 *               [--json PATH] [--profile] [--no-dedup] [--greedy]
 *               [--timeout-ms N] [--run-timeout-ms N]
 *               [--cache-dir PATH] [--rules PATH] [--no-rules]
 *               [case-name]
 */
#include <chrono>
#include <iostream>

#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hvx/sexpr.h"
#include "neon/select.h"
#include "pipeline/report.h"
#include "support/deadline.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/profile.h"
#include "synth/rake.h"
#include "synth/rules.h"

namespace {

using namespace rake;
using namespace rake::hir;

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** An n-tap row convolution at u16 with binomial-ish weights. */
ExprPtr
conv_expr(int taps, int lanes)
{
    HExpr sum;
    for (int i = 0; i < taps; ++i) {
        HExpr term = cast(ScalarType::UInt16,
                          load(0, ScalarType::UInt8, lanes, i)) *
                     ((i % 3) + 1);
        sum = sum.defined() ? sum + term : term;
    }
    return cast(ScalarType::UInt8, (sum + 8) >> 4).ptr();
}

struct Case {
    const char *name;
    int taps;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rake::pipeline;

    const BenchArgs args = parse_bench_args(argc, argv);
    const int iters = args.iters > 0 ? args.iters : 5;
    const Case cases[] = {{"conv3", 3}, {"conv5", 5}, {"conv9", 9}};

    synth::RakeOptions opts;
    opts.use_cache = false; // measure the engine, not the cache
    opts.cache_dir = synth::resolve_cache_dir(args.cache_dir);
    opts.rules_file = synth::resolve_rules_file(args.rules, args.no_rules);
    opts.verifier.dedup = !args.no_dedup;

    // Disk-tier counters live on the per-backend cache tables; fold
    // both so either target reports through one block.
    auto disk_stats = [] {
        synth::CacheStats s = synth::synthesis_cache().stats();
        const synth::CacheStats n =
            synth::backend_synthesis_cache("neon").stats();
        s.disk_hits += n.disk_hits;
        s.disk_writes += n.disk_writes;
        s.disk_invalid += n.disk_invalid;
        return s;
    };
    const synth::CacheStats disk_before = disk_stats();

    const int timeout_ms =
        resolve_timeout_ms(args.timeout_ms, "RAKE_TIMEOUT_MS");
    const int run_timeout_ms =
        resolve_timeout_ms(args.run_timeout_ms, "RAKE_RUN_TIMEOUT_MS");
    const Deadline run_deadline =
        run_timeout_ms > 0 ? Deadline::after_ms(run_timeout_ms)
                           : Deadline();

    std::cout << "micro_synth: end-to-end synthesis on "
              << args.target << (args.greedy ? " (greedy)" : "")
              << ", " << iters << " iteration(s) per case, dedup "
              << (opts.verifier.dedup ? "on" : "off") << "\n\n";

    Table table({"case", "iters", "mean ms", "min ms", "queries",
                 "dedup", "refhit", "swz memo"});
    synth::SynthProfile total_profile;
    std::string cases_json;
    double wall_total = 0.0, synth_total = 0.0;
    const double t0 = now_seconds();

    int matched = 0;
    for (const Case &c : cases) {
        if (!args.only.empty() && args.only != c.name)
            continue;
        ++matched;
        const ExprPtr e = conv_expr(c.taps, 128);
        synth::SynthProfile profile;
        // The selected code, as a canonical s-expression. Captured
        // only in --cache-dir / --rules runs, where the CI smokes
        // diff it between a cold run and a warm (cache or rule) one.
        const bool capture_selection =
            !opts.cache_dir.empty() || !opts.rules_file.empty();
        std::string selection;
        double sum = 0.0, best = 0.0;
        for (int k = 0; k < iters; ++k) {
            // Per-query budget armed at query start; the whole-run
            // clock ticks across iterations and cases.
            synth::RakeOptions ropts = opts;
            if (timeout_ms > 0)
                ropts.deadline = Deadline::after_ms(timeout_ms);
            ropts.deadline = ropts.deadline.sooner(run_deadline);
            const double s0 = now_seconds();
            bool ok = false;
            if (args.target == "hvx") {
                auto rk = synth::select_instructions(e, ropts);
                ok = rk.has_value();
                if (rk) {
                    profile.add(*rk);
                    if (capture_selection && rk->instr)
                        selection = hvx::to_sexpr(rk->instr);
                }
            } else if (args.greedy) {
                neon::SelectOptions nopts;
                nopts.greedy = true;
                nopts.use_cache = false;
                nopts.verifier.dedup = opts.verifier.dedup;
                ok = neon::select_instructions(e, nopts).has_value();
            } else {
                // Fresh backend per run: it carries per-run search
                // state (the swizzle memo).
                neon::Target machine;
                auto isa = backend::make_neon_backend(machine);
                auto rk = synth::select_instructions_for(e, *isa, ropts);
                ok = rk.has_value();
                if (rk) {
                    profile.add(*rk);
                    if (capture_selection && rk->instr)
                        selection = isa->instr_to_sexpr(rk->instr);
                }
            }
            const double dt = now_seconds() - s0;
            if (!ok) {
                std::cerr << "micro_synth: synthesis failed on "
                          << c.name << "\n";
                return 1;
            }
            sum += dt;
            best = k == 0 ? dt : std::min(best, dt);
        }
        const double mean = sum / iters;
        // Per-run counters: every iteration repeats identical work, so
        // divide the accumulated counts back down.
        const int q = profile.total_queries() / iters;
        const int dd = profile.total_dedup_skips() / iters;
        const int rh = profile.total_ref_cache_hits() / iters;
        const int sm = profile.swizzle.memo_hits / iters;
        table.add_row({c.name, std::to_string(iters), fmt(mean * 1e3),
                       fmt(best * 1e3), std::to_string(q),
                       std::to_string(dd), std::to_string(rh),
                       std::to_string(sm)});
        if (args.profile) {
            std::cout << "--- " << c.name << "\n"
                      << profile.to_string() << "\n";
        }
        Json cj;
        cj.put("name", std::string(c.name))
            .put("iters", iters)
            .put("mean_seconds", mean)
            .put("min_seconds", best)
            .put("queries", q)
            .put("dedup_skips", dd)
            .put("ref_cache_hits", rh)
            .put("swizzle_memo_hits", sm);
        // Only when a deadline fired, so no-timeout JSON stays
        // bit-identical.
        if (profile.timeouts > 0)
            cj.put("timeouts", profile.timeouts);
        if (profile.degraded > 0)
            cj.put("degraded", profile.degraded);
        if (profile.disk_hits > 0)
            cj.put("disk_hits", profile.disk_hits);
        if (profile.rule_hits > 0)
            cj.put("rule_hits", profile.rule_hits);
        if (profile.rule_instance_rejects > 0)
            cj.put("rule_instance_rejects", profile.rule_instance_rejects);
        if (!selection.empty())
            cj.put("selection", selection);
        if (!cases_json.empty())
            cases_json += ",";
        cases_json += cj.to_string();
        total_profile.merge(profile);
        synth_total += sum;
    }
    wall_total = now_seconds() - t0;

    if (matched == 0) {
        std::cerr << "micro_synth: no case named '" << args.only
                  << "' (cases: conv3 conv5 conv9)\n";
        return 1;
    }

    std::cout << table.to_string();
    if (args.profile)
        std::cout << "\n--- all cases\n" << total_profile.to_string();

    // Table size for the active configuration (0 without --rules, so
    // the counter obeys the emit-only-when-nonzero convention).
    if (!opts.rules_file.empty()) {
        if (args.target == "hvx") {
            total_profile.rule_table_size = synth::rule_table_size(
                opts.rules_file, "hvx", synth::kHvxGrammarVersion,
                synth::kHvxCostModelVersion);
        } else {
            neon::Target machine;
            auto isa = backend::make_neon_backend(machine);
            total_profile.rule_table_size = synth::rule_table_size(
                opts.rules_file, isa->name(), isa->grammar_version(),
                isa->cost_model_version());
        }
        std::cout << "\nrule table (" << opts.rules_file << "): "
                  << total_profile.rule_table_size << " rules, "
                  << total_profile.rule_hits << " hits, "
                  << total_profile.rule_instance_rejects
                  << " instance rejects\n";
    }

    const synth::CacheStats disk_after = disk_stats();
    const int64_t disk_hits = disk_after.disk_hits - disk_before.disk_hits;
    const int64_t disk_writes =
        disk_after.disk_writes - disk_before.disk_writes;
    const int64_t disk_invalid =
        disk_after.disk_invalid - disk_before.disk_invalid;
    if (!opts.cache_dir.empty()) {
        std::cout << "\npersistent cache (" << opts.cache_dir << "): "
                  << disk_hits << " hits, " << disk_writes
                  << " writes, " << disk_invalid << " invalidated\n";
    }

    if (!args.json.empty()) {
        Json j;
        j.put("driver", std::string("micro_synth"))
            .put("target", args.target)
            .put("greedy", static_cast<int64_t>(args.greedy))
            .put("iters", iters)
            .put("dedup", static_cast<int64_t>(opts.verifier.dedup))
            .put("wall_seconds", wall_total)
            .put("total_seconds", synth_total)
            .put("queries", total_profile.total_queries())
            .put("dedup_skips", total_profile.total_dedup_skips())
            .put("ref_cache_hits", total_profile.total_ref_cache_hits())
            .put("swizzle_memo_hits", total_profile.swizzle.memo_hits)
            .put("cache_hits", total_profile.cache_hits);
        if (total_profile.timeouts > 0)
            j.put("timeouts", total_profile.timeouts);
        if (total_profile.degraded > 0)
            j.put("degraded", total_profile.degraded);
        // Disk counters only when the tier actually did something, so
        // no-cache-dir JSON stays bit-identical.
        if (disk_hits > 0)
            j.put("disk_hits", disk_hits);
        if (disk_writes > 0)
            j.put("disk_writes", disk_writes);
        if (disk_invalid > 0)
            j.put("disk_invalid", disk_invalid);
        // Same convention for the rule-first stage.
        if (total_profile.rule_hits > 0)
            j.put("rule_hits", total_profile.rule_hits);
        if (total_profile.rule_instance_rejects > 0)
            j.put("rule_instance_rejects",
                  total_profile.rule_instance_rejects);
        if (total_profile.rule_table_size > 0)
            j.put("rule_table_size", total_profile.rule_table_size);
        j.put_raw("cases", "[" + cases_json + "]");
        write_text_file(args.json, j.to_string() + "\n");
        std::cout << "\nwrote " << args.json << "\n";
    }
    return 0;
}
