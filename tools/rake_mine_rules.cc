/**
 * @file
 * Offline rule miner: turn solved syntheses into a verified,
 * parameterized rewrite-rule table (synth/rules.h).
 *
 * Input pairs come from two places, freely combined:
 *
 *  - `--cache-dir PATH`: every solved entry of a persistent synthesis
 *    cache (synth/persist.h) whose version keys match the *current*
 *    backend versions. Stale entries are skipped — a rule must never
 *    outlive the grammar that produced its witness.
 *  - `--corpus-dir PATH`: every reproducer of a fuzz corpus
 *    (fuzz/corpus.h), solved here with the requested backend(s); the
 *    corpus is a distilled sample of shapes the generator considers
 *    interesting, so its solutions generalize well.
 *
 * Each pair is anti-unified into a candidate rule (constants and leaf
 * operands become typed holes), verified once over symbolic lanes —
 * by z3 on every backend, or by exhaustive corner-lane evaluation
 * when the solver answers Unknown — and written to `--out` under the same
 * version-key discipline as the cache. Refuted candidates back off
 * toward concrete and are dropped if still refuted.
 *
 *   rake_mine_rules --out PATH [--cache-dir PATH] [--corpus-dir PATH]
 *                   [--target hvx|neon|all] [--check-envs N]
 *                   [--seed N] [--timeout-ms N] [--json PATH]
 */
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "fuzz/corpus.h"
#include "hir/printer.h"
#include "hir/simplify.h"
#include "hvx/sexpr.h"
#include "pipeline/report.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/parse.h"
#include "synth/persist.h"
#include "synth/rake.h"
#include "synth/rules.h"

namespace {

using namespace rake;

struct MinerArgs {
    std::string out;
    std::string cache_dir;
    std::string corpus_dir;
    std::string target = "all"; ///< hvx | neon | all
    std::string json;
    int check_envs = 16;
    uint64_t seed = 1;
    int timeout_ms = 0; ///< per-query budget when solving the corpus
};

MinerArgs
parse_args(int argc, char **argv)
{
    MinerArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *what) {
            RAKE_USER_CHECK(i + 1 < argc, a << " needs " << what);
            return std::string(argv[++i]);
        };
        if (a == "--out") {
            args.out = value("a path");
        } else if (a == "--cache-dir") {
            args.cache_dir = value("a path");
        } else if (a == "--corpus-dir") {
            args.corpus_dir = value("a path");
        } else if (a == "--target") {
            args.target = value("a value");
        } else if (a == "--json") {
            args.json = value("a path");
        } else if (a == "--check-envs") {
            args.check_envs = static_cast<int>(parse_int_knob(
                value("a value").c_str(), "--check-envs", 1, 1 << 16));
        } else if (a == "--seed") {
            args.seed = static_cast<uint64_t>(parse_int_knob(
                value("a value").c_str(), "--seed", 0,
                std::numeric_limits<int64_t>::max()));
        } else if (a == "--timeout-ms") {
            args.timeout_ms = static_cast<int>(parse_int_knob(
                value("a value").c_str(), "--timeout-ms", 1,
                std::numeric_limits<int>::max()));
        } else {
            RAKE_USER_CHECK(false, "unknown flag: " << a);
        }
    }
    RAKE_USER_CHECK(!args.out.empty(), "--out PATH is required");
    RAKE_USER_CHECK(args.target == "hvx" || args.target == "neon" ||
                        args.target == "all",
                    "unknown target: " << args.target
                                       << " (expected hvx, neon or all)");
    RAKE_USER_CHECK(!args.cache_dir.empty() || !args.corpus_dir.empty(),
                    "nothing to mine: give --cache-dir and/or "
                    "--corpus-dir");
    return args;
}

/** Solved pairs per backend, deduplicated on (expr, instr). */
struct PairSet {
    std::vector<synth::MinedPair> pairs;
    std::set<std::string> seen;

    void
    add(const std::string &expr, const std::string &instr)
    {
        if (expr.empty() || instr.empty())
            return;
        if (!seen.insert(expr + "\n" + instr).second)
            return;
        pairs.push_back({expr, instr});
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using pipeline::Json;

    MinerArgs args;
    try {
        args = parse_args(argc, argv);
    } catch (const UserError &e) {
        std::cerr << "rake_mine_rules: " << e.what() << "\n";
        return 2;
    }

    const bool want_hvx = args.target != "neon";
    const bool want_neon = args.target != "hvx";

    // Backend instances carry the current version keys and the
    // verification machinery; the targets must outlive them.
    hvx::Target hvx_target;
    neon::Target neon_target;
    auto hvx_isa = backend::make_hvx_backend(hvx_target);
    auto neon_isa = backend::make_neon_backend(neon_target);

    PairSet hvx_pairs, neon_pairs;
    int cache_entries = 0, cache_stale = 0;
    int corpus_exprs = 0, corpus_unsolved = 0;

    if (!args.cache_dir.empty()) {
        for (const synth::CacheEntryView &e :
             synth::scan_cache_dir(args.cache_dir)) {
            ++cache_entries;
            if (e.instr.empty())
                continue; // persisted no-solution: nothing to mine
            if (e.backend == "hvx" && want_hvx) {
                if (e.grammar != synth::kHvxGrammarVersion ||
                    e.cost_model != synth::kHvxCostModelVersion) {
                    ++cache_stale;
                    continue;
                }
                hvx_pairs.add(e.expr, e.instr);
            } else if (e.backend == neon_isa->name() && want_neon) {
                if (e.grammar != neon_isa->grammar_version() ||
                    e.cost_model != neon_isa->cost_model_version()) {
                    ++cache_stale;
                    continue;
                }
                neon_pairs.add(e.expr, e.instr);
            }
        }
    }

    if (!args.corpus_dir.empty()) {
        std::vector<fuzz::CorpusEntry> corpus;
        try {
            corpus = fuzz::load_corpus(args.corpus_dir);
        } catch (const UserError &e) {
            std::cerr << "rake_mine_rules: " << e.what() << "\n";
            return 2;
        }
        for (const fuzz::CorpusEntry &entry : corpus) {
            ++corpus_exprs;
            const hir::ExprPtr normalized = hir::simplify(entry.expr);
            const std::string expr = hir::to_sexpr(normalized);
            bool solved = false;
            // Solve with the same engine the rules will later stand in
            // for. Reproducers that fail or time out teach us nothing.
            synth::RakeOptions opts;
            opts.use_cache = false;
            opts.seed = args.seed;
            if (args.timeout_ms > 0)
                opts.deadline = Deadline::after_ms(args.timeout_ms);
            if (want_hvx) {
                try {
                    auto r = synth::select_instructions(entry.expr, opts);
                    if (r && r->instr && !r->degraded &&
                        r->status == synth::SynthStatus::Ok) {
                        hvx_pairs.add(expr, hvx::to_sexpr(r->instr));
                        solved = true;
                    }
                } catch (const UserError &) {
                }
            }
            if (want_neon) {
                try {
                    // Fresh backend per run: it carries per-run state.
                    neon::Target machine;
                    auto isa = backend::make_neon_backend(machine);
                    auto r = synth::select_instructions_for(entry.expr,
                                                            *isa, opts);
                    if (r && r->instr && !r->degraded &&
                        r->status == synth::SynthStatus::Ok) {
                        neon_pairs.add(expr,
                                       isa->instr_to_sexpr(r->instr));
                        solved = true;
                    }
                } catch (const UserError &) {
                }
            }
            if (!solved)
                ++corpus_unsolved;
        }
    }

    synth::MineOptions mopts;
    mopts.check_envs = args.check_envs;
    mopts.seed = args.seed;

    std::vector<synth::RuleTable::Section> sections;
    synth::MineStats hvx_stats, neon_stats;
    if (want_hvx && !hvx_pairs.pairs.empty()) {
        sections.push_back(synth::mine_rules(
            *hvx_isa, synth::kHvxGrammarVersion,
            synth::kHvxCostModelVersion, hvx_pairs.pairs, mopts,
            &hvx_stats));
    }
    if (want_neon && !neon_pairs.pairs.empty()) {
        sections.push_back(synth::mine_rules(
            *neon_isa, neon_isa->grammar_version(),
            neon_isa->cost_model_version(), neon_pairs.pairs, mopts,
            &neon_stats));
    }

    if (!synth::write_rule_table(args.out, sections)) {
        std::cerr << "rake_mine_rules: cannot write " << args.out
                  << "\n";
        return 1;
    }

    int total_rules = 0;
    for (const auto &s : sections)
        total_rules += static_cast<int>(s.rules.size());

    auto report = [](const char *name, const synth::MineStats &s,
                     size_t rules) {
        std::cout << "  " << name << ": " << s.pairs << " pairs -> "
                  << rules << " rules (" << s.proved_z3 << " z3-proven, "
                  << s.proved_eval << " eval-proven, " << s.refuted
                  << " refuted, " << s.duplicates << " duplicates, "
                  << s.skipped << " skipped)\n";
    };
    std::cout << "mined " << total_rules << " rules into " << args.out
              << "\n";
    if (cache_entries > 0)
        std::cout << "  cache: " << cache_entries << " entries, "
                  << cache_stale << " stale\n";
    if (corpus_exprs > 0)
        std::cout << "  corpus: " << corpus_exprs << " reproducers, "
                  << corpus_unsolved << " unsolved\n";
    for (const auto &s : sections) {
        if (s.backend == "hvx")
            report("hvx", hvx_stats, s.rules.size());
        else
            report(s.backend.c_str(), neon_stats, s.rules.size());
    }

    if (!args.json.empty()) {
        auto stats_json = [](const synth::MineStats &s, size_t rules) {
            Json j;
            j.put("pairs", s.pairs)
                .put("rules", static_cast<int>(rules))
                .put("proved_z3", s.proved_z3)
                .put("proved_eval", s.proved_eval)
                .put("refuted", s.refuted)
                .put("duplicates", s.duplicates)
                .put("skipped", s.skipped);
            return j.to_string();
        };
        Json j;
        j.put("driver", std::string("rake_mine_rules"))
            .put("out", args.out)
            .put("rules", total_rules)
            .put("cache_entries", cache_entries)
            .put("cache_stale", cache_stale)
            .put("corpus_exprs", corpus_exprs)
            .put("corpus_unsolved", corpus_unsolved);
        for (const auto &s : sections) {
            const bool is_hvx = s.backend == "hvx";
            j.put_raw(s.backend,
                      stats_json(is_hvx ? hvx_stats : neon_stats,
                                 s.rules.size()));
        }
        pipeline::write_text_file(args.json, j.to_string() + "\n");
        std::cout << "wrote " << args.json << "\n";
    }
    return 0;
}
