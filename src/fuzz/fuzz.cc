#include "fuzz/fuzz.h"

#include <optional>
#include <sstream>

#include "fuzz/corpus.h"
#include "hir/printer.h"
#include "support/thread_pool.h"

namespace rake::fuzz {

namespace {

/** Per-program outcome filled into its own slot by the workers. */
struct Slot {
    bool hvx_selected = false;
    bool neon_selected = false;
    std::optional<Finding> finding;
};

} // namespace

FuzzReport
run(const FuzzOptions &opts)
{
    const Generator gen(opts.gen);
    std::vector<Slot> slots(static_cast<size_t>(
        opts.count > 0 ? opts.count : 0));

    const auto check_program = [&](int i) {
        Slot &slot = slots[static_cast<size_t>(i)];
        const uint64_t seed = program_seed(opts.seed, i);
        // Multi-stage streams run the staged-executor oracle instead
        // of the per-expression lattice; check_expr already covers
        // each stage's shape, so the extra signal here is purely the
        // DAG plumbing. The reported expression is the final stage.
        const bool staged = opts.gen.stages > 1;
        std::vector<hir::ExprPtr> prog =
            staged ? gen.generate_stages(seed)
                   : std::vector<hir::ExprPtr>{gen.generate(seed)};
        const hir::ExprPtr e = prog.back();
        CheckResult res = staged ? check_stages(prog, opts.oracles)
                                 : check_expr(e, opts.oracles);
        slot.hvx_selected = res.hvx_selected;
        slot.neon_selected = res.neon_selected;
        if (res.ok())
            return;

        Finding f;
        f.index = i;
        f.seed = seed;
        f.expr = e;
        f.shrunk = e;
        f.divergence = *res.divergence;
        // Minimization shrinks one expression; a staged finding's
        // reproducer is the (seed, stages) pair, so report it as-is.
        if (opts.minimize && !staged && !f.divergence.hang) {
            // Shrink while the *same* oracle keeps firing: collapsing
            // into some unrelated divergence would produce a
            // reproducer for a different bug than the one found.
            // Hangs are exempt: each minimization probe would burn a
            // full timeout budget, and whether a smaller program still
            // times out is load-dependent — not a stable predicate.
            const std::string oracle = f.divergence.oracle;
            f.shrunk = minimize(e, [&](const hir::ExprPtr &cand) {
                CheckResult r = check_expr(cand, opts.oracles);
                return !r.ok() && r.divergence->oracle == oracle;
            });
        }
        slot.finding = std::move(f);
    };
    parallel_claims(opts.count, resolve_jobs(opts.jobs),
                    [&] { return check_program; });

    FuzzReport report;
    report.count = opts.count;
    for (Slot &slot : slots) {
        report.hvx_selected += slot.hvx_selected ? 1 : 0;
        report.neon_selected += slot.neon_selected ? 1 : 0;
        if (!slot.finding)
            continue;
        Finding &f = *slot.finding;
        report.crashes += f.divergence.crash ? 1 : 0;
        report.hangs += f.divergence.hang ? 1 : 0;
        // Corpus files hold one expression; a staged program is
        // regenerated from its summary line's seed instead.
        if (!opts.corpus_dir.empty() && opts.gen.stages <= 1) {
            std::ostringstream name;
            name << opts.corpus_dir << "/repro-" << f.divergence.oracle
                 << "-s" << opts.seed << "-p" << f.index << ".sexpr";
            std::ostringstream seed_note;
            seed_note << "seed: " << opts.seed << " program: " << f.index
                      << " program-seed: " << f.seed;
            std::ostringstream gen_note;
            gen_note << "generator: depth=" << opts.gen.max_depth
                     << " lanes=" << opts.gen.lanes;
            write_corpus_file(
                name.str(), f.shrunk,
                {"rake_fuzz reproducer", seed_note.str(),
                 gen_note.str(), "oracle: " + f.divergence.oracle,
                 "detail: " + f.divergence.detail,
                 "original: " + hir::to_sexpr(f.expr)});
            f.repro_path = name.str();
        }
        report.findings.push_back(std::move(f));
    }
    return report;
}

std::string
FuzzReport::summary() const
{
    std::ostringstream os;
    os << "programs: " << count << "\n"
       << "hvx selected: " << hvx_selected << "/" << count << "\n"
       << "neon selected: " << neon_selected << "/" << count << "\n"
       << "divergences: " << divergences() << " (crashes: " << crashes
       << ", hangs: " << hangs << ")\n";
    for (const Finding &f : findings) {
        os << "  [" << f.index << "] seed=" << f.seed
           << " oracle=" << f.divergence.oracle << " nodes "
           << f.expr->node_count() << " -> " << f.shrunk->node_count()
           << ": " << f.divergence.detail << "\n"
           << "      " << hir::to_sexpr(f.shrunk) << "\n";
        if (!f.repro_path.empty())
            os << "      wrote " << f.repro_path << "\n";
    }
    return os.str();
}

} // namespace rake::fuzz
