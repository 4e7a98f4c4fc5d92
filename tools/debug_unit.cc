/**
 * @file
 * Focused synthesis repros, runnable against either backend:
 *
 *   debug_unit [--target hvx|neon] [--greedy] [--timeout-ms N]
 *              [--cache-dir PATH] [--rules PATH] [--no-rules]
 *
 * Probes the shapes that historically regressed — the conv3x3a32
 * inner sum, scalar-weight chains of increasing length, and the
 * 3-tap widening convolution — printing the selected listing and its
 * cost so a change in selection is immediately visible.
 */
#include <iostream>

#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hvx/cost.h"
#include "hvx/printer.h"
#include "neon/cost.h"
#include "pipeline/report.h"
#include "support/deadline.h"
#include "synth/persist.h"
#include "synth/rake.h"
#include "synth/rules.h"

using namespace rake;
using namespace rake::hir;

namespace {

struct Probe {
    std::string name;
    ExprPtr expr;
};

std::vector<Probe>
probes()
{
    const int L = 128;
    auto ld = [&](int dx, int dy) {
        return load(0, ScalarType::UInt8, L, dx, dy);
    };
    auto w16 = [&](HExpr e) { return cast(ScalarType::UInt16, e); };
    auto t2 = [&](int dx, int dy, int w) {
        return cast(ScalarType::Int32,
                    cast(ScalarType::Int16, ld(dx, dy))) *
               w;
    };

    std::vector<Probe> out;

    // Full conv3x3a32 inner sum.
    {
        const int w[3][3] = {{1, -2, 1}, {-2, 12, -2}, {1, -2, 1}};
        HExpr sum;
        for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
                HExpr term = t2(dx, dy, w[dy + 1][dx + 1] * 37);
                sum = sum.defined() ? sum + term : term;
            }
        out.push_back({"conv9", sum.ptr()});
    }

    // Scalar-weight chains of increasing length.
    for (auto weights : std::vector<std::vector<int>>{
             {1, 444}, {37, -74}, {37, -74, 444}, {37, -74, 37, -74, 444}}) {
        HExpr sum;
        int dx = 0;
        for (int w : weights) {
            HExpr term = t2(dx++, 0, w);
            sum = sum.defined() ? sum + term : term;
        }
        out.push_back(
            {"weights n=" + std::to_string(weights.size()), sum.ptr()});
    }

    // 3-tap widening convolution (the old debug_unit2 repro).
    out.push_back({"widening conv3",
                   (w16(ld(-1, -1)) + w16(ld(-1, 0)) * 2 +
                    w16(ld(-1, 1)))
                       .ptr()});

    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const pipeline::BenchArgs args =
        pipeline::parse_bench_args(argc, argv);
    const int timeout_ms =
        resolve_timeout_ms(args.timeout_ms, "RAKE_TIMEOUT_MS");
    const std::string cache_dir =
        synth::resolve_cache_dir(args.cache_dir);
    const std::string rules_file =
        synth::resolve_rules_file(args.rules, args.no_rules);

    int failures = 0;
    for (const Probe &p : probes()) {
        std::cout << "=== " << p.name << " (" << args.target
                  << (args.greedy ? ", greedy" : "") << ")\n";
        if (args.target == "hvx") {
            synth::RakeOptions opts;
            opts.cache_dir = cache_dir;
            opts.rules_file = rules_file;
            if (timeout_ms > 0)
                opts.deadline = Deadline::after_ms(timeout_ms);
            auto r = synth::select_instructions(p.expr, opts);
            if (!r) {
                std::cout << "FAILED\n";
                ++failures;
                continue;
            }
            if (r->degraded)
                std::cout << "(timed out; greedy degradation)\n";
            std::cout << hvx::to_listing(r->instr)
                      << to_string(hvx::cost_of(r->instr, opts.target))
                      << "\n";
        } else {
            const neon::Target target;
            const auto isa = backend::make_neon_backend(target);
            std::optional<backend::InstrHandle> n;
            if (args.greedy) {
                n = isa->greedy_select(p.expr);
            } else {
                synth::RakeOptions opts;
                opts.cache_dir = cache_dir;
                opts.rules_file = rules_file;
                if (timeout_ms > 0)
                    opts.deadline = Deadline::after_ms(timeout_ms);
                if (auto r = synth::select_instructions_for(p.expr, *isa,
                                                            opts)) {
                    if (r->degraded)
                        std::cout << "(timed out; greedy degradation)\n";
                    n = r->instr;
                }
            }
            if (!n) {
                std::cout << "FAILED\n";
                ++failures;
                continue;
            }
            const auto code = std::static_pointer_cast<const neon::NInstr>(*n);
            std::cout << neon::to_listing(code)
                      << to_string(neon::cost_of(code, target)) << "\n";
        }
    }
    return failures == 0 ? 0 : 1;
}
