#include "synth/lower.h"

#include <map>

#include <cstdlib>

#include "support/error.h"
#include "uir/interp.h"
#include "uir/printer.h"

namespace rake::synth {

namespace {

using uir::UExpr;
using uir::UExprPtr;

/**
 * The target-independent lowering search (Algorithm 2). All
 * ISA-specific decisions — which sketches to try, how to evaluate
 * them, how to fill their holes, what they cost — are delegated to
 * the TargetISA; this class owns the memoization, the CEGIS
 * verification protocol, and the budgeted backtracking.
 *
 * It is also the LowerDriver handed back to the backend grammar, so
 * grammar templates recurse through the shared memo.
 */
class CoreLowerer final : public backend::LowerDriver
{
  public:
    CoreLowerer(Verifier &verifier, backend::TargetISA &isa,
                const LowerOptions &opts)
        : verifier_(verifier), isa_(isa), opts_(opts),
          cand_(isa.make_evaluator())
    {
        // Hand the backend the wall-clock budget so its swizzle
        // solver polls the same deadline the sketch loop does.
        isa_.set_deadline(opts_.deadline);
    }

    std::optional<backend::InstrHandle>
    lower_root(const UExprPtr &u)
    {
        auto impl = lower(u, Layout::Linear);
        if (!impl)
            return std::nullopt;
        return impl->instr;
    }

    LowerStats &stats() { return stats_; }

    // --- LowerDriver (the grammar's recursion surface) -------------

    std::optional<backend::InstrHandle>
    lowered(const UExprPtr &u, Layout layout) override
    {
        auto impl = lower(u, layout);
        if (!impl)
            return std::nullopt;
        return impl->instr;
    }

    /**
     * Keep synthetic UIR nodes (widen wrappers, two-hop narrows)
     * alive for the lifetime of the lowering: the memo keys on node
     * addresses, so letting a wrapper die would allow its address to
     * be reused by an unrelated node.
     */
    UExprPtr
    pin(UExprPtr u) override
    {
        pinned_.push_back(u);
        return u;
    }

    bool layouts_enabled() const override { return opts_.layouts; }

  private:
    struct Impl {
        backend::InstrHandle instr;
        backend::Cost cost; ///< paper cost: max per-resource count
    };

    // ---------------------------------------------------------------
    // Algorithm 2: sketch enumeration + verification + swizzle
    // concretization with backtracking under the cost bound.
    // ---------------------------------------------------------------
    std::optional<Impl>
    lower(const UExprPtr &u, Layout layout)
    {
        opts_.deadline.check("lowering");

        const auto key = std::make_pair(u.get(), layout);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        // Seed the memo so recursive template generation cannot loop.
        memo_[key] = std::nullopt;

        std::vector<backend::Sketch> sketches;
        isa_.candidates(u, layout, *this, sketches);

        const bool trace = std::getenv("RAKE_TRACE") != nullptr;
        std::optional<Impl> best;
        for (backend::Sketch &sk : sketches) {
            opts_.deadline.check("sketch enumeration");
            if (!sk.defined())
                continue;
            if (!verify_sketch(u, layout, sk)) {
                if (trace) {
                    fprintf(stderr, "[lower]   sketch %s: rejected\n",
                            sk.note.c_str());
                    debug_dump_mismatch(u, layout, sk);
                }
                continue;
            }

            // Swizzle concretization under the tightened bound beta.
            const int compute_cost = isa_.instruction_count(sk.root);
            if (best && compute_cost >= best->cost.total_instructions)
                continue;

            std::vector<backend::InstrHandle> solutions(
                sk.holes.size());
            bool ok = true;
            int spent = 0;
            for (size_t h = 0; h < sk.holes.size(); ++h) {
                // Each hole searches under the per-hole budget; the
                // total additionally respects the tightened bound
                // once a best implementation exists.
                auto sol = isa_.solve_hole(sk.holes[h],
                                           opts_.swizzle_budget,
                                           stats_.swizzle);
                solutions[h] = sol ? *sol : nullptr;
                if (!solutions[h]) {
                    ok = false;
                    break;
                }
                spent += isa_.instruction_count(solutions[h]);
                if (best &&
                    compute_cost + spent >
                        best->cost.total_instructions +
                            opts_.swizzle_budget) {
                    ok = false;
                    break;
                }
            }
            if (!ok) {
                if (trace)
                    fprintf(stderr,
                            "[lower]   sketch %s: swizzle unsat\n",
                            sk.note.c_str());
                continue;
            }

            backend::InstrHandle impl =
                isa_.substitute_holes(sk.root, solutions);
            // Final end-to-end check of the concretized implementation.
            if (!check_impl(u, layout, impl)) {
                if (trace)
                    fprintf(stderr,
                            "[lower]   sketch %s: final check failed\n",
                            sk.note.c_str());
                continue;
            }

            const backend::Cost cost = isa_.cost_of(impl);
            if (!best || cost.better_than(best->cost)) {
                if (best)
                    ++stats_.backtracks;
                best = Impl{impl, cost};
            }
            if (!opts_.backtracking)
                break;
        }

        memo_[key] = best;
        if (!best && std::getenv("RAKE_TRACE")) {
            fprintf(stderr, "[lower] no impl (%s, %zu sketches): %s\n",
                    to_string(layout).c_str(), sketches.size(),
                    uir::to_string(u).c_str());
        }
        return best;
    }

    /** Print the first mismatching example when tracing. */
    void
    debug_dump_mismatch(const UExprPtr &u, Layout layout,
                        const backend::Sketch &sk)
    {
        std::function<Value(int, const Env &)> oracle =
            [this, &sk, &oracle](int id, const Env &env) {
                return isa_.hole_value(sk.holes[id], env, oracle);
            };
        auto interp = isa_.make_evaluator();
        interp->set_oracle(oracle);
        for (int i = 0; i < 4; ++i) {
            const Env &env = verifier_.pool().at(i);
            const Value ref =
                apply_layout(uir::evaluate(u, env), layout);
            interp->reset(env);
            const Value cand = interp->eval(sk.root);
            if (!(ref == cand)) {
                for (int l = 0; l < ref.type.lanes; ++l) {
                    if (cand.type.lanes <= l ||
                        ref[l] != cand[l]) {
                        fprintf(stderr,
                                "[lower]     example %d lane %d: ref=%lld"
                                " cand=%lld (ref %s cand %s)\n",
                                i, l, (long long)ref[l],
                                cand.type.lanes > l
                                    ? (long long)cand[l]
                                    : -999999,
                                to_string(ref.type).c_str(),
                                to_string(cand.type).c_str());
                        return;
                    }
                }
            }
        }
        fprintf(stderr, "[lower]     (no mismatch on first examples; "
                        "killed by randomized trials)\n");
    }

    /**
     * Reference evaluator for (u, layout): the UIR meaning with the
     * output layout applied, computed in the persistent uref_ context.
     * The verifier caches its outputs per persistent example under
     * ref_key(u, layout).
     */
    EvaluatorRef
    layout_ref(const UExprPtr &u, Layout layout)
    {
        return [this, &u, layout](const Env &env) -> const Value & {
            uref_.reset(env);
            apply_layout_into(uref_.eval(u), layout, layout_scratch_);
            return layout_scratch_;
        };
    }

    static RefKey
    ref_key(const UExprPtr &u, Layout layout)
    {
        // Variants 1/2 keep lowering keys disjoint from the lifting
        // stage's variant-0 keys on the same node addresses.
        return RefKey{u.get(), 1 + static_cast<int>(layout)};
    }

    /** Sketch verification with lane-0 pruning (§4.1). */
    bool
    verify_sketch(const UExprPtr &u, Layout layout,
                  const backend::Sketch &sk)
    {
        std::function<Value(int, const Env &)> oracle =
            [this, &sk, &oracle](int id, const Env &env) {
                return isa_.hole_value(sk.holes[id], env, oracle);
            };
        // The oracle copy inside cand_ captures locals by reference;
        // it is only invoked while this frame is live, and the next
        // verification installs its own oracle.
        cand_->set_oracle(oracle);
        EvaluatorRef cand = [this, &sk](const Env &env) -> const Value & {
            cand_->reset(env);
            return cand_->eval(sk.root);
        };
        EvaluatorRef ref = layout_ref(u, layout);
        const RefKey key = ref_key(u, layout);

        if (opts_.lane0_pruning) {
            // Quick check: first output lane on two examples.
            ++stats_.sketch.queries;
            for (int i = 0; i < 2; ++i) {
                const Env &env = verifier_.pool().at(i);
                const Value &a =
                    verifier_.ref_output(key, ref, i, stats_.sketch);
                const Value &b = cand(env);
                if (!(a.type == b.type) || a[0] != b[0])
                    return false;
            }
        }
        return verifier_.check_ref(key, ref, cand, stats_.sketch,
                                   /*skip_accepted=*/true);
    }

    /** Final check of a fully concretized implementation. */
    bool
    check_impl(const UExprPtr &u, Layout layout,
               const backend::InstrHandle &impl)
    {
        cand_->set_oracle(nullptr); // concretized: no holes remain
        EvaluatorRef cand = [this,
                             &impl](const Env &env) -> const Value & {
            cand_->reset(env);
            return cand_->eval(impl);
        };
        return verifier_.check_ref(ref_key(u, layout),
                                   layout_ref(u, layout), cand,
                                   stats_.sketch,
                                   /*skip_accepted=*/true);
    }

    Verifier &verifier_;
    backend::TargetISA &isa_;
    LowerOptions opts_;
    LowerStats stats_;
    uir::Interpreter uref_; ///< reference context for verification
    std::unique_ptr<backend::Evaluator>
        cand_;             ///< candidate context for verification
    Value layout_scratch_; ///< reference-after-layout scratch
    std::map<std::pair<const UExpr *, Layout>, std::optional<Impl>>
        memo_;
    std::vector<UExprPtr> pinned_;
};

} // namespace

std::optional<BackendLowerResult>
lower_with_backend(Verifier &verifier, const uir::UExprPtr &lifted,
                   backend::TargetISA &isa, const LowerOptions &opts)
{
    CoreLowerer lowerer(verifier, isa, opts);
    auto instr = lowerer.lower_root(lifted);
    if (!instr)
        return std::nullopt;
    BackendLowerResult result;
    result.instr = *instr;
    result.stats = lowerer.stats();
    return result;
}

} // namespace rake::synth
