/**
 * @file
 * The one implementation of TargetISA, written once over a per-ISA
 * repertoire (paper §6: retargeting swaps only the instruction
 * repertoire). A repertoire `R` is a struct of types and constants:
 *
 *   using Traits = ...;   node traits of the ISA's DAGs (isa/node.h)
 *   using Target = ...;   machine model; the backend keeps a copy
 *   using Grammar = ...;  Grammar(LowerDriver &).candidates(u, l, out)
 *   using Moves = ...;    swizzle moves policy, built as Moves{target}
 *   static constexpr const char *kName;   backend name ("hvx")
 *   static constexpr int kGrammarVersion, kCostModelVersion;
 *   static Cost cost(const NodePtr &, const Target &);
 *   static NodePtr greedy(const hir::ExprPtr &, const Target &);
 *
 * `greedy` is the synthesis-free selector TargetISA::greedy_select
 * runs; a null result declines. make_hvx_backend and
 * make_neon_backend instantiate the template over their repertoires.
 */
#ifndef RAKE_BACKEND_ISA_BACKEND_H
#define RAKE_BACKEND_ISA_BACKEND_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/target_isa.h"
#include "isa/text.h"
#include "synth/sketch.h"
#include "synth/swizzle.h"
#include "synth/symbolic_vector.h"

namespace rake::backend {

template <typename R>
class IsaBackend final : public TargetISA
{
  public:
    using Node = isa::Node<typename R::Traits>;
    using NodePtr = std::shared_ptr<const Node>;

    explicit IsaBackend(const typename R::Target &target) : target_(target)
    {
    }

    std::string name() const override { return R::kName; }

    void
    candidates(const uir::UExprPtr &u, synth::Layout layout,
               LowerDriver &driver, std::vector<Sketch> &out) override
    {
        typename R::Grammar grammar(driver);
        grammar.candidates(u, layout, out);
    }

    int
    instruction_count(const InstrHandle &instr) const override
    {
        return cast(instr)->instruction_count();
    }

    InstrHandle
    substitute_holes(const InstrHandle &root,
                     const std::vector<InstrHandle> &solutions) const override
    {
        return synth::substitute_holes<Node>(root, solutions);
    }

    /**
     * The solver binds the run's stats sink at construction, so it is
     * built on a lowering run's first query and rebuilt when a later
     * run counts into other stats: its window-read memo lives as long
     * as one run.
     */
    std::optional<InstrHandle>
    solve_hole(const synth::Hole &hole, int budget,
               synth::SwizzleStats &stats) override
    {
        if (!solver_ || !solver_->counts_into(stats))
            solver_.emplace(typename R::Moves{target_}, stats);
        solver_->set_deadline(deadline_);
        NodePtr r = solver_->solve(hole, budget);
        if (!r)
            return std::nullopt;
        return InstrHandle(std::move(r));
    }

    Cost
    cost_of(const InstrHandle &instr) const override
    {
        return R::cost(cast(instr), target_);
    }

    std::unique_ptr<Evaluator>
    make_evaluator() const override
    {
        return std::make_unique<synth::InterpEvaluator<Node>>();
    }

    Value
    hole_value(const synth::Hole &hole, const Env &env,
               const isa::HoleOracle &oracle) const override
    {
        return synth::arrangement_value<Node>(hole, env, oracle);
    }

    void
    set_deadline(const Deadline &deadline) override
    {
        deadline_ = deadline;
    }

    std::optional<InstrHandle>
    greedy_select(const hir::ExprPtr &expr) const override
    {
        NodePtr g = R::greedy(expr, target_);
        if (!g)
            return std::nullopt;
        return InstrHandle(std::move(g));
    }

    std::string
    instr_to_sexpr(const InstrHandle &instr) const override
    {
        return isa::to_sexpr(cast(instr));
    }

    InstrHandle
    instr_from_sexpr(const std::string &text) const override
    {
        return isa::parse_instr<typename R::Traits>(text);
    }

    int grammar_version() const override { return R::kGrammarVersion; }
    int cost_model_version() const override { return R::kCostModelVersion; }

  private:
    static NodePtr
    cast(const InstrHandle &h)
    {
        return std::static_pointer_cast<const Node>(h);
    }

    typename R::Target target_;
    std::optional<synth::SwizzleSolver<typename R::Moves>> solver_;
    Deadline deadline_;
};

} // namespace rake::backend

#endif // RAKE_BACKEND_ISA_BACKEND_H
