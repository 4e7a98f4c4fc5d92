/**
 * @file
 * The target-ISA boundary of the synthesis stack (paper §6).
 *
 * Rake's pipeline is three stages: lift HIR to the Uber-Instruction
 * IR, enumerate + CEGIS-verify compute sketches per uber-instruction,
 * then synthesize the data movement for each remaining ??swizzle hole
 * under a cost budget. Only the *instruction repertoire* in stages
 * two and three is target-specific; the search itself — memoized
 * lowering over (node, layout), lane-0 pruning, counterexample
 * refinement, budgeted backtracking on cost — is not. TargetISA is
 * that repertoire as an interface:
 *
 *  - candidates(): the sketch grammar, specialized per uber-op. The
 *    backend receives a LowerDriver so grammar templates can recurse
 *    into the shared memoized search for sub-expressions.
 *  - make_evaluator() + hole_value(): the interpreter context used by
 *    CEGIS to test candidate sketches against the reference, with
 *    ??-holes answered through an oracle.
 *  - solve_hole(): the swizzle repertoire. Given a hole's required
 *    lane arrangement, return a concrete data-movement DAG within the
 *    budget (or nullopt so the search can backtrack).
 *  - cost_of() / instruction_count(): the cycle-cost model driving
 *    the lowest-cost search and the swizzle budget accounting.
 *
 * A TargetISA instance is created per lowering run and may carry
 * mutable per-run state (e.g. a swizzle memo table); the core calls
 * it from one thread.
 */
#ifndef RAKE_BACKEND_TARGET_ISA_H
#define RAKE_BACKEND_TARGET_ISA_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/instr_handle.h"
#include "base/value.h"
#include "hir/expr.h"
#include "support/deadline.h"
#include "synth/symbolic_vector.h"
#include "uir/uexpr.h"

namespace rake::synth {
struct SwizzleStats;
} // namespace rake::synth

namespace rake::backend {

/** Answers ??-hole reads during candidate evaluation. */
using HoleOracle = std::function<Value(int, const Env &)>;

/**
 * Target-independent cost triple. `scalar` is the backend's headline
 * metric (HVX: the per-resource bottleneck; simpler targets: the
 * instruction count); ties break on total instructions, then total
 * latency — the same ordering hvx::Cost uses, so the HVX port keeps
 * its exact search trajectory.
 */
struct Cost {
    int scalar = 0;
    int total_instructions = 0;
    int total_latency = 0;

    bool
    better_than(const Cost &o) const
    {
        if (scalar != o.scalar)
            return scalar < o.scalar;
        if (total_instructions != o.total_instructions)
            return total_instructions < o.total_instructions;
        return total_latency < o.total_latency;
    }
};

/** A candidate lowering: instruction DAG with ??-holes + their specs. */
struct Sketch {
    InstrHandle root;
    std::vector<synth::Hole> holes;
    std::string note; ///< grammar-template tag, for tracing

    bool
    defined() const
    {
        return root != nullptr;
    }
};

/**
 * The core's recursion surface, handed to candidates() so grammar
 * templates can lower sub-expressions through the shared memoized
 * search (and pin synthetic helper nodes for the memo's lifetime).
 */
class LowerDriver
{
  public:
    virtual ~LowerDriver() = default;

    /** Memoized recursive lowering of a sub-expression. */
    virtual std::optional<InstrHandle> lowered(const uir::UExprPtr &u,
                                               synth::Layout layout) = 0;

    /**
     * Keep a synthetic UIR node alive for the run (the lowering memo
     * keys on raw node pointers).
     */
    virtual uir::UExprPtr pin(uir::UExprPtr u) = 0;

    /** Is the layout search (LowerOptions::layouts) enabled? */
    virtual bool layouts_enabled() const = 0;
};

/**
 * A reusable interpreter context for candidate DAGs. Mirrors the
 * allocation-lean reset()/eval() protocol of hvx::Interpreter: the
 * oracle is sticky across reset(), eval() results stay valid until
 * the next reset().
 */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    virtual void set_oracle(HoleOracle oracle) = 0;
    virtual void reset(const Env &env) = 0;
    virtual const Value &eval(const InstrHandle &instr) = 0;
};

/** See the file comment. One instance per lowering run. */
class TargetISA
{
  public:
    virtual ~TargetISA() = default;

    /** Stable backend name ("hvx", "neon"); keys caches and metrics. */
    virtual std::string name() const = 0;

    /**
     * Append candidate sketches for lowering `u` with result layout
     * `layout`. Candidates the grammar cannot build (e.g. an
     * unsupported layout for this target) are simply not emitted.
     */
    virtual void candidates(const uir::UExprPtr &u, synth::Layout layout,
                            LowerDriver &driver,
                            std::vector<Sketch> &out) = 0;

    /** Issue-count of a DAG (deduplicated), for budget accounting. */
    virtual int instruction_count(const InstrHandle &instr) const = 0;

    /** Replace hole `i` with solutions[i] throughout the DAG. */
    virtual InstrHandle
    substitute_holes(const InstrHandle &root,
                     const std::vector<InstrHandle> &solutions) const = 0;

    /**
     * Swizzle synthesis: a data-movement DAG realizing the hole's
     * arrangement within `budget` issues, or nullopt.
     */
    virtual std::optional<InstrHandle>
    solve_hole(const synth::Hole &hole, int budget,
               synth::SwizzleStats &stats) = 0;

    /** Full cost of a complete (hole-free) DAG. */
    virtual Cost cost_of(const InstrHandle &instr) const = 0;

    /** Fresh interpreter context for CEGIS candidate evaluation. */
    virtual std::unique_ptr<Evaluator> make_evaluator() const = 0;

    /**
     * Oracle value of a hole under `env`: concretize the arrangement,
     * evaluating Src-cell sources with this backend's interpreter
     * (threading `oracle` through for nested holes).
     */
    virtual Value hole_value(const synth::Hole &hole, const Env &env,
                             const HoleOracle &oracle) const = 0;

    /**
     * Wall-clock budget for this run; the backend's own search loops
     * (the swizzle solver) poll it and throw TimeoutError on expiry.
     * Called by the core lowerer before any candidates()/solve_hole()
     * call. Backends without internal search may ignore it.
     */
    virtual void
    set_deadline(const Deadline &deadline)
    {
        (void)deadline;
    }

    /**
     * The target's greedy (synthesis-free) selector over a whole HIR
     * expression — the degradation path select_instructions_for()
     * takes when a deadline expires, so the pipeline still emits a
     * runnable program. Must be fast and bounded (it runs *after* the
     * budget is spent, deliberately without a deadline). Backends
     * without a greedy mapper return nullopt and degrade to nothing.
     */
    virtual std::optional<InstrHandle>
    greedy_select(const hir::ExprPtr &expr) const
    {
        (void)expr;
        return std::nullopt;
    }

    /**
     * Round-trippable s-expression of a complete (hole-free) DAG, for
     * the persistent cache (synth/persist.h). An empty string means
     * the backend has no serialization, which disables the disk tier
     * for it — the in-memory tier and synthesis are unaffected.
     */
    virtual std::string
    instr_to_sexpr(const InstrHandle &instr) const
    {
        (void)instr;
        return {};
    }

    /**
     * Inverse of instr_to_sexpr. Throws UserError on malformed input
     * (the persistent cache treats that as a corrupt entry, i.e. a
     * miss); returns nullptr when serialization is unsupported.
     */
    virtual InstrHandle
    instr_from_sexpr(const std::string &text) const
    {
        (void)text;
        return nullptr;
    }

    /**
     * Version keys for persisted entries. Bump grammar_version() when
     * what synthesis can return for a key changes (the sketch/swizzle
     * repertoire, or the examples a candidate must match) and
     * cost_model_version() when the cost model changes: either bump
     * self-invalidates every on-disk entry written under the old key,
     * so a stale cache can never replay a selection today's search
     * would not make.
     */
    virtual int grammar_version() const { return 1; }
    virtual int cost_model_version() const { return 1; }
};

} // namespace rake::backend

#endif // RAKE_BACKEND_TARGET_ISA_H
