/**
 * @file
 * The interpreter of every ISA's instruction DAGs (isa/node.h).
 *
 * This is the C++ analogue of the Racket interpreters the paper's
 * implementation hand-wrote for the LLVM HVX intrinsics (§6): every
 * equivalence check between HIR and selected code goes through it.
 * The leaves are evaluated here; every other opcode runs its lane
 * function from the ISA's `lane_semantics` (hvx/semantics.h,
 * neon/semantics.h), which the z3 prover instantiates too.
 *
 * Each ISA instantiates the template once, in its interp.cc, where
 * its semantics.h is visible, and its interp.h declares that
 * instantiation `extern`: code that evaluates an ISA's DAGs includes
 * that interp.h.
 */
#ifndef RAKE_ISA_INTERP_H
#define RAKE_ISA_INTERP_H

#include <deque>
#include <functional>
#include <unordered_map>

#include "base/arith.h"
#include "base/value.h"
#include "hir/interp.h"
#include "isa/node.h"
#include "support/error.h"

namespace rake::isa {

/**
 * Oracle supplying the value of a sketch hole (??load / ??swizzle)
 * during sketch verification: hole id + environment -> value.
 */
using HoleOracle = std::function<Value(int, const Env &)>;

/**
 * Evaluate instruction DAGs under one environment at a time.
 *
 * A reusable evaluation context like hir::Interpreter: reset() per
 * environment recycles the scratch slots, so steady-state evaluation
 * performs no per-node allocation. The hole oracle is sticky across
 * resets (set once per sketch, reset once per example).
 */
template <typename Traits>
class Interpreter
{
  public:
    using NodePtr = std::shared_ptr<const Node<Traits>>;

    Interpreter() = default;
    explicit Interpreter(const Env &env, HoleOracle oracle = nullptr)
        : oracle_(std::move(oracle))
    {
        reset(env);
    }

    /** Install the sketch-hole oracle (kept across reset()). */
    void set_oracle(HoleOracle oracle) { oracle_ = std::move(oracle); }

    /** Rebind to a new environment, recycling the scratch slots. */
    void
    reset(const Env &env)
    {
        env_ = &env;
        hir_.reset(env);
        memo_.clear();
        used_ = 0;
    }

    /**
     * Evaluate `n`. The returned reference is owned by the
     * interpreter and is valid until the next reset().
     */
    const Value &eval(const NodePtr &n);

  private:
    const Value &eval_impl(const Node<Traits> &n);
    Value &slot(VecType t);

    const Env *env_ = nullptr;
    HoleOracle oracle_;
    hir::Interpreter hir_;
    std::unordered_map<const Node<Traits> *, const Value *> memo_;
    std::deque<Value> slots_;
    size_t used_ = 0;
};

template <typename Traits>
Value &
Interpreter<Traits>::slot(VecType t)
{
    if (used_ == slots_.size())
        slots_.emplace_back();
    Value &v = slots_[used_++];
    v.reset(t);
    return v;
}

template <typename Traits>
const Value &
Interpreter<Traits>::eval(const NodePtr &n)
{
    RAKE_CHECK(n != nullptr, "eval of null instruction");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(n.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*n);
    RAKE_CHECK(v.type == n->type(), "interpreter produced "
                                        << to_string(v.type) << " for "
                                        << to_string(n->op()) << " typed "
                                        << to_string(n->type()));
    memo_.emplace(n.get(), &v);
    return v;
}

template <typename Traits>
const Value &
Interpreter<Traits>::eval_impl(const Node<Traits> &n)
{
    const VecType t = n.type();
    const Env &env = *env_;

    if (n.op() == Traits::kRead) {
        const hir::LoadRef &r = n.load_ref();
        const Buffer &buf = env.buffer(r.buffer);
        RAKE_CHECK(buf.elem == t.elem, to_string(n.op())
                                           << " elem type mismatch");
        Value &v = slot(t);
        buf.load_window(env.x + r.dx, env.y + r.dy, v);
        return v;
    }
    if (n.op() == Traits::kSplat) {
        const int64_t x = hir_.eval(n.splat_value()).as_scalar();
        Value &v = slot(t);
        const int64_t c = wrap(t.elem, x);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
    }
    if (n.op() == Traits::kHole) {
        RAKE_CHECK(oracle_ != nullptr,
                   "evaluating a sketch hole without an oracle");
        Value hv = oracle_(n.hole_id(), env);
        Value &v = slot(hv.type);
        v.lanes = std::move(hv.lanes);
        return v;
    }

    // Every other opcode runs its lane function, dispatched once per
    // node. At most 3 operands, evaluated into interpreter slots
    // (deque addresses are stable until reset()).
    RAKE_CHECK(n.num_args() <= 3, "instruction with " << n.num_args()
                                                      << " args");
    const int64_t *args[3] = {};
    for (int k = 0; k < n.num_args(); ++k)
        args[k] = eval(n.arg(k)).lanes.data();
    Value &v = slot(t);
    return lane_semantics(
        Int64Lanes{}, n, [args](int k, int j) { return args[k][j]; },
        [&v](auto lane) -> const Value & {
            fill_lanes(v, lane);
            return v;
        });
}

/** One-shot evaluation of a hole-free DAG. */
template <typename Traits>
Value
evaluate(const std::shared_ptr<const Node<Traits>> &n, const Env &env)
{
    Interpreter<Traits> interp(env);
    return interp.eval(n);
}

} // namespace rake::isa

#endif // RAKE_ISA_INTERP_H
