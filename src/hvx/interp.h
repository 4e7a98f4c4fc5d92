/**
 * @file
 * Executable semantics of the HVX instruction model.
 *
 * This is the C++ analogue of the Racket HVX interpreter the paper's
 * implementation hand-wrote for the LLVM HVX intrinsics (§6). All
 * equivalence proofs between HIR and generated HVX code go through
 * this interpreter.
 */
#ifndef RAKE_HVX_INTERP_H
#define RAKE_HVX_INTERP_H

#include <deque>
#include <functional>
#include <unordered_map>

#include "base/value.h"
#include "hir/interp.h"
#include "hvx/instr.h"

namespace rake::hvx {

/**
 * Oracle supplying the value of a sketch hole (??load / ??swizzle)
 * during sketch verification: hole id + environment -> value.
 */
using HoleOracle = std::function<Value(int, const Env &)>;

/**
 * Evaluate an HVX instruction DAG under an environment.
 *
 * A reusable evaluation context like hir::Interpreter: reset() per
 * environment recycles the scratch slots, so steady-state evaluation
 * performs no per-node allocation. The hole oracle is sticky across
 * resets (set once per sketch, reset once per example).
 */
class Interpreter
{
  public:
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
    const Value &eval(const InstrPtr &n);

  private:
    const Value &eval_impl(const Instr &n);
    Value &slot(VecType t);

    const Env *env_ = nullptr;
    HoleOracle oracle_;
    hir::Interpreter hir_;
    std::unordered_map<const Instr *, const Value *> memo_;
    std::deque<Value> slots_;
    size_t used_ = 0;
};

/** One-shot convenience wrapper. */
Value evaluate(const InstrPtr &n, const Env &env);

} // namespace rake::hvx

#endif // RAKE_HVX_INTERP_H
