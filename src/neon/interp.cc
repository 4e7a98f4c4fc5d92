#include "neon/interp.h"

#include "base/arith.h"
#include "hir/interp.h"
#include "neon/semantics.h"
#include "support/error.h"

namespace rake::neon {

const Value &
Interpreter::eval(const NInstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "evaluate of null instruction");
    RAKE_CHECK(env_ != nullptr, "eval before reset");
    return eval_node(*n);
}

const Value &
Interpreter::eval_node(const NInstr &n)
{
    auto it = memo_.find(&n);
    if (it != memo_.end())
        return it->second;

    const Env &env = *env_;
    const VecType t = n.type();
    const ScalarType s = t.elem;
    const int L = t.lanes;

    // Evaluate operands first: recursive inserts may rehash the memo,
    // but unordered_map guarantees element references stay valid.
    const int64_t *a[3] = {nullptr, nullptr, nullptr};
    for (int i = 0; i < n.num_args() && i < 3; ++i)
        a[i] = eval_node(*n.arg(i)).lanes.data();

    Value v = Value::zero(t);
    switch (n.op()) {
      case NOp::Ld1: {
        const hir::LoadRef &r = n.load_ref();
        env.buffer(r.buffer).load_window(env.x + r.dx, env.y + r.dy, v);
        break;
      }
      case NOp::Dup: {
        const Value sv = hir::evaluate(n.dup_value(), env);
        v = Value::splat(s, L, sv.as_scalar());
        break;
      }
      case NOp::Hole:
        RAKE_CHECK(oracle_ != nullptr,
                   "?? hole evaluated without an oracle");
        v = oracle_(n.hole_id(), env);
        break;
      default:
        // The op's lane function (neon/semantics.h), dispatched once.
        lane_semantics(
            Int64Lanes{}, n, [a](int k, int j) { return a[k][j]; },
            [&v](auto lane) { fill_lanes(v, lane); });
        break;
    }
    return memo_.emplace(&n, std::move(v)).first->second;
}

Value
evaluate(const NInstrPtr &n, const Env &env)
{
    Interpreter interp;
    interp.reset(env);
    return interp.eval(n);
}

} // namespace rake::neon
