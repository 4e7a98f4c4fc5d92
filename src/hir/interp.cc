#include "hir/interp.h"

#include "base/arith.h"
#include "hir/semantics.h"
#include "support/error.h"

namespace rake::hir {

Value &
Interpreter::slot(VecType t)
{
    if (used_ == slots_.size())
        slots_.emplace_back();
    Value &v = slots_[used_++];
    v.reset(t);
    return v;
}

const Value &
Interpreter::eval(const ExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "eval of null expression");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(e.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*e);
    memo_.emplace(e.get(), &v);
    return v;
}

const Value &
Interpreter::eval_impl(const Expr &e)
{
    const VecType t = e.type();
    const ScalarType s = t.elem;
    const Env &env = *env_;

    switch (e.op()) {
      case Op::Load: {
        const LoadRef &r = e.load_ref();
        const Buffer &buf = env.buffer(r.buffer);
        RAKE_CHECK(buf.elem == s, "load type " << to_string(s)
                                               << " != buffer elem "
                                               << to_string(buf.elem));
        Value &v = slot(t);
        buf.load_window(env.x + r.dx, env.y + r.dy, v);
        return v;
      }
      case Op::Var: {
        Value &v = slot(t);
        v[0] = wrap(s, env.scalar(e.var_name()));
        return v;
      }
      default:
        break;
    }

    // Every other op runs its lane function (hir/semantics.h),
    // dispatched once per node.
    const int64_t *args[3] = {};
    for (int k = 0; k < e.num_args(); ++k)
        args[k] = eval(e.arg(k)).lanes.data();
    Value &v = slot(t);
    return lane_semantics(
        Int64Lanes{}, e, [args](int k, int j) { return args[k][j]; },
        [&v](auto lane) -> const Value & {
            fill_lanes(v, lane);
            return v;
        });
}

Value
evaluate(const ExprPtr &e, const Env &env)
{
    Interpreter interp(env);
    return interp.eval(e);
}

} // namespace rake::hir
