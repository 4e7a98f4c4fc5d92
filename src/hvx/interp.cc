#include "hvx/interp.h"

#include "base/arith.h"
#include "hvx/semantics.h"
#include "support/error.h"

namespace rake::hvx {

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
Interpreter::eval(const InstrPtr &n)
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

const Value &
Interpreter::eval_impl(const Instr &n)
{
    const VecType t = n.type();
    const ScalarType s = t.elem;
    const Env &env = *env_;

    switch (n.op()) {
      case Opcode::VRead: {
        const hir::LoadRef &r = n.load_ref();
        const Buffer &buf = env.buffer(r.buffer);
        RAKE_CHECK(buf.elem == s, "vmem elem type mismatch");
        Value &v = slot(t);
        buf.load_window(env.x + r.dx, env.y + r.dy, v);
        return v;
      }
      case Opcode::VSplat: {
        const int64_t x = hir_.eval(n.splat_value()).as_scalar();
        Value &v = slot(t);
        const int64_t c = wrap(s, x);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Opcode::Hole: {
        RAKE_CHECK(oracle_ != nullptr,
                   "evaluating a sketch hole without an oracle");
        Value hv = oracle_(n.hole_id(), env);
        Value &v = slot(hv.type);
        v.lanes = std::move(hv.lanes);
        return v;
      }
      default:
        break;
    }

    // Every other opcode runs its lane function (hvx/semantics.h),
    // dispatched once per node. At most 3 operands, evaluated into
    // interpreter slots (deque addresses are stable until reset()).
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

Value
evaluate(const InstrPtr &n, const Env &env)
{
    Interpreter interp(env);
    return interp.eval(n);
}

} // namespace rake::hvx
