#include "hir/interp.h"

#include "base/arith.h"
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
      case Op::Const: {
        Value &v = slot(t);
        const int64_t c = wrap(s, e.const_value());
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Op::Var: {
        Value &v = slot(t);
        v[0] = wrap(s, env.scalar(e.var_name()));
        return v;
      }
      case Op::Broadcast: {
        const int64_t x = eval(e.arg(0)).as_scalar();
        Value &v = slot(t);
        const int64_t c = wrap(s, x);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Op::Cast: {
        const Value &a = eval(e.arg(0));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, a[i]);
        return v;
      }
      case Op::Not: {
        const Value &a = eval(e.arg(0));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = wrap(s, ~a[i]);
        return v;
      }
      case Op::Select: {
        const Value &c = eval(e.arg(0));
        const Value &a = eval(e.arg(1));
        const Value &b = eval(e.arg(2));
        Value &v = slot(t);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c[i] != 0 ? a[i] : b[i];
        return v;
      }
      default:
        break;
    }

    // Remaining ops are lane-wise binaries, dispatched once per node.
    const Value &a = eval(e.arg(0));
    const Value &b = eval(e.arg(1));
    Value &v = slot(t);
    auto lanewise = [&](auto f) -> const Value & {
        for (int i = 0; i < t.lanes; ++i)
            v[i] = f(a[i], b[i]);
        return v;
    };
    switch (e.op()) {
      case Op::Add:
        return lanewise([s](int64_t x, int64_t y) {
            return add_wrap(s, x, y);
        });
      case Op::Sub:
        return lanewise([s](int64_t x, int64_t y) {
            return sub_wrap(s, x, y);
        });
      case Op::Mul:
        return lanewise([s](int64_t x, int64_t y) {
            return mul_wrap(s, x, y);
        });
      case Op::Min:
        return lanewise([](int64_t x, int64_t y) { return std::min(x, y); });
      case Op::Max:
        return lanewise([](int64_t x, int64_t y) { return std::max(x, y); });
      case Op::AbsDiff:
        return lanewise([s](int64_t x, int64_t y) {
            return wrap(s, abs_diff(x, y));
        });
      case Op::ShiftLeft:
        return lanewise([s](int64_t x, int64_t y) {
            return shift_left(s, x, static_cast<int>(y));
        });
      case Op::ShiftRight:
        if (is_signed(s))
            return lanewise([s](int64_t x, int64_t y) {
                return wrap(s, shift_right(x, static_cast<int>(y)));
            });
        return lanewise([s](int64_t x, int64_t y) {
            return logical_shift_right(s, x, static_cast<int>(y));
        });
      case Op::And:
        return lanewise([s](int64_t x, int64_t y) { return wrap(s, x & y); });
      case Op::Or:
        return lanewise([s](int64_t x, int64_t y) { return wrap(s, x | y); });
      case Op::Xor:
        return lanewise([s](int64_t x, int64_t y) { return wrap(s, x ^ y); });
      case Op::Lt:
        return lanewise(
            [](int64_t x, int64_t y) -> int64_t { return x < y ? 1 : 0; });
      case Op::Le:
        return lanewise(
            [](int64_t x, int64_t y) -> int64_t { return x <= y ? 1 : 0; });
      case Op::Eq:
        return lanewise(
            [](int64_t x, int64_t y) -> int64_t { return x == y ? 1 : 0; });
      default:
        RAKE_UNREACHABLE("unhandled binary op " << to_string(e.op()));
    }
}

Value
evaluate(const ExprPtr &e, const Env &env)
{
    Interpreter interp(env);
    return interp.eval(e);
}

} // namespace rake::hir
