#include "hir/simplify.h"

#include <unordered_map>

#include "base/arith.h"
#include "hir/analysis.h"
#include "hir/semantics.h"
#include "support/error.h"

namespace rake::hir {

namespace {

/** Ops folded to a constant when every operand is one. */
bool
folds(Op op)
{
    switch (op) {
      case Op::Cast:
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Min:
      case Op::Max:
      case Op::AbsDiff:
      case Op::ShiftLeft:
      case Op::ShiftRight:
        return true;
      default:
        return false;
    }
}

class Simplifier
{
  public:
    ExprPtr
    mutate(const ExprPtr &e)
    {
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        ExprPtr r = mutate_impl(e);
        memo_.emplace(e.get(), r);
        return r;
    }

  private:
    ExprPtr
    mutate_impl(const ExprPtr &e)
    {
        // Leaves are already minimal.
        if (e->num_args() == 0)
            return e;

        std::vector<ExprPtr> args;
        args.reserve(e->num_args());
        bool changed = false;
        for (const auto &a : e->args()) {
            args.push_back(mutate(a));
            changed |= args.back() != a;
        }

        const ScalarType s = e->type().elem;

        // Full constant folding when every child is constant.
        bool all_const = true;
        std::vector<int64_t> cvals(args.size());
        for (size_t i = 0; i < args.size(); ++i) {
            if (!as_const(args[i], &cvals[i])) {
                all_const = false;
                break;
            }
        }
        if (all_const && folds(e->op()))
            return Expr::make_const(
                lane_semantics(
                    Int64Lanes{}, *e,
                    [&cvals](int k, int) { return cvals[k]; },
                    [](auto lane) { return lane(0); }),
                e->type());

        switch (e->op()) {
          case Op::Cast: {
            const ExprPtr &a = args[0];
            // cast<T>(x) where x : T is the identity. Deliberately no
            // range-based cast-of-cast collapsing: Halide's simplifier
            // keeps the staged casts, and they mark the narrow
            // element widths the synthesizer wants to target.
            if (a->type().elem == s)
                return a;
            break;
          }
          case Op::Add: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            if (as_const(args[0], &c) && c == 0)
                return args[1];
            break;
          }
          case Op::Sub: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            break;
          }
          case Op::Mul: {
            int64_t c = 0;
            if (as_const(args[1], &c)) {
                if (c == 1)
                    return args[0];
                if (c == 0)
                    return Expr::make_const(0, e->type());
            }
            if (as_const(args[0], &c)) {
                if (c == 1)
                    return args[1];
                if (c == 0)
                    return Expr::make_const(0, e->type());
            }
            break;
          }
          case Op::ShiftLeft:
          case Op::ShiftRight: {
            int64_t c = 0;
            if (as_const(args[1], &c) && c == 0)
                return args[0];
            break;
          }
          case Op::Min: {
            // min(x, c) == x when range(x).max <= c, == c when
            // c <= range(x).min.
            int64_t c = 0;
            for (int i = 0; i < 2; ++i) {
                if (as_const(args[i], &c)) {
                    const Interval r = range_of(args[1 - i]);
                    if (r.max <= c)
                        return args[1 - i];
                    if (c <= r.min)
                        return args[i];
                }
            }
            if (equal(args[0], args[1]))
                return args[0];
            break;
          }
          case Op::Max: {
            int64_t c = 0;
            for (int i = 0; i < 2; ++i) {
                if (as_const(args[i], &c)) {
                    const Interval r = range_of(args[1 - i]);
                    if (r.min >= c)
                        return args[1 - i];
                    if (c >= r.max)
                        return args[i];
                }
            }
            if (equal(args[0], args[1]))
                return args[0];
            break;
          }
          case Op::Select: {
            int64_t c = 0;
            if (as_const(args[0], &c))
                return c != 0 ? args[1] : args[2];
            if (equal(args[1], args[2]))
                return args[1];
            break;
          }
          default:
            break;
        }

        if (!changed)
            return e;
        // Rebuild the node with the simplified children.
        switch (e->op()) {
          case Op::Cast:
            return Expr::make_cast(s, args[0]);
          case Op::Broadcast:
            return Expr::make_broadcast(args[0], e->type().lanes);
          default:
            return Expr::make(e->op(), std::move(args));
        }
    }

    std::unordered_map<const Expr *, ExprPtr> memo_;
};

} // namespace

ExprPtr
simplify(const ExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "simplify of null expression");
    Simplifier s;
    return s.mutate(e);
}

} // namespace rake::hir
