#include "uir/interp.h"

#include "base/arith.h"
#include "support/error.h"
#include "uir/semantics.h"

namespace rake::uir {

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
Interpreter::eval(const UExprPtr &e)
{
    RAKE_CHECK(e != nullptr, "eval of null UIR expression");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(e.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*e);
    memo_.emplace(e.get(), &v);
    return v;
}

const Value &
Interpreter::eval_impl(const UExpr &e)
{
    if (e.op() == UOp::HirLeaf)
        return hir_.eval(e.leaf());

    // Evaluate arguments first (pointers stay valid: slots live in a
    // deque and are only rewound at reset()). Stack storage, not a
    // member: eval() recurses through this frame.
    constexpr size_t kMaxArgs = 32;
    const size_t nargs = e.args().size();
    RAKE_CHECK(nargs <= kMaxArgs, "UIR node with " << nargs << " args");
    const int64_t *argp[kMaxArgs];
    for (size_t k = 0; k < nargs; ++k)
        argp[k] = eval(e.args()[k]).lanes.data();

    // The op's lane function (uir/semantics.h), dispatched once.
    Value &v = slot(e.type());
    return lane_semantics(
        Int64Lanes{}, e, [&argp](int k, int j) { return argp[k][j]; },
        [&v](auto lane) -> const Value & {
            fill_lanes(v, lane);
            return v;
        });
}

Value
evaluate(const UExprPtr &e, const Env &env)
{
    Interpreter interp;
    interp.reset(env);
    return interp.eval(e);
}

} // namespace rake::uir
