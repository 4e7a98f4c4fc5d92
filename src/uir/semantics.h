/**
 * @file
 * UIR lane semantics, written once over a lane algebra (base/arith.h)
 * for the interpreter (int64) and the z3 prover (bit-vectors).
 */
#ifndef RAKE_UIR_SEMANTICS_H
#define RAKE_UIR_SEMANTICS_H

#include "support/error.h"
#include "uir/uexpr.h"

namespace rake::uir {

/**
 * Dispatch on e's op once and hand `body` that op's lane function
 * lane(i), which reads lane j of operand k through arg(k, j); see
 * hir::lane_semantics. HirLeaf nodes are evaluated by each caller.
 *
 * The multiply-adds accumulate in the algebra's 64-bit carrier, where
 * a sum past int64 wraps; the saturating forms clamp that sum.
 */
template <typename Alg, typename Arg, typename Body>
decltype(auto)
lane_semantics(const Alg &alg, const UExpr &e, const Arg &arg, Body &&body)
{
    const ScalarType s = e.type().elem;
    const bool saturate = e.params().saturate;
    const bool round = e.params().round;
    const int shift = e.params().shift;
    const int64_t *kernel = e.params().kernel.data();
    const int nargs = e.num_args();
    auto x = [=](int i) { return arg(0, i); };
    auto y = [=](int i) { return arg(1, i); };
    // Wrapping or saturating cast of an exact carrier to s.
    auto narrow_to = [=](auto v) {
        return saturate ? alg.sat(s, v) : alg.wrap(s, v);
    };
    switch (e.op()) {
      case UOp::Widen:
        // Carriers hold exact values; widening preserves them.
        return body([=](int i) { return alg.wrap(s, x(i)); });
      case UOp::Narrow:
        return body([=](int i) {
            return narrow_to(alg.asr(x(i), alg.lit(shift), round));
        });
      case UOp::VsMpyAdd:
        return body([=](int i) {
            auto acc = alg.lit(0);
            for (int k = 0; k < nargs; ++k)
                acc = alg.add(acc, alg.mul(arg(k, i), alg.lit(kernel[k])));
            return narrow_to(acc);
        });
      case UOp::VvMpyAdd:
        return body([=](int i) {
            auto acc = alg.lit(0);
            for (int k = 0; k + 1 < nargs; k += 2)
                acc = alg.add(acc, alg.mul(arg(k, i), arg(k + 1, i)));
            return narrow_to(acc);
        });
      case UOp::AbsDiff:
        return body(
            [=](int i) { return alg.wrap(s, alg.absd(x(i), y(i))); });
      case UOp::Min:
        return body([=](int i) { return alg.min(x(i), y(i)); });
      case UOp::Max:
        return body([=](int i) { return alg.max(x(i), y(i)); });
      case UOp::Average:
        return body([=](int i) { return alg.avg(s, x(i), y(i), round); });
      case UOp::ShiftLeft:
        return body([=](int i) { return alg.shl(s, x(i), y(i)); });
      case UOp::ShiftRight:
        // Arithmetic for signed elements and for the rounding form;
        // logical for unsigned elements without rounding.
        if (is_signed(s) || round)
            return body([=](int i) {
                return alg.wrap(s, alg.asr(x(i), y(i), round));
            });
        return body([=](int i) { return alg.lsr(s, x(i), y(i)); });
      case UOp::And:
        return body(
            [=](int i) { return alg.wrap(s, alg.and_(x(i), y(i))); });
      case UOp::Or:
        return body([=](int i) { return alg.wrap(s, alg.or_(x(i), y(i))); });
      case UOp::Xor:
        return body(
            [=](int i) { return alg.wrap(s, alg.xor_(x(i), y(i))); });
      case UOp::Not:
        return body([=](int i) { return alg.wrap(s, alg.not_(x(i))); });
      case UOp::Lt:
        return body([=](int i) { return alg.lt(x(i), y(i)); });
      case UOp::Le:
        return body([=](int i) { return alg.le(x(i), y(i)); });
      case UOp::Eq:
        return body([=](int i) { return alg.eq(x(i), y(i)); });
      case UOp::Select:
        return body([=](int i) {
            return alg.select(x(i), y(i), arg(2, i));
        });
      case UOp::HirLeaf:
        break;
    }
    RAKE_UNREACHABLE("UIR leaf has no lane function");
}

} // namespace rake::uir

#endif // RAKE_UIR_SEMANTICS_H
