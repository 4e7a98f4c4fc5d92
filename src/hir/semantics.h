/**
 * @file
 * HIR lane semantics, written once over a lane algebra (base/arith.h).
 * The interpreter and the simplifier's constant folding run it over
 * int64 carriers (Int64Lanes); the z3 prover runs it over bit-vectors
 * (synth/z3_lanes.h).
 */
#ifndef RAKE_HIR_SEMANTICS_H
#define RAKE_HIR_SEMANTICS_H

#include "hir/expr.h"
#include "support/error.h"

namespace rake::hir {

/**
 * Dispatch on e's op once and hand `body` that op's lane function: a
 * callable lane(i) giving output lane i as an Alg::V, reading lane j
 * of operand k through arg(k, j). Returns what `body` returns, so an
 * interpreter loops over the lanes inside `body` and the prover asks
 * for one lane. Loads and vars are leaves each caller evaluates.
 *
 * Lane functions capture by value (arg too, so it should be a small
 * accessor): an interpreter's loop then holds the element type and
 * the operand pointers in registers instead of reloading them through
 * references on every lane.
 */
template <typename Alg, typename Arg, typename Body>
decltype(auto)
lane_semantics(const Alg &alg, const Expr &e, const Arg &arg, Body &&body)
{
    const ScalarType s = e.type().elem;
    auto x = [=](int i) { return arg(0, i); };
    auto y = [=](int i) { return arg(1, i); };
    switch (e.op()) {
      case Op::Const:
        return body([=, c = e.const_value()](int) {
            return alg.wrap(s, alg.lit(c));
        });
      case Op::Broadcast:
        return body([=, b = alg.wrap(s, x(0))](int) { return b; });
      case Op::Cast:
        return body([=](int i) { return alg.wrap(s, x(i)); });
      case Op::Not:
        return body([=](int i) { return alg.wrap(s, alg.not_(x(i))); });
      case Op::Select:
        return body([=](int i) {
            return alg.select(x(i), y(i), arg(2, i));
        });
      case Op::Add:
        return body([=](int i) { return alg.wrap(s, alg.add(x(i), y(i))); });
      case Op::Sub:
        return body([=](int i) { return alg.wrap(s, alg.sub(x(i), y(i))); });
      case Op::Mul:
        return body([=](int i) { return alg.wrap(s, alg.mul(x(i), y(i))); });
      case Op::Min:
        return body([=](int i) { return alg.min(x(i), y(i)); });
      case Op::Max:
        return body([=](int i) { return alg.max(x(i), y(i)); });
      case Op::AbsDiff:
        return body(
            [=](int i) { return alg.wrap(s, alg.absd(x(i), y(i))); });
      case Op::ShiftLeft:
        return body([=](int i) { return alg.shl(s, x(i), y(i)); });
      case Op::ShiftRight:
        // Arithmetic for signed elements, logical for unsigned.
        if (is_signed(s))
            return body([=](int i) {
                return alg.wrap(s, alg.asr(x(i), y(i), false));
            });
        return body([=](int i) { return alg.lsr(s, x(i), y(i)); });
      case Op::And:
        return body(
            [=](int i) { return alg.wrap(s, alg.and_(x(i), y(i))); });
      case Op::Or:
        return body([=](int i) { return alg.wrap(s, alg.or_(x(i), y(i))); });
      case Op::Xor:
        return body(
            [=](int i) { return alg.wrap(s, alg.xor_(x(i), y(i))); });
      case Op::Lt:
        return body([=](int i) { return alg.lt(x(i), y(i)); });
      case Op::Le:
        return body([=](int i) { return alg.le(x(i), y(i)); });
      case Op::Eq:
        return body([=](int i) { return alg.eq(x(i), y(i)); });
      case Op::Load:
      case Op::Var:
        break;
    }
    RAKE_UNREACHABLE("HIR leaf " << to_string(e.op())
                                 << " has no lane function");
}

} // namespace rake::hir

#endif // RAKE_HIR_SEMANTICS_H
