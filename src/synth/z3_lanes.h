/**
 * @file
 * The lane algebra over z3 bit-vectors: the instantiation the prover
 * (synth/z3_verify.cc) runs every opcode's lane function over.
 *
 * It implements Int64Lanes' interface (base/arith.h) over 64-bit
 * bit-vector terms, primitive for primitive, including its wrap-around
 * in the 64-bit carrier and its rules for out-of-range shift amounts.
 * So a term built from constants simplifies to the value the
 * interpreters compute; the conformance test in tests/test_z3.cc
 * checks that for every primitive at every scalar type's extremes.
 */
#ifndef RAKE_SYNTH_Z3_LANES_H
#define RAKE_SYNTH_Z3_LANES_H

#include <cstdint>

#include <z3++.h>

#include "base/type.h"

namespace rake::synth {

class Z3Lanes
{
  public:
    using V = z3::expr;

    explicit Z3Lanes(z3::context &ctx) : ctx_(ctx) {}

    V lit(int64_t c) const { return ctx_.bv_val(c, 64); }

    /** Normalize to element type t (arith.h's wrap()). */
    V
    wrap(ScalarType t, const V &v) const
    {
        const int b = bits(t);
        if (b == 64)
            return v;
        return extend(v.extract(b - 1, 0), t);
    }

    /** Extend a BV(bits(t)) to BV64 per the signedness of t. */
    static V
    extend(const V &low, ScalarType t)
    {
        const int b = low.get_sort().bv_size();
        if (b == 64)
            return low;
        return is_signed(t) ? z3::sext(low, 64 - b) : z3::zext(low, 64 - b);
    }

    V
    sat(ScalarType t, const V &v) const
    {
        const V lo = lit(min_value(t));
        const V hi = lit(max_value(t));
        return z3::ite(z3::slt(v, lo), lo, z3::ite(z3::sgt(v, hi), hi, v));
    }

    static V add(const V &a, const V &b) { return a + b; }
    static V sub(const V &a, const V &b) { return a - b; }
    static V mul(const V &a, const V &b) { return a * b; }

    V
    avg(ScalarType t, const V &a, const V &b, bool round) const
    {
        return wrap(t, z3::ashr(a + b + lit(round ? 1 : 0), lit(1)));
    }

    V
    navg(ScalarType t, const V &a, const V &b, bool round) const
    {
        return wrap(t, z3::ashr(a - b + lit(round ? 1 : 0), lit(1)));
    }

    static V
    absd(const V &a, const V &b)
    {
        return z3::ite(z3::sgt(a, b), a - b, b - a);
    }

    static V
    min(const V &a, const V &b)
    {
        return z3::ite(z3::slt(a, b), a, b);
    }

    static V
    max(const V &a, const V &b)
    {
        return z3::ite(z3::sgt(a, b), a, b);
    }

    V lt(const V &a, const V &b) const { return flag(z3::slt(a, b)); }
    V le(const V &a, const V &b) const { return flag(z3::sle(a, b)); }
    V gt(const V &a, const V &b) const { return flag(z3::sgt(a, b)); }
    V eq(const V &a, const V &b) const { return flag(a == b); }

    V
    select(const V &c, const V &a, const V &b) const
    {
        return z3::ite(c != lit(0), a, b);
    }

    static V and_(const V &a, const V &b) { return a & b; }
    static V or_(const V &a, const V &b) { return a | b; }
    static V xor_(const V &a, const V &b) { return a ^ b; }
    static V not_(const V &a) { return ~a; }

    /** arith.h's shift_left: amounts <= 0 only wrap, >= 64 give 0. */
    V
    shl(ScalarType t, const V &v, const V &n) const
    {
        return unless_negative(n, wrap(t, v), wrap(t, z3::shl(v, n)));
    }

    /**
     * arith.h's shift_right: amounts <= 0 leave v, amounts >= 63 give
     * the sign without rounding, the rest add 1 << (n-1) first when
     * rounding.
     */
    V
    asr(const V &v, const V &n, bool round) const
    {
        if (!round)
            return unless_negative(n, v, z3::ashr(v, n));
        const V rounded = z3::ashr(v + z3::shl(lit(1), n - lit(1)), n);
        return z3::ite(z3::sle(n, lit(0)), v,
                       z3::ite(z3::sge(n, lit(63)), z3::ashr(v, lit(63)),
                               rounded));
    }

    /**
     * arith.h's logical_shift_right: mask to t's width, shift in
     * zeros. Amounts <= 0 only wrap; amounts >= bits(t) give 0.
     */
    V
    lsr(ScalarType t, const V &v, const V &n) const
    {
        const int b = bits(t);
        const V masked =
            b == 64 ? v
                    : (v & lit(static_cast<int64_t>(~uint64_t{0} >> (64 - b))));
        return unless_negative(n, wrap(t, v), wrap(t, z3::lshr(masked, n)));
    }

  private:
    V flag(const V &c) const { return z3::ite(c, lit(1), lit(0)); }

    /**
     * `low` when the amount n is negative, else `shifted`. z3's shifts
     * read n as unsigned, so a negative amount would shift everything
     * out; arith.h's leave the value alone.
     */
    V
    unless_negative(const V &n, const V &low, const V &shifted) const
    {
        return z3::ite(z3::slt(n, lit(0)), low, shifted);
    }

    z3::context &ctx_;
};

} // namespace rake::synth

#endif // RAKE_SYNTH_Z3_LANES_H
