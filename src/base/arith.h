/**
 * @file
 * Fixed-point arithmetic with explicit wrapping, saturating and
 * rounding semantics, and the lane algebra built on it.
 *
 * Every opcode's lane function is written once, as a template over a
 * lane algebra: `hir/semantics.h`, `uir/semantics.h`,
 * `hvx/semantics.h` and `neon/semantics.h`. `Int64Lanes` below is the
 * instantiation the interpreters run, over int64 carriers;
 * `synth/z3_lanes.h` instantiates the same interface over 64-bit z3
 * bit-vectors for the prover. So the interpreters and the z3 proofs
 * run one definition, and this file's rules (for out-of-range shift
 * amounts, say) are what both mean.
 */
#ifndef RAKE_BASE_ARITH_H
#define RAKE_BASE_ARITH_H

#include <cstdint>

#include "base/type.h"

namespace rake {

/**
 * Reinterpret the low bits(t) bits of v as a value of type t
 * (two's-complement wrap-around, the semantics of a non-saturating
 * machine op writing a register of that width).
 */
inline int64_t
wrap(ScalarType t, int64_t v)
{
    const int b = bits(t);
    if (b == 64)
        return v;
    const uint64_t mask = (uint64_t{1} << b) - 1;
    uint64_t u = static_cast<uint64_t>(v) & mask;
    if (is_signed(t) && (u & (uint64_t{1} << (b - 1))))
        u |= ~mask; // sign extend
    return static_cast<int64_t>(u);
}

/** Clamp v into the representable range of t (saturating cast). */
inline int64_t
saturate(ScalarType t, int64_t v)
{
    const int64_t lo = min_value(t);
    const int64_t hi = max_value(t);
    if (v < lo)
        return lo;
    if (v > hi)
        return hi;
    return v;
}

/** True iff v is representable in type t without wrapping. */
inline bool
fits_in(ScalarType t, int64_t v)
{
    return v >= min_value(t) && v <= max_value(t);
}

/**
 * Arithmetic shift right with optional round-to-nearest (adds
 * 1 << (n-1) before shifting, the HVX ":rnd" behaviour). Amounts
 * <= 0 leave v unchanged; amounts >= 63 collapse to the sign, with no
 * rounding.
 */
inline int64_t
shift_right(int64_t v, int64_t n, bool round = false)
{
    if (n <= 0)
        return v;
    if (n >= 63)
        return v < 0 ? -1 : 0;
    if (round) {
        // The rounding add wraps in uint64_t: v near INT64_MAX (a
        // widening-multiply accumulator can get there) must not
        // overflow the signed carrier, which would be UB.
        v = static_cast<int64_t>(static_cast<uint64_t>(v) +
                                 (uint64_t{1} << (n - 1)));
    }
    return v >> n;
}

/**
 * Shift left with wrap-around in the given type. Amounts <= 0 only
 * wrap v; amounts >= 64 give 0.
 */
inline int64_t
shift_left(ScalarType t, int64_t v, int64_t n)
{
    if (n <= 0)
        return wrap(t, v);
    if (n >= 64)
        return 0;
    return wrap(t, static_cast<int64_t>(static_cast<uint64_t>(v) << n));
}

/**
 * Logical (zero-fill) shift right within the width of t. Amounts <= 0
 * only wrap v; amounts >= bits(t) give 0.
 */
inline int64_t
logical_shift_right(ScalarType t, int64_t v, int64_t n)
{
    if (n <= 0)
        return wrap(t, v);
    const int b = bits(t);
    if (n >= b)
        return 0;
    const uint64_t mask =
        b == 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1;
    const uint64_t u = static_cast<uint64_t>(v) & mask;
    return wrap(t, static_cast<int64_t>(u >> n));
}

/** Saturating addition in type t. */
inline int64_t
add_sat(ScalarType t, int64_t a, int64_t b)
{
    return saturate(t, a + b);
}

/** Saturating subtraction in type t. */
inline int64_t
sub_sat(ScalarType t, int64_t a, int64_t b)
{
    return saturate(t, a - b);
}

/**
 * Average of two lanes computed in a wider type, optionally rounding
 * up (the HVX vavg / vavg:rnd behaviour). Never overflows.
 */
inline int64_t
average(ScalarType t, int64_t a, int64_t b, bool round)
{
    // Sum in uint64_t so extreme int64 carriers cannot overflow
    // (UB); the wrap-around result matches machine semantics.
    const int64_t sum = static_cast<int64_t>(
        static_cast<uint64_t>(a) + static_cast<uint64_t>(b) +
        (round ? 1u : 0u));
    return wrap(t, sum >> 1);
}

/**
 * Negative average: (a - b) averaged toward zero, the HVX vnavg
 * behaviour (a - b, arithmetically halved).
 */
inline int64_t
neg_average(ScalarType t, int64_t a, int64_t b, bool round)
{
    // Same unsigned-carrier trick as average(): a - b can overflow
    // int64 when the operands have opposite extreme signs.
    const int64_t diff = static_cast<int64_t>(
        static_cast<uint64_t>(a) - static_cast<uint64_t>(b) +
        (round ? 1u : 0u));
    return wrap(t, diff >> 1);
}

/**
 * Absolute difference, computed in uint64_t: a difference past
 * INT64_MAX (64-bit lanes only) wraps, which every caller's wrap() to
 * the lane type expects.
 */
inline int64_t
abs_diff(int64_t a, int64_t b)
{
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    return static_cast<int64_t>(a > b ? ua - ub : ub - ua);
}

/**
 * The lane algebra over int64 carriers. Values are 64-bit two's-
 * complement carriers: add, sub, mul, absd and the bit ops compute in
 * the carrier, where overflow wraps; wrap() and sat() bring a carrier
 * into a lane type. Compares give 1 or 0, select() takes any nonzero
 * condition as true, min and max compare signed carriers. Shift
 * amounts are carriers too, with the out-of-range rules of
 * shift_left, shift_right and logical_shift_right above. A lane
 * function combines these; it never touches the carrier directly.
 */
struct Int64Lanes {
    using V = int64_t;

    static V lit(int64_t c) { return c; }
    static V wrap(ScalarType t, V v) { return rake::wrap(t, v); }
    static V sat(ScalarType t, V v) { return saturate(t, v); }

    static V
    add(V a, V b)
    {
        return static_cast<V>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
    }

    static V
    sub(V a, V b)
    {
        return static_cast<V>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
    }

    static V
    mul(V a, V b)
    {
        return static_cast<V>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
    }

    static V
    avg(ScalarType t, V a, V b, bool round)
    {
        return average(t, a, b, round);
    }

    static V
    navg(ScalarType t, V a, V b, bool round)
    {
        return neg_average(t, a, b, round);
    }

    static V absd(V a, V b) { return abs_diff(a, b); }
    static V min(V a, V b) { return a < b ? a : b; }
    static V max(V a, V b) { return a > b ? a : b; }
    static V lt(V a, V b) { return a < b ? 1 : 0; }
    static V le(V a, V b) { return a <= b ? 1 : 0; }
    static V gt(V a, V b) { return a > b ? 1 : 0; }
    static V eq(V a, V b) { return a == b ? 1 : 0; }
    static V select(V c, V a, V b) { return c != 0 ? a : b; }
    static V and_(V a, V b) { return a & b; }
    static V or_(V a, V b) { return a | b; }
    static V xor_(V a, V b) { return a ^ b; }
    static V not_(V a) { return ~a; }
    static V shl(ScalarType t, V v, V n) { return shift_left(t, v, n); }
    static V asr(V v, V n, bool round) { return shift_right(v, n, round); }

    static V
    lsr(ScalarType t, V v, V n)
    {
        return logical_shift_right(t, v, n);
    }
};

} // namespace rake

#endif // RAKE_BASE_ARITH_H
