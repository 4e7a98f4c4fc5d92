/**
 * @file
 * Scalar and vector types shared by every IR in Rake (Halide-like HIR,
 * Uber-Instruction IR, and the HVX ISA model).
 *
 * All element values are carried in int64_t regardless of their declared
 * type; the type determines wrapping, saturation, widening, and
 * signedness behaviour (see base/arith.h).
 */
#ifndef RAKE_BASE_TYPE_H
#define RAKE_BASE_TYPE_H

#include <cstdint>
#include <string>

#include "support/error.h"

namespace rake {

/** Integer element types supported by the HVX model. */
enum class ScalarType : uint8_t {
    Int8,
    UInt8,
    Int16,
    UInt16,
    Int32,
    UInt32,
    Int64,
    UInt64,
};

/** Number of distinct ScalarType values. */
inline constexpr int kNumScalarTypes = 8;

/** Bit width of a scalar type. */
constexpr int
bits(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
      case ScalarType::UInt8:
        return 8;
      case ScalarType::Int16:
      case ScalarType::UInt16:
        return 16;
      case ScalarType::Int32:
      case ScalarType::UInt32:
        return 32;
      case ScalarType::Int64:
      case ScalarType::UInt64:
        return 64;
    }
    return 0;
}

/** Byte width of a scalar type. */
constexpr int
bytes(ScalarType t)
{
    return bits(t) / 8;
}

/** Whether a scalar type is signed. */
constexpr bool
is_signed(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
      case ScalarType::Int16:
      case ScalarType::Int32:
      case ScalarType::Int64:
        return true;
      default:
        return false;
    }
}

/** The signed type of the same width. */
constexpr ScalarType
to_signed(ScalarType t)
{
    switch (t) {
      case ScalarType::UInt8:
        return ScalarType::Int8;
      case ScalarType::UInt16:
        return ScalarType::Int16;
      case ScalarType::UInt32:
        return ScalarType::Int32;
      case ScalarType::UInt64:
        return ScalarType::Int64;
      default:
        return t;
    }
}

/** The unsigned type of the same width. */
constexpr ScalarType
to_unsigned(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
        return ScalarType::UInt8;
      case ScalarType::Int16:
        return ScalarType::UInt16;
      case ScalarType::Int32:
        return ScalarType::UInt32;
      case ScalarType::Int64:
        return ScalarType::UInt64;
      default:
        return t;
    }
}

/** The type with double the bit width and the same signedness. */
constexpr ScalarType
widen(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
        return ScalarType::Int16;
      case ScalarType::UInt8:
        return ScalarType::UInt16;
      case ScalarType::Int16:
        return ScalarType::Int32;
      case ScalarType::UInt16:
        return ScalarType::UInt32;
      case ScalarType::Int32:
        return ScalarType::Int64;
      case ScalarType::UInt32:
        return ScalarType::UInt64;
      default:
        return t; // 64-bit types do not widen further
    }
}

/** The type with half the bit width and the same signedness. */
constexpr ScalarType
narrow(ScalarType t)
{
    switch (t) {
      case ScalarType::Int16:
        return ScalarType::Int8;
      case ScalarType::UInt16:
        return ScalarType::UInt8;
      case ScalarType::Int32:
        return ScalarType::Int16;
      case ScalarType::UInt32:
        return ScalarType::UInt16;
      case ScalarType::Int64:
        return ScalarType::Int32;
      case ScalarType::UInt64:
        return ScalarType::UInt32;
      default:
        return t; // 8-bit types do not narrow further
    }
}

/** Minimum representable value of a scalar type. */
constexpr int64_t
min_value(ScalarType t)
{
    if (!is_signed(t))
        return 0;
    switch (bits(t)) {
      case 8:
        return INT8_MIN;
      case 16:
        return INT16_MIN;
      case 32:
        return INT32_MIN;
      default:
        return INT64_MIN;
    }
}

/**
 * Maximum representable value of a scalar type.
 *
 * UInt64's true maximum does not fit in int64_t; the HVX model never
 * produces UInt64 results wider than INT64_MAX, and we clamp there.
 */
constexpr int64_t
max_value(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
        return INT8_MAX;
      case ScalarType::UInt8:
        return UINT8_MAX;
      case ScalarType::Int16:
        return INT16_MAX;
      case ScalarType::UInt16:
        return UINT16_MAX;
      case ScalarType::Int32:
        return INT32_MAX;
      case ScalarType::UInt32:
        return UINT32_MAX;
      default:
        return INT64_MAX;
    }
}

/** Short mnemonic ("i16", "u8", ...). */
std::string to_string(ScalarType t);

/** Parse a mnemonic produced by to_string; throws UserError if unknown. */
ScalarType scalar_type_from_string(const std::string &s);

/**
 * The most lanes a vector type may have. The suite's widest types
 * have a few hundred lanes; at this ceiling no lane arithmetic in the
 * typing rules (twice the lanes of a pair, bytes times lanes of a
 * bitcast) can overflow an int. Parsers reject a longer type, and the
 * instruction factories a result past it.
 */
constexpr int kMaxLanes = 1 << 16;

/**
 * The largest magnitude of a load's x or y offset. The suite's
 * stencils reach a few pixels; at this ceiling a tile coordinate plus
 * an offset plus a lane index stays far inside an int. The load
 * factories (hir::Expr::make_load, isa::Node::make_read) refuse an
 * offset past it, so every parser does.
 */
constexpr int kMaxOffset = 1 << 20;

/**
 * A vector type: an element type plus a lane count.
 *
 * Lane count 1 denotes a scalar. HVX native vectors are 128 bytes wide
 * (128 x u8, 64 x u16, 32 x u32); a "vector pair" doubles the lane
 * count. Synthesis runs on width-reduced vectors, so lane counts are
 * not restricted to the native sizes.
 */
struct VecType {
    ScalarType elem = ScalarType::Int32;
    int lanes = 1;

    constexpr VecType() = default;
    constexpr VecType(ScalarType e, int l) : elem(e), lanes(l) {}

    constexpr bool is_scalar() const { return lanes == 1; }
    constexpr int total_bytes() const { return bytes(elem) * lanes; }

    /** Same lane count, different element type. */
    constexpr VecType
    with_elem(ScalarType e) const
    {
        return VecType(e, lanes);
    }

    /** Same element type, different lane count. */
    constexpr VecType
    with_lanes(int l) const
    {
        return VecType(elem, l);
    }

    constexpr bool
    operator==(const VecType &o) const
    {
        return elem == o.elem && lanes == o.lanes;
    }
    constexpr bool operator!=(const VecType &o) const { return !(*this == o); }
};

/** "i16x64"-style rendering; scalars render as just the element type. */
std::string to_string(const VecType &t);

/**
 * Parse a type atom produced by to_string(VecType): "i16x64", or a
 * bare element type for one lane. Throws UserError on an unknown
 * element type or a lane count outside [1, INT_MAX].
 */
VecType vec_type_from_string(const std::string &s);

} // namespace rake

#endif // RAKE_BASE_TYPE_H
