/**
 * @file
 * Tests for the preliminary ARM Neon backend (paper §6): the shared
 * Uber-Instruction IR lowers onto a second ISA, the fused Neon
 * narrowing families are selected, and lift-once/lower-twice agrees
 * with both the HIR reference and the HVX backend.
 */
#include <gtest/gtest.h>

#include "hir/builder.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hvx/interp.h"
#include "neon/select.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::hir;
using neon::NInstrPtr;
using neon::NOp;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr int L = 64;

int
count_op(const NInstrPtr &n, NOp op)
{
    int c = n->op() == op ? 1 : 0;
    for (const auto &a : n->args())
        c += count_op(a, op);
    return c;
}

NInstrPtr
select_checked(const HExpr &e)
{
    auto n = neon::select_instructions(e.ptr());
    EXPECT_TRUE(n.has_value()) << hir::to_string(e.ptr());
    if (!n)
        return nullptr;
    for (const Env &env : test::environments_for(e.ptr(), 8, 31)) {
        EXPECT_EQ(hir::evaluate(e.ptr(), env),
                  neon::evaluate(*n, env))
            << hir::to_string(e.ptr()) << "\n" << neon::to_listing(*n);
    }
    return *n;
}

HExpr
in(int dx, int dy = 0)
{
    return load(0, u8, L, dx, dy);
}

TEST(Neon, WideningConvUsesMullMlalChain)
{
    HExpr e = cast(u16, in(-1)) + cast(u16, in(0)) * 2 +
              cast(u16, in(1));
    NInstrPtr code = select_checked(e);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(count_op(code, NOp::Mull), 1);
    EXPECT_EQ(count_op(code, NOp::Mlal), 2);
    EXPECT_EQ(count_op(code, NOp::Add), 0);
}

TEST(Neon, FusedSaturatingRoundingNarrow)
{
    // The gaussian3x3 ending maps to Neon's native vqrshrun family.
    HExpr x = cast(u16, in(0)) * 15;
    HExpr e = cast(u8, (x + 8) >> 4);
    NInstrPtr code = select_checked(e);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(count_op(code, NOp::Qrshrn), 1);
}

TEST(Neon, AverageUsesRhadd)
{
    HExpr e = cast(u8, (cast(u16, in(0)) + cast(u16, in(1)) + 1) >> 1);
    NInstrPtr code = select_checked(e);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(count_op(code, NOp::Rhadd), 1);
    EXPECT_EQ(count_op(code, NOp::Movl), 0);
}

TEST(Neon, MinMaxAbsdSelect)
{
    NInstrPtr c1 = select_checked(absd(in(0), in(1)));
    EXPECT_EQ(count_op(c1, NOp::Abd), 1);
    NInstrPtr c2 =
        select_checked(select(lt(in(0), in(1)), in(0), in(1)));
    EXPECT_EQ(count_op(c2, NOp::Bsl), 1);
    EXPECT_EQ(count_op(c2, NOp::Cmgt), 1);
}

TEST(Neon, SaturatingClampNarrow)
{
    HExpr x = cast(u16, in(0)) * 9;
    HExpr e = cast(u8, clamp(x, 0, 255));
    NInstrPtr code = select_checked(e);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(count_op(code, NOp::Qxtn), 1);
    EXPECT_EQ(count_op(code, NOp::Min), 0);
}

TEST(Neon, WordMultiplyAccumulateWrapsPastInt64)
{
    // u32 x u32 products pass INT64_MAX: vmla must wrap in the lane
    // type, not overflow the int64 carrier first.
    constexpr ScalarType u32 = ScalarType::UInt32;
    const NInstrPtr big = neon::NInstr::make_dup(
        hir::Expr::make_const(0xffffffff, VecType(u32, 1)), 4);
    const Value m =
        neon::evaluate(neon::NInstr::make(NOp::Mla, {big, big, big}), Env{});
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m[i], 0);
}

TEST(Neon, LiftOnceLowerTwice)
{
    // The §6 retargetability claim, end to end: one lifted form, two
    // ISAs, three-way agreement with the reference.
    HExpr e = cast(u8,
                   clamp((cast(u16, in(-1)) + cast(u16, in(0)) * 2 +
                          cast(u16, in(1)) + 2) >>
                             2,
                         0, 255));
    auto hvx_r = synth::select_instructions(e.ptr());
    auto neon_r = neon::select_instructions(e.ptr());
    ASSERT_TRUE(hvx_r.has_value());
    ASSERT_TRUE(neon_r.has_value());
    for (const Env &env : test::environments_for(e.ptr(), 6, 17)) {
        const Value ref = hir::evaluate(e.ptr(), env);
        EXPECT_EQ(hvx::evaluate(hvx_r->instr, env), ref);
        EXPECT_EQ(neon::evaluate(*neon_r, env), ref);
    }
}

TEST(Neon, SobelLowersAndValidates)
{
    // The full Fig. 3 kernel retargets too.
    HExpr sobel_like =
        cast(u8,
             clamp(absd(cast(u16, in(-1, -1)) +
                            cast(u16, in(0, -1)) * 2 +
                            cast(u16, in(1, -1)),
                        cast(u16, in(-1, 1)) +
                            cast(u16, in(0, 1)) * 2 +
                            cast(u16, in(1, 1))),
                   0, 255));
    NInstrPtr code = select_checked(sobel_like);
    ASSERT_NE(code, nullptr);
    EXPECT_GT(code->instruction_count(), 3);
}

class NeonDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(NeonDifferential, RandomExpressionsSelectCorrectly)
{
    test::ExprGen gen(GetParam() * 192161 + 29, /*lanes=*/16);
    for (int i = 0; i < 3; ++i) {
        hir::ExprPtr e = gen.gen(3);
        auto n = neon::select_instructions(e);
        if (!n)
            continue; // preliminary port: unmapped shapes may bail
        for (const Env &env : test::environments_for(e, 5, 41)) {
            EXPECT_EQ(hir::evaluate(e, env), neon::evaluate(*n, env))
                << hir::to_string(e);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeonDifferential,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// Element-wise boundary tests for the Neon interpreter's saturating,
// widening, and narrowing ops. Each op is fed every pair of boundary
// values (min, min+1, -1, 0, 1, max-1, max of the operand type) and
// compared lane-by-lane against a scalar reference written here from
// the architectural definition — independent of base/arith.h, so a
// helper regression shows up as a disagreement.

/** min, min+1, -1, 0, 1, max-1, max — clipped to the type's range. */
std::vector<int64_t>
boundary_values(ScalarType t)
{
    const int64_t lo = min_value(t);
    const int64_t hi = max_value(t);
    std::vector<int64_t> vals{lo, lo + 1, -1, 0, 1, hi - 1, hi};
    for (int64_t &v : vals)
        v = std::min(std::max(v, lo), hi);
    return vals;
}

/** All ordered pairs of boundary values of t. */
std::vector<std::pair<int64_t, int64_t>>
boundary_pairs(ScalarType t)
{
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t a : boundary_values(t))
        for (int64_t b : boundary_values(t))
            pairs.emplace_back(a, b);
    return pairs;
}

/** Env with buffer 0 = lhs lanes, buffer 1 = rhs lanes, of type t. */
Env
lane_env(ScalarType t,
         const std::vector<std::pair<int64_t, int64_t>> &pairs)
{
    Env env;
    const int n = static_cast<int>(pairs.size());
    Buffer a(t, n), b(t, n);
    for (int i = 0; i < n; ++i) {
        a.data[static_cast<size_t>(i)] = pairs[static_cast<size_t>(i)].first;
        b.data[static_cast<size_t>(i)] = pairs[static_cast<size_t>(i)].second;
    }
    env.buffers.emplace(0, std::move(a));
    env.buffers.emplace(1, std::move(b));
    return env;
}

/** Two's-complement reinterpretation into t, written from scratch. */
int64_t
ref_wrap(ScalarType t, int64_t v)
{
    switch (t) {
      case ScalarType::Int8:
        return static_cast<int8_t>(static_cast<uint64_t>(v));
      case ScalarType::UInt8:
        return static_cast<uint8_t>(static_cast<uint64_t>(v));
      case ScalarType::Int16:
        return static_cast<int16_t>(static_cast<uint64_t>(v));
      case ScalarType::UInt16:
        return static_cast<uint16_t>(static_cast<uint64_t>(v));
      case ScalarType::Int32:
        return static_cast<int32_t>(static_cast<uint64_t>(v));
      case ScalarType::UInt32:
        return static_cast<uint32_t>(static_cast<uint64_t>(v));
      default:
        return v;
    }
}

/** Clamp into t's range (the ARM "saturating" qualifier). */
int64_t
ref_saturate(ScalarType t, int64_t v)
{
    if (v < min_value(t))
        return min_value(t);
    if (v > max_value(t))
        return max_value(t);
    return v;
}

/** Floor division by 2^n (arithmetic shift semantics). */
int64_t
ref_floor_shift(int64_t v, int n)
{
    // int64 arithmetic right shift is floor division in C++20.
    return v >> n;
}

class NeonBoundary : public ::testing::TestWithParam<ScalarType>
{
};

TEST_P(NeonBoundary, QaddSaturatesAtTypeRange)
{
    const ScalarType t = GetParam();
    const auto pairs = boundary_pairs(t);
    const Env env = lane_env(t, pairs);
    const VecType vt(t, static_cast<int>(pairs.size()));
    NInstrPtr n = neon::NInstr::make(
        NOp::Qadd,
        {neon::NInstr::make_load(hir::LoadRef{0, 0, 0}, vt),
         neon::NInstr::make_load(hir::LoadRef{1, 0, 0}, vt)});
    const Value got = neon::evaluate(n, env);
    for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(got[static_cast<int>(i)],
                  ref_saturate(t, pairs[i].first + pairs[i].second))
            << to_string(t) << " vqadd(" << pairs[i].first << ", "
            << pairs[i].second << ")";
    }
}

TEST_P(NeonBoundary, HaddHalvesWithoutIntermediateOverflow)
{
    const ScalarType t = GetParam();
    const auto pairs = boundary_pairs(t);
    const Env env = lane_env(t, pairs);
    const VecType vt(t, static_cast<int>(pairs.size()));
    NInstrPtr h = neon::NInstr::make(
        NOp::Hadd,
        {neon::NInstr::make_load(hir::LoadRef{0, 0, 0}, vt),
         neon::NInstr::make_load(hir::LoadRef{1, 0, 0}, vt)});
    NInstrPtr rh = neon::NInstr::make(
        NOp::Rhadd,
        {neon::NInstr::make_load(hir::LoadRef{0, 0, 0}, vt),
         neon::NInstr::make_load(hir::LoadRef{1, 0, 0}, vt)});
    const Value hv = neon::evaluate(h, env);
    const Value rhv = neon::evaluate(rh, env);
    for (size_t i = 0; i < pairs.size(); ++i) {
        // vhadd/vrhadd are defined on the full-precision sum; the
        // boundary case max + max must not wrap before halving.
        const int64_t sum = pairs[i].first + pairs[i].second;
        EXPECT_EQ(hv[static_cast<int>(i)],
                  ref_wrap(t, ref_floor_shift(sum, 1)))
            << to_string(t) << " vhadd(" << pairs[i].first << ", "
            << pairs[i].second << ")";
        EXPECT_EQ(rhv[static_cast<int>(i)],
                  ref_wrap(t, ref_floor_shift(sum + 1, 1)))
            << to_string(t) << " vrhadd(" << pairs[i].first << ", "
            << pairs[i].second << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    LaneTypes, NeonBoundary,
    ::testing::Values(ScalarType::Int8, ScalarType::UInt8,
                      ScalarType::Int16, ScalarType::UInt16,
                      ScalarType::Int32));

/** (wide source type, narrow unsigned/signed results) per width. */
struct NarrowCase {
    ScalarType wide;
    ScalarType narrow_s;
    ScalarType narrow_u;
};

class NeonNarrowBoundary : public ::testing::TestWithParam<NarrowCase>
{
};

TEST_P(NeonNarrowBoundary, MovlXtnQxtnAtBoundaries)
{
    const NarrowCase c = GetParam();
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t v : boundary_values(c.wide))
        pairs.emplace_back(v, 0);
    const Env env = lane_env(c.wide, pairs);
    const VecType vt(c.wide, static_cast<int>(pairs.size()));
    NInstrPtr src = neon::NInstr::make_load(hir::LoadRef{0, 0, 0}, vt);

    // vmovn: truncate and reinterpret in the narrow type.
    const Value xtn = neon::evaluate(
        neon::NInstr::make(NOp::Xtn, {src}), env);
    // vqmovn / vqmovun: clamp into the narrow range.
    const Value qxtn_s = neon::evaluate(
        neon::NInstr::make(NOp::Qxtn, {src}, {}, c.narrow_s), env);
    const Value qxtn_u = neon::evaluate(
        neon::NInstr::make(NOp::Qxtn, {src}, {}, c.narrow_u), env);
    for (size_t i = 0; i < pairs.size(); ++i) {
        const int64_t v = pairs[i].first;
        EXPECT_EQ(xtn[static_cast<int>(i)],
                  ref_wrap(narrow(c.wide), v))
            << "vmovn " << to_string(c.wide) << " " << v;
        EXPECT_EQ(qxtn_s[static_cast<int>(i)],
                  ref_saturate(c.narrow_s, v))
            << "vqmovn " << to_string(c.wide) << " " << v;
        EXPECT_EQ(qxtn_u[static_cast<int>(i)],
                  ref_saturate(c.narrow_u, v))
            << "vqmovun " << to_string(c.wide) << " " << v;
    }

    // vmovl (the inverse direction) is value-preserving on every
    // representable input, including the extremes.
    const Value movl = neon::evaluate(
        neon::NInstr::make(NOp::Movl, {src}), env);
    for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(movl[static_cast<int>(i)], pairs[i].first)
            << "vmovl " << to_string(c.wide) << " " << pairs[i].first;
    }
}

TEST_P(NeonNarrowBoundary, ShrnQrshrnAtBoundaries)
{
    const NarrowCase c = GetParam();
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t v : boundary_values(c.wide))
        pairs.emplace_back(v, 0);
    const Env env = lane_env(c.wide, pairs);
    const VecType vt(c.wide, static_cast<int>(pairs.size()));
    NInstrPtr src = neon::NInstr::make_load(hir::LoadRef{0, 0, 0}, vt);

    for (int n : {1, 3, bits(c.wide) / 2}) {
        const Value shrn = neon::evaluate(
            neon::NInstr::make(NOp::Shrn, {src}, {n}), env);
        const Value qrshrn_s = neon::evaluate(
            neon::NInstr::make(NOp::Qrshrn, {src}, {n}, c.narrow_s),
            env);
        const Value qrshrn_u = neon::evaluate(
            neon::NInstr::make(NOp::Qrshrn, {src}, {n}, c.narrow_u),
            env);
        for (size_t i = 0; i < pairs.size(); ++i) {
            const int64_t v = pairs[i].first;
            // vshrn: arithmetic shift, then truncating narrow.
            EXPECT_EQ(shrn[static_cast<int>(i)],
                      ref_wrap(narrow(c.wide), ref_floor_shift(v, n)))
                << "vshrn #" << n << " " << to_string(c.wide) << " "
                << v;
            // vqrshrn: add the rounding constant at full precision,
            // shift, then clamp. INT_MAX of the wide type must round
            // *up* before saturating (the rounding add may carry).
            const int64_t rounded =
                ref_floor_shift(v + (int64_t{1} << (n - 1)), n);
            EXPECT_EQ(qrshrn_s[static_cast<int>(i)],
                      ref_saturate(c.narrow_s, rounded))
                << "vqrshrn #" << n << " " << to_string(c.wide) << " "
                << v;
            EXPECT_EQ(qrshrn_u[static_cast<int>(i)],
                      ref_saturate(c.narrow_u, rounded))
                << "vqrshrun #" << n << " " << to_string(c.wide)
                << " " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, NeonNarrowBoundary,
    ::testing::Values(
        NarrowCase{ScalarType::Int16, ScalarType::Int8,
                   ScalarType::UInt8},
        NarrowCase{ScalarType::Int32, ScalarType::Int16,
                   ScalarType::UInt16}));

} // namespace
} // namespace rake
