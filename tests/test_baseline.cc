/**
 * @file
 * Tests for the Halide-style baseline selector: always-correct
 * codegen (differential vs the HIR interpreter on random
 * expressions), the documented pattern choices, and the
 * interleave/deinterleave peephole.
 */
#include <gtest/gtest.h>

#include <set>

#include "baseline/halide_optimizer.h"
#include "hir/builder.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hvx/interp.h"
#include "hvx/printer.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::hir;
using namespace rake::baseline;
using rake::hvx::Opcode;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr int L = 128;

int
count_op(const hvx::InstrPtr &n, Opcode op,
         std::set<const hvx::Instr *> &seen)
{
    if (!seen.insert(n.get()).second)
        return 0;
    int c = n->op() == op ? 1 : 0;
    for (const auto &a : n->args())
        c += count_op(a, op, seen);
    return c;
}

int
count_op(const hvx::InstrPtr &n, Opcode op)
{
    std::set<const hvx::Instr *> seen;
    return count_op(n, op, seen);
}

hvx::InstrPtr
select_checked(const HExpr &e, const BaselineOptions &opts = {})
{
    hvx::Target target;
    hvx::InstrPtr code = select_instructions(e.ptr(), target, opts);
    EXPECT_NE(code, nullptr);
    for (const Env &env : test::environments_for(e.ptr(), 8, 77)) {
        EXPECT_EQ(hir::evaluate(e.ptr(), env),
                  hvx::evaluate(code, env))
            << hir::to_string(e.ptr()) << "\n"
            << hvx::to_listing(code);
    }
    return code;
}

HExpr
in(int dx, int dy = 0)
{
    return load(0, u8, L, dx, dy);
}

TEST(Baseline, WideningCastUsesZxtPlusShuffle)
{
    hvx::InstrPtr code = select_checked(cast(u16, in(0)));
    EXPECT_EQ(count_op(code, Opcode::VZxt), 1);
    EXPECT_EQ(count_op(code, Opcode::VShuffVdd), 1);
}

TEST(Baseline, EightfoldCastsTakeThreeRounds)
{
    constexpr ScalarType i32 = ScalarType::Int32;
    constexpr ScalarType i64 = ScalarType::Int64;
    // Stage 1 of program 493 of `rake_fuzz --seed 5 --stages 3`: an
    // 8-bit value cast straight to i64 widens u8 -> u16 -> u32 -> u64.
    const HExpr v = cast(u8, broadcast(var("v", i16), 16));
    const HExpr stage = max(cast(i32, cast(i64, absd(splat(u8, 16, 255), v))),
                            cast(i32, load(8, u16, 16)));
    hvx::InstrPtr code = select_checked(stage);
    EXPECT_EQ(count_op(code, Opcode::VZxt), 3 + 1);

    // And back: i64 -> u8 truncates through three packs.
    const HExpr wide = cast(i64, load(8, u16, 16)) * 3 +
                       cast(i64, broadcast(var("v", i16), 16));
    code = select_checked(cast(u8, wide));
    EXPECT_EQ(count_op(code, Opcode::VPackE), 3);
}

TEST(Baseline, ThreeTapConvUsesVmpaPlusVaddNotVtmpy)
{
    HExpr e = cast(u16, in(-1)) + cast(u16, in(0)) * 2 +
              cast(u16, in(1));
    hvx::InstrPtr code = select_checked(e);
    EXPECT_EQ(count_op(code, Opcode::VTmpy), 0);
    EXPECT_EQ(count_op(code, Opcode::VMpa), 1);
    EXPECT_EQ(count_op(code, Opcode::VZxt), 1);
    EXPECT_EQ(count_op(code, Opcode::VAdd), 1);
    EXPECT_EQ(count_op(code, Opcode::VMpaAcc), 0);
}

TEST(Baseline, ExactClampBecomesSaturatingPack)
{
    // A genuinely signed full-range source keeps both clamp sides
    // through the simplifier, matching the exact-range sat rule.
    HExpr x = load(1, i16, L);
    hvx::InstrPtr code = select_checked(cast(u8, clamp(x, 0, 255)));
    EXPECT_EQ(count_op(code, Opcode::VPackSat), 1);
    EXPECT_EQ(count_op(code, Opcode::VMin), 0);
}

TEST(Baseline, PartialClampKeptWithTruncPack)
{
    // Fig. 4(c): an unsigned source loses its max(x, 0) in the
    // simplifier, the one-sided min doesn't match the sat rule, and
    // the clamp survives in front of a truncating pack.
    HExpr x = cast(u16, in(0)) * 5;
    hvx::InstrPtr code =
        select_checked(cast(u8, min(max(x, 0), 255)));
    EXPECT_EQ(count_op(code, Opcode::VMin), 1);
    EXPECT_EQ(count_op(code, Opcode::VPackE), 1);
    EXPECT_EQ(count_op(code, Opcode::VPackSat), 0);
}

TEST(Baseline, AvgPatternUsesVavg)
{
    HExpr e = cast(u8, (cast(u16, in(0)) + cast(u16, in(1)) + 1) >> 1);
    hvx::InstrPtr code = select_checked(e);
    EXPECT_EQ(count_op(code, Opcode::VAvgRnd), 1);
    EXPECT_EQ(count_op(code, Opcode::VMpa), 0);
}

TEST(Baseline, WordByHalfUsesVmpyioTwiceNeverVmpyie)
{
    HExpr y = cast(i16, load(0, u8, 64)) * 16;
    HExpr e = broadcast(var("w", ScalarType::Int32), 64) * cast(
        ScalarType::Int32, y);
    hvx::InstrPtr code = select_checked(e);
    EXPECT_EQ(count_op(code, Opcode::VMpyIE), 0);
    EXPECT_EQ(count_op(code, Opcode::VMpyIO), 2);
    EXPECT_EQ(count_op(code, Opcode::VAsl), 1);
}

TEST(Baseline, PeepholeCancelsShuffleDealPairs)
{
    // widen -> shift -> narrow: with the peephole the interleave
    // after the widening multiply-add pushes through the shift and
    // cancels against the deal in front of the pack. (Shift by 2 so
    // the vavg rule does not preempt the pattern.)
    HExpr e = cast(u8, (cast(u16, in(0)) + cast(u16, in(1))) >> 2);
    BaselineOptions with;
    BaselineOptions without;
    without.shuffle_peephole = false;
    hvx::InstrPtr a = select_checked(e, with);
    hvx::InstrPtr b = select_checked(e, without);
    const int shuffles_a = count_op(a, Opcode::VShuffVdd) +
                           count_op(a, Opcode::VDealVdd);
    const int shuffles_b = count_op(b, Opcode::VShuffVdd) +
                           count_op(b, Opcode::VDealVdd);
    EXPECT_LT(shuffles_a, shuffles_b);
}

TEST(Baseline, PowerOfTwoMulBecomesShift)
{
    hvx::InstrPtr code = select_checked(in(0) * 4);
    EXPECT_EQ(count_op(code, Opcode::VAsl), 1);
    EXPECT_EQ(count_op(code, Opcode::VMpyi), 0);
}

TEST(Baseline, MinMaxNetworksAreDirect)
{
    HExpr e = max(min(in(0), in(1)), min(in(2), in(3)));
    hvx::InstrPtr code = select_checked(e);
    EXPECT_EQ(count_op(code, Opcode::VMin), 2);
    EXPECT_EQ(count_op(code, Opcode::VMax), 1);
}

class BaselineDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(BaselineDifferential, RandomExpressionsSelectCorrectly)
{
    test::ExprGen gen(GetParam() * 104729 + 11, /*lanes=*/16);
    hvx::Target target;
    for (int i = 0; i < 4; ++i) {
        hir::ExprPtr e = gen.gen(4);
        hvx::InstrPtr code = select_instructions(e, target);
        ASSERT_NE(code, nullptr);
        for (const Env &env : test::environments_for(e, 6, 55)) {
            EXPECT_EQ(hir::evaluate(e, env), hvx::evaluate(code, env))
                << hir::to_string(e);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineDifferential,
                         ::testing::Range(0, 10));

} // namespace
} // namespace rake
