/**
 * @file
 * Tests for the z3 bit-vector verification backend: proofs across all
 * four IRs, refutations with usable counter-examples, incremental
 * lane selection, agreement of the lane algebra's z3 and int64
 * instantiations, and agreement with the concrete interpreters
 * (differential soundness on random expressions).
 */
#include <gtest/gtest.h>

#include "backend/neon_backend.h"
#include "base/arith.h"
#include "baseline/halide_optimizer.h"
#include "hir/builder.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hvx/interp.h"
#include "neon/cost.h"
#include "neon/interp.h"
#include "neon/sexpr.h"
#include "synth/z3_lanes.h"
#include "synth/z3_verify.h"
#include "test_util.h"
#include "uir/uexpr.h"

namespace rake {
namespace {

using namespace rake::hir;
using namespace rake::synth;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i16 = ScalarType::Int16;

TEST(Z3, ProvesHirIdentities)
{
    HExpr x = load(0, u8, 8);
    HExpr a = cast(u16, x) * 3;
    HExpr b = cast(u16, x) + cast(u16, x) + cast(u16, x);
    Spec spec = Spec::from_expr(a.ptr());
    auto out = z3_check(a.ptr(), b.ptr(), spec);
    EXPECT_EQ(out.result, ProofResult::Proved);
}

TEST(Z3, RefutesWithConcreteCounterexample)
{
    HExpr x = load(0, u8, 8);
    HExpr a = cast(u16, x) + 1;        // exact
    HExpr b = cast(u16, x + 1);        // wraps at u8 first
    Spec spec = Spec::from_expr(a.ptr());
    auto out = z3_check(a.ptr(), b.ptr(), spec);
    ASSERT_EQ(out.result, ProofResult::Refuted);
    ASSERT_TRUE(out.counterexample.has_value());
    // The counter-example must actually distinguish the two.
    const Env &env = *out.counterexample;
    EXPECT_NE(evaluate(a.ptr(), env), evaluate(b.ptr(), env));
}

TEST(Z3, ProvesUirLifting)
{
    // u16(x) + u16(y)*2 == vs-mpy-add([x, y], [1, 2]).
    HExpr x = load(0, u8, 8);
    HExpr y = load(0, u8, 8, 1);
    HExpr e = cast(u16, x) + cast(u16, y) * 2;
    uir::UParams p;
    p.out_elem = u16;
    p.kernel = {1, 2};
    uir::UExprPtr lifted = uir::UExpr::make(
        uir::UOp::VsMpyAdd,
        {uir::UExpr::make_leaf(x.ptr()), uir::UExpr::make_leaf(y.ptr())},
        p);
    Spec spec = Spec::from_expr(e.ptr());
    auto out = z3_check(e.ptr(), lifted, spec);
    EXPECT_EQ(out.result, ProofResult::Proved);

    // And refutes the wrong kernel.
    p.kernel = {1, 3};
    uir::UExprPtr bad = uir::UExpr::make(
        uir::UOp::VsMpyAdd,
        {uir::UExpr::make_leaf(x.ptr()), uir::UExpr::make_leaf(y.ptr())},
        p);
    EXPECT_EQ(z3_check(e.ptr(), bad, spec).result,
              ProofResult::Refuted);
}

TEST(Z3, ProvesHvxImplementation)
{
    // The deinterleave/interleave round trip through vzxt + vpacke.
    HExpr x = load(0, u8, 8);
    hvx::InstrPtr r = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                            VecType(u8, 8));
    hvx::InstrPtr w = hvx::Instr::make(hvx::Opcode::VZxt, {r});
    hvx::InstrPtr lo = hvx::Instr::make(hvx::Opcode::VLo, {w});
    hvx::InstrPtr hi = hvx::Instr::make(hvx::Opcode::VHi, {w});
    hvx::InstrPtr packed =
        hvx::Instr::make(hvx::Opcode::VPackE, {lo, hi});
    Spec spec = Spec::from_expr(x.ptr());
    Z3Options opts;
    opts.lanes = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(z3_check(x.ptr(), packed, spec, opts).result,
              ProofResult::Proved);
}

TEST(Z3, IncrementalLaneSelection)
{
    // A candidate wrong only in the last lane: proving lane 0 alone
    // accepts it, the default lane set (which includes the last lane)
    // refutes it.
    HExpr x = load(0, u8, 8);
    hvx::InstrPtr r = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                            VecType(u8, 8));
    hvx::InstrPtr rot =
        hvx::Instr::make(hvx::Opcode::VRor, {r}, {0});
    // ror by 0 is the identity: proved on all lanes.
    Spec spec = Spec::from_expr(x.ptr());
    EXPECT_EQ(z3_check(x.ptr(), rot, spec).result,
              ProofResult::Proved);

    hvx::InstrPtr rot1 =
        hvx::Instr::make(hvx::Opcode::VRor, {r}, {1});
    Z3Options lane0;
    lane0.lanes = {0};
    // Rotation by 1 differs in lane 0 already (reads x+1).
    EXPECT_EQ(z3_check(x.ptr(), rot1, spec, lane0).result,
              ProofResult::Refuted);
}

TEST(Z3, SemanticReasoningProof)
{
    // The gaussian3x3 claim: for x = u8-widened * 15 (so < 4096),
    // truncating and saturating narrows agree after >> 4.
    HExpr x = cast(i16, load(0, u8, 8)) * 15;
    HExpr trunc = cast(u8, (x + 8) >> 4);
    HExpr sat = cast(u8, clamp((x + 8) >> 4, 0, 255));
    Spec spec = Spec::from_expr(trunc.ptr());
    EXPECT_EQ(z3_check(trunc.ptr(), sat.ptr(), spec).result,
              ProofResult::Proved);
}

TEST(Z3, RefutesShiftByNegativeAmount)
{
    // A shift by a negative amount leaves x (base/arith.h), so the two
    // sides differ wherever n < 0 and x != 0. z3's own bvshl reads the
    // amount as unsigned and shifts everything out; the prover follows
    // the interpreters instead.
    HExpr x = load(0, i16, 8);
    HExpr n = broadcast(var("n", i16), 8);
    HExpr zero = splat(i16, 8, 0);
    HExpr lhs = select(lt(n, zero), x << n, x);
    HExpr rhs = select(lt(n, zero), zero, x);
    Spec spec = Spec::from_expr(lhs.ptr());
    auto out = z3_check(lhs.ptr(), rhs.ptr(), spec);
    ASSERT_EQ(out.result, ProofResult::Refuted);
    ASSERT_TRUE(out.counterexample.has_value());
    const Env &env = *out.counterexample;
    EXPECT_LT(env.scalar("n"), 0);
    EXPECT_NE(evaluate(lhs.ptr(), env), evaluate(rhs.ptr(), env));
}

/** The value a z3 term over constants simplifies to. */
int64_t
folded(const z3::expr &e)
{
    const z3::expr v = e.simplify();
    int64_t out = 0;
    if (v.is_numeral_i64(out))
        return out;
    uint64_t u = 0;
    EXPECT_TRUE(v.is_numeral_u64(u)) << "not a constant: " << v;
    return static_cast<int64_t>(u);
}

TEST(Z3, LaneAlgebraMatchesInt64)
{
    // Every primitive of the lane algebra, in both instantiations, at
    // each scalar type's extremes and shift amounts past both ends.
    z3::context ctx;
    const synth::Z3Lanes z(ctx);
    const Int64Lanes c;
    for (int ti = 0; ti < kNumScalarTypes; ++ti) {
        const ScalarType t = static_cast<ScalarType>(ti);
        const int64_t lo = min_value(t);
        const int64_t hi = max_value(t);
        std::vector<int64_t> vals;
        for (int64_t v : {lo, lo + 1, int64_t{-1}, int64_t{0}, int64_t{1},
                          hi - 1, hi})
            vals.push_back(wrap(t, v));
        for (int64_t a : vals) {
            const z3::expr za = z.lit(a);
            SCOPED_TRACE(to_string(t) + " a=" + std::to_string(a));
            EXPECT_EQ(folded(z.wrap(t, za)), c.wrap(t, a));
            EXPECT_EQ(folded(z.sat(t, za)), c.sat(t, a));
            EXPECT_EQ(folded(z.not_(za)), c.not_(a));
            for (int64_t b : vals) {
                const z3::expr zb = z.lit(b);
                SCOPED_TRACE("b=" + std::to_string(b));
                EXPECT_EQ(folded(z.add(za, zb)), c.add(a, b));
                EXPECT_EQ(folded(z.sub(za, zb)), c.sub(a, b));
                EXPECT_EQ(folded(z.mul(za, zb)), c.mul(a, b));
                for (bool r : {false, true}) {
                    EXPECT_EQ(folded(z.avg(t, za, zb, r)), c.avg(t, a, b, r));
                    EXPECT_EQ(folded(z.navg(t, za, zb, r)),
                              c.navg(t, a, b, r));
                }
                EXPECT_EQ(folded(z.absd(za, zb)), c.absd(a, b));
                EXPECT_EQ(folded(z.min(za, zb)), c.min(a, b));
                EXPECT_EQ(folded(z.max(za, zb)), c.max(a, b));
                EXPECT_EQ(folded(z.lt(za, zb)), c.lt(a, b));
                EXPECT_EQ(folded(z.le(za, zb)), c.le(a, b));
                EXPECT_EQ(folded(z.gt(za, zb)), c.gt(a, b));
                EXPECT_EQ(folded(z.eq(za, zb)), c.eq(a, b));
                EXPECT_EQ(folded(z.select(za, zb, za)), c.select(a, b, a));
                EXPECT_EQ(folded(z.and_(za, zb)), c.and_(a, b));
                EXPECT_EQ(folded(z.or_(za, zb)), c.or_(a, b));
                EXPECT_EQ(folded(z.xor_(za, zb)), c.xor_(a, b));
            }
            // Shifts are built over a symbolic amount, as a variable
            // amount reaches them in a proof, then given each constant.
            const z3::expr zn = ctx.bv_const("n", 64);
            const z3::expr shl = z.shl(t, za, zn);
            const z3::expr lsr = z.lsr(t, za, zn);
            const z3::expr asr = z.asr(za, zn, false);
            const z3::expr rasr = z.asr(za, zn, true);
            for (int64_t n = -2; n <= 70; ++n) {
                SCOPED_TRACE("n=" + std::to_string(n));
                z3::expr_vector from(ctx), to(ctx);
                from.push_back(zn);
                to.push_back(z.lit(n));
                const auto at = [&](z3::expr e) {
                    return folded(e.substitute(from, to));
                };
                EXPECT_EQ(at(shl), c.shl(t, a, n));
                EXPECT_EQ(at(lsr), c.lsr(t, a, n));
                EXPECT_EQ(at(asr), c.asr(a, n, false));
                EXPECT_EQ(at(rasr), c.asr(a, n, true));
            }
        }
    }
}

TEST(Z3, RefutesPlantedNeonLaneError)
{
    // Neon programs are proved through the backend's sexpr round trip,
    // as HVX ones are. Each wrong vtbl below is the identity on every
    // lane but one: the last (one of the default sampled lanes), and
    // lane 3 (outside them, so only a proof over every lane sees it).
    HExpr x = load(0, u8, 8);
    Spec spec = Spec::from_expr(x.ptr());
    neon::Target target;
    auto isa = backend::make_neon_backend(target);
    const std::string load = "(vld1 u8x8 0 0 0)";
    auto good = isa->instr_from_sexpr("(vtbl u8x8 " + load +
                                      " #0 #1 #2 #3 #4 #5 #6 #7)");
    EXPECT_EQ(z3_check(x.ptr(), *isa, good, spec).result,
              ProofResult::Proved);

    Z3Options every_lane;
    every_lane.lanes = {0, 1, 2, 3, 4, 5, 6, 7};
    const std::pair<std::string, int> planted[] = {
        {"#0 #1 #2 #3 #4 #5 #6 #6", 7},
        {"#0 #1 #2 #2 #4 #5 #6 #7", 3},
    };
    for (const auto &[indices, wrong] : planted) {
        SCOPED_TRACE(indices);
        const std::string bad_text =
            "(vtbl u8x8 " + load + " " + indices + ")";
        auto out = z3_check(x.ptr(), *isa,
                            isa->instr_from_sexpr(bad_text), spec,
                            every_lane);
        ASSERT_EQ(out.result, ProofResult::Refuted);
        ASSERT_TRUE(out.counterexample.has_value());
        const Env &env = *out.counterexample;
        const Value want = evaluate(x.ptr(), env);
        const Value got = neon::evaluate(neon::parse_instr(bad_text), env);
        for (int i = 0; i < 8; ++i) {
            if (i == wrong)
                EXPECT_NE(want[i], got[i]) << "lane " << i;
            else
                EXPECT_EQ(want[i], got[i]) << "lane " << i;
        }
    }
}

class Z3Differential : public ::testing::TestWithParam<int>
{
};

TEST_P(Z3Differential, BaselineCodegenProvedEquivalent)
{
    // End-to-end soundness: the baseline selector's output is proved
    // equal to the HIR reference by the SMT backend (random exprs,
    // sampled lanes). Exercises the HIR and HVX encoders jointly.
    test::ExprGen gen(GetParam() * 1031 + 17, /*lanes=*/8);
    hvx::Target target;
    for (int i = 0; i < 2; ++i) {
        ExprPtr e = gen.gen(3);
        hvx::InstrPtr impl = baseline::select_instructions(e, target);
        Spec spec = Spec::from_expr(e);
        Z3Options opts;
        opts.timeout_ms = 30000;
        auto out = z3_check(e, impl, spec, opts);
        EXPECT_NE(out.result, ProofResult::Refuted)
            << hir::to_string(e);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Z3Differential, ::testing::Range(0, 4));

} // namespace
} // namespace rake
