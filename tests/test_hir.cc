/**
 * @file
 * Tests for the Halide-like IR: factories and type checking, the
 * reference interpreter, the builder DSL, printing and s-expression
 * round-tripping, the simplifier (differential + z3-verified), and
 * interval range analysis.
 */
#include <gtest/gtest.h>

#include "hir/analysis.h"
#include "hir/builder.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hir/simplify.h"
#include "pipeline/benchmarks.h"
#include "synth/z3_verify.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::hir;
using test::ExprGen;
using test::environments_for;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr ScalarType u16 = ScalarType::UInt16;

Env
simple_env(int width = 16)
{
    Env env;
    Buffer b(u8, width, 3, -4, -1);
    for (size_t i = 0; i < b.data.size(); ++i)
        b.data[i] = static_cast<int64_t>(i * 7 % 256);
    env.buffers.emplace(0, std::move(b));
    env.scalars["v"] = -3;
    return env;
}

TEST(HirExpr, FactoriesTypeCheck)
{
    ExprPtr l = Expr::make_load(LoadRef{0, -1, 0}, VecType(u8, 8));
    EXPECT_EQ(l->op(), Op::Load);
    EXPECT_EQ(l->type(), VecType(u8, 8));

    // Lane mismatch rejected.
    ExprPtr l4 = Expr::make_load(LoadRef{0, 0, 0}, VecType(u8, 4));
    EXPECT_THROW(Expr::make(Op::Add, {l, l4}), UserError);
    // Element type mismatch rejected.
    ExprPtr c16 = Expr::make_const(1, VecType(u16, 8));
    EXPECT_THROW(Expr::make(Op::Add, {l, c16}), UserError);
    // Wrong arity rejected.
    EXPECT_THROW(Expr::make(Op::Add, {l}), UserError);
    // Broadcast input must be scalar.
    EXPECT_THROW(Expr::make_broadcast(l, 16), UserError);
    // Vars must be scalar.
    EXPECT_THROW(Expr::make_var("x", VecType(u8, 8)), UserError);
}

TEST(HirExpr, ConstantsNormalizeOnConstruction)
{
    ExprPtr c = Expr::make_const(300, VecType(u8, 4));
    EXPECT_EQ(c->const_value(), 44);
    int64_t v = 0;
    EXPECT_TRUE(as_const(c, &v));
    EXPECT_EQ(v, 44);
    EXPECT_TRUE(is_const(c, 44));
}

TEST(HirExpr, StructuralEqualityAndHash)
{
    ExprGen g1(11), g2(11), g3(12);
    for (int i = 0; i < 20; ++i) {
        ExprPtr a = g1.gen();
        ExprPtr b = g2.gen();
        EXPECT_TRUE(equal(a, b));
        EXPECT_EQ(a->hash(), b->hash());
    }
    // Different seeds almost surely differ somewhere.
    bool any_diff = false;
    for (int i = 0; i < 20; ++i)
        any_diff |= !equal(g1.gen(), g3.gen());
    EXPECT_TRUE(any_diff);
}

TEST(HirExpr, NodeCountAndDepth)
{
    HExpr a = load(0, u8, 8);
    HExpr e = a + a * 2;
    // a*2 coerces the literal through a broadcast node, so the mul
    // subtree is 3 deep and the add 4.
    EXPECT_EQ(e.ptr()->depth(), 4);
    EXPECT_GE(e.ptr()->node_count(), 4);
}

TEST(HirInterp, LoadReadsAtLaneOffsets)
{
    Env env = simple_env();
    ExprPtr l = Expr::make_load(LoadRef{0, -1, 0}, VecType(u8, 4));
    Value v = evaluate(l, env);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[i], env.buffer(0).at(-1 + i, 0));
}

TEST(HirInterp, ArithmeticWrapsInResultType)
{
    Env env = simple_env();
    HExpr a = splat(u8, 4, 200);
    HExpr b = splat(u8, 4, 100);
    EXPECT_EQ(evaluate(a + b, env)[0], 44);  // 300 mod 256
    EXPECT_EQ(evaluate(a - b, env)[0], 100);
    EXPECT_EQ(evaluate(a * b, env)[0], wrap(u8, 20000));
    EXPECT_EQ(evaluate(min(a, b), env)[0], 100);
    EXPECT_EQ(evaluate(max(a, b), env)[0], 200);
    EXPECT_EQ(evaluate(absd(a, b), env)[0], 100);
}

TEST(HirInterp, AddWrapsPastInt64)
{
    // An i64 lane sum past INT64_MAX wraps; it must not overflow the
    // int64 carrier on the way.
    constexpr ScalarType i64 = ScalarType::Int64;
    HExpr a = splat(i64, 4, INT64_MAX);
    HExpr b = splat(i64, 4, 1);
    EXPECT_EQ(evaluate(a + b, simple_env())[0], INT64_MIN);
}

TEST(HirInterp, ShiftSemanticsBySignedness)
{
    Env env = simple_env();
    HExpr su = splat(u16, 4, 0x8000);
    HExpr si = splat(i16, 4, -32768);
    EXPECT_EQ(evaluate(su >> 4, env)[0], 0x0800);   // logical
    EXPECT_EQ(evaluate(si >> 4, env)[0], -2048);    // arithmetic
    EXPECT_EQ(evaluate(su << 1, env)[0], 0);        // wraps out
}

TEST(HirInterp, ComparisonAndSelect)
{
    Env env = simple_env();
    HExpr a = splat(i16, 4, 5);
    HExpr b = splat(i16, 4, 9);
    EXPECT_EQ(evaluate(lt(a, b), env)[0], 1);
    EXPECT_EQ(evaluate(le(b, b), env)[0], 1);
    EXPECT_EQ(evaluate(eq(a, b), env)[0], 0);
    EXPECT_EQ(evaluate(select(lt(a, b), a, b), env)[0], 5);
    EXPECT_EQ(evaluate(select(lt(b, a), a, b), env)[0], 9);
}

TEST(HirInterp, BroadcastAndVar)
{
    Env env = simple_env();
    HExpr e = broadcast(var("v", i16), 4) * 2;
    Value v = evaluate(e, env);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[i], -6);
}

TEST(HirBuilder, LiteralCoercionAndClamp)
{
    Env env = simple_env();
    HExpr x = splat(i16, 4, 300);
    EXPECT_EQ(evaluate(clamp(x, 0, 255), env)[0], 255);
    EXPECT_EQ(evaluate(clamp(splat(i16, 4, -7), 0, 255), env)[0], 0);
    EXPECT_EQ(evaluate(sat_u8(x), env)[0], 255);
    EXPECT_EQ(evaluate(sat_u8(splat(i16, 4, -7)), env)[0], 0);
    EXPECT_EQ(evaluate(sat_u8(splat(i16, 4, 42)), env)[0], 42);
}

TEST(HirPrinter, InfixRendering)
{
    HExpr e = cast(u16, load(0, u8, 8, -1, 0)) + 2;
    EXPECT_EQ(hir::to_string(e.ptr()),
              "(u16x8(b0(x-1, y)) + x8(2))");
}

class SExprRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(SExprRoundTrip, ParseOfPrintIsIdentity)
{
    ExprGen gen(GetParam());
    for (int i = 0; i < 10; ++i) {
        ExprPtr e = gen.gen(3);
        ExprPtr back = parse_expr(to_sexpr(e));
        EXPECT_TRUE(equal(e, back)) << to_sexpr(e);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SExprRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SExpr, BenchmarkSuiteRoundTripsExactly)
{
    // Property over the real corpus: for every kernel expression of
    // the 21-benchmark suite, print -> parse is structurally the
    // identity, print -> parse -> print is a fixpoint (the textual
    // form is canonical), and the round-tripped expression is
    // observationally equivalent on example environments. This is the
    // contract the fuzzer's reproducer files stand on.
    for (const pipeline::Benchmark &b : pipeline::benchmark_suite()) {
        for (const pipeline::KernelExpr &k : b.exprs) {
            const std::string s = to_sexpr(k.expr);
            ExprPtr back = parse_expr(s);
            ASSERT_TRUE(equal(back, k.expr)) << b.name << "/" << k.name;
            EXPECT_EQ(to_sexpr(back), s) << b.name << "/" << k.name;
            for (const Env &env : environments_for(k.expr, 3, 23)) {
                EXPECT_EQ(evaluate(back, env), evaluate(k.expr, env))
                    << b.name << "/" << k.name;
            }
        }
    }
}

TEST(SExpr, RejectsMalformedInput)
{
    EXPECT_THROW(parse_expr("(add"), UserError);
    EXPECT_THROW(parse_expr("(bogus 1 2)"), UserError);
    EXPECT_THROW(parse_expr("(const u8x4)"), UserError);
    EXPECT_THROW(parse_expr("(const u8x4 12) junk"), UserError);
    EXPECT_THROW(parse_expr("(const zz 3)"), UserError);
    EXPECT_THROW(parse_expr(")"), UserError);
}

class SimplifyDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(SimplifyDifferential, PreservesSemantics)
{
    ExprGen gen(GetParam() * 97 + 5);
    for (int i = 0; i < 8; ++i) {
        ExprPtr e = gen.gen(4);
        ExprPtr s = simplify(e);
        for (const Env &env : environments_for(e, 6)) {
            EXPECT_EQ(evaluate(e, env), evaluate(s, env))
                << hir::to_string(e);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyDifferential,
                         ::testing::Range(0, 10));

TEST(Simplify, AlgebraicIdentities)
{
    HExpr x = load(0, u8, 8);
    EXPECT_TRUE(equal(simplify((x + 0).ptr()), x.ptr()));
    EXPECT_TRUE(equal(simplify((x * 1).ptr()), x.ptr()));
    EXPECT_TRUE(equal(simplify((x - 0).ptr()), x.ptr()));
    EXPECT_TRUE(equal(simplify((x << 0).ptr()), x.ptr()));
    EXPECT_TRUE(is_const(simplify((x * 0).ptr()), 0));
    // min/max against the type range collapse.
    EXPECT_TRUE(equal(simplify(min(x, 255).ptr()), x.ptr()));
    EXPECT_TRUE(equal(simplify(max(x, 0).ptr()), x.ptr()));
    // min with a binding constant stays.
    EXPECT_EQ(simplify(min(x, 7).ptr())->op(), Op::Min);
    // Constant folding.
    EXPECT_TRUE(is_const(
        simplify((splat(u8, 8, 3) * splat(u8, 8, 5)).ptr()), 15));
}

TEST(Simplify, ConstantFoldedMulWrapsPastInt64)
{
    // (2^32 - 1)^2 overflows int64; folded in u32 it is 1.
    constexpr ScalarType u32 = ScalarType::UInt32;
    HExpr a = splat(u32, 8, 0xffffffff);
    EXPECT_TRUE(is_const(simplify((a * a).ptr()), 1));
}

TEST(Simplify, ProvedEquivalentByZ3)
{
    // A couple of nontrivial simplifications, proved with the SMT
    // backend on all lanes.
    HExpr x = load(0, u8, 4);
    std::vector<HExpr> exprs = {
        max(min(cast(u16, x) * 3 + 7, 999), 0),
        (cast(u16, x) + 0) * 1,
        clamp(cast(i16, x) - 300, -128, 127),
    };
    for (const HExpr &e : exprs) {
        ExprPtr s = simplify(e.ptr());
        synth::Spec spec = synth::Spec::from_expr(e.ptr());
        synth::Z3Options opts;
        opts.lanes = {0, 1, 2, 3};
        auto out = synth::z3_check(e.ptr(), s, spec, opts);
        EXPECT_EQ(out.result, synth::ProofResult::Proved)
            << hir::to_string(e.ptr());
    }
}

TEST(Analysis, CollectLoadsAndVars)
{
    HExpr e = cast(u16, load(0, u8, 8, -1, 0)) +
              cast(u16, load(0, u8, 8, 1, 2)) +
              broadcast(var("k", u16), 8);
    auto loads = collect_loads(e.ptr());
    EXPECT_EQ(loads.size(), 2u);
    EXPECT_TRUE(loads.count(LoadRef{0, -1, 0}));
    EXPECT_TRUE(loads.count(LoadRef{0, 1, 2}));
    auto vars = collect_vars(e.ptr());
    EXPECT_EQ(vars.size(), 1u);
    EXPECT_TRUE(vars.count("k"));
    auto hist = op_histogram(e.ptr());
    EXPECT_EQ(hist[Op::Load], 2);
    EXPECT_EQ(hist[Op::Add], 2);
}

TEST(Analysis, RangeOfWideningSum)
{
    // u16 sum of three u8 loads with weights (1, 2, 1): [0, 1020].
    HExpr e = cast(u16, load(0, u8, 8, -1)) +
              cast(u16, load(0, u8, 8, 0)) * 2 +
              cast(u16, load(0, u8, 8, 1));
    Interval r = range_of(e.ptr());
    EXPECT_EQ(r.min, 0);
    EXPECT_EQ(r.max, 1020);
    EXPECT_TRUE(r.is_non_negative());
    EXPECT_TRUE(r.fits_in(u16));
    EXPECT_FALSE(r.fits_in(u8));
}

TEST(Analysis, RangeOverflowWidensToTypeRange)
{
    // u8 + u8 at u8 can wrap: the analysis must give the full range.
    HExpr e = load(0, u8, 8) + load(0, u8, 8, 1);
    Interval r = range_of(e.ptr());
    EXPECT_EQ(r.min, 0);
    EXPECT_EQ(r.max, 255);
}

TEST(Analysis, RangeOfShiftAndClamp)
{
    HExpr x = cast(i16, load(0, u8, 8)) * 15; // [0, 3825]
    Interval rs = range_of((x >> 4).ptr());
    EXPECT_EQ(rs.min, 0);
    EXPECT_EQ(rs.max, 3825 >> 4);
    Interval rc = range_of(clamp(x, 10, 100).ptr());
    EXPECT_EQ(rc.min, 10);
    EXPECT_EQ(rc.max, 100);
    Interval ra = range_of(absd(x, x * 0).ptr());
    EXPECT_EQ(ra.min, 0);
    EXPECT_EQ(ra.max, 3825);
}

TEST(Analysis, RangeIsSoundOnRandomExprs)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        ExprGen gen(seed);
        ExprPtr e = gen.gen(4);
        Interval r = range_of(e);
        for (const Env &env : environments_for(e, 5)) {
            Value v = evaluate(e, env);
            for (int i = 0; i < v.type.lanes; ++i) {
                EXPECT_TRUE(r.contains(v[i]))
                    << "lane " << i << " value " << v[i]
                    << " outside [" << r.min << ", " << r.max << "] of "
                    << hir::to_string(e);
            }
        }
    }
}

} // namespace
} // namespace rake
