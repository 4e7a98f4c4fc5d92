/**
 * @file
 * Tests for the HVX ISA model: signature checking, per-opcode
 * semantics, the deinterleave/interleave pair conventions (the §5.1
 * data-layout behaviour), swizzle algebra properties, the cost model,
 * and the printers.
 */
#include <gtest/gtest.h>

#include "hir/builder.h"
#include "hvx/cost.h"
#include "hvx/interp.h"
#include "hvx/printer.h"
#include "hvx/sexpr.h"

namespace rake {
namespace {

using namespace rake::hvx;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType i8 = ScalarType::Int8;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i32 = ScalarType::Int32;

constexpr int L = 8;

InstrPtr
read8(int dx = 0, int dy = 0, int lanes = L)
{
    return Instr::make_read(hir::LoadRef{0, dx, dy},
                            VecType(u8, lanes));
}

InstrPtr
read16(int dx = 0, int lanes = L)
{
    return Instr::make_read(hir::LoadRef{1, dx, 0},
                            VecType(i16, lanes));
}

InstrPtr
splat8(int64_t v, int lanes = L)
{
    return Instr::make_splat(
        hir::Expr::make_const(v, VecType(u8, 1)), lanes);
}

Env
test_env()
{
    Env env;
    Buffer b0(u8, 48, 3, -16, -1);
    for (size_t i = 0; i < b0.data.size(); ++i)
        b0.data[i] = static_cast<int64_t>((i * 13 + 5) % 256);
    env.buffers.emplace(0, std::move(b0));
    Buffer b1(i16, 48, 1, -16, 0);
    for (size_t i = 0; i < b1.data.size(); ++i)
        b1.data[i] = wrap(i16, static_cast<int64_t>(i * 523) - 4000);
    env.buffers.emplace(1, std::move(b1));
    return env;
}

/** Semantic lane order of a deinterleaved pair value. */
int
deint_src(int lanes, int i)
{
    const int h = lanes / 2;
    return i < h ? 2 * i : 2 * (i - h) + 1;
}

TEST(HvxIsa, MetadataIsComplete)
{
    for (int i = 0; i < kNumOpcodes; ++i) {
        const OpcodeInfo &oi = info(static_cast<Opcode>(i));
        EXPECT_NE(oi.mnemonic, nullptr);
        EXPECT_GE(oi.latency, 0);
        EXPECT_GE(oi.num_args, 0);
        EXPECT_FALSE(to_string(static_cast<Opcode>(i)).empty());
    }
    EXPECT_EQ(info(Opcode::VMpy).resource, Resource::Mpy);
    EXPECT_EQ(info(Opcode::VAsr).resource, Resource::Shift);
    EXPECT_EQ(info(Opcode::VShuffVdd).resource, Resource::Permute);
    EXPECT_EQ(info(Opcode::VRead).resource, Resource::Load);
    EXPECT_EQ(info(Opcode::VSplat).resource, Resource::None);
    EXPECT_TRUE(info(Opcode::VRor).is_swizzle);
    EXPECT_TRUE(info(Opcode::VAdd).is_compute);
}

TEST(HvxInstr, SignatureChecks)
{
    InstrPtr a = read8(), b = read8(1);
    EXPECT_NO_THROW(Instr::make(Opcode::VAdd, {a, b}));
    // Type mismatch.
    InstrPtr w = read16();
    EXPECT_THROW(Instr::make(Opcode::VAdd, {a, w}), UserError);
    // Arity.
    EXPECT_THROW(Instr::make(Opcode::VAdd, {a}), UserError);
    // Imm count.
    EXPECT_THROW(Instr::make(Opcode::VAsr, {a}), UserError);
    EXPECT_NO_THROW(Instr::make(Opcode::VAsr, {a}, {2}));
    // vzxt needs unsigned input; vsxt signed.
    EXPECT_NO_THROW(Instr::make(Opcode::VZxt, {a}));
    EXPECT_THROW(Instr::make(Opcode::VSxt, {a}), UserError);
    EXPECT_NO_THROW(Instr::make(Opcode::VSxt, {w}));
    // Saturating packs must halve the width.
    EXPECT_THROW(Instr::make(Opcode::VSat, {a, b}, {}, u8), UserError);
    InstrPtr wa = read16(0), wb = read16(1);
    EXPECT_NO_THROW(Instr::make(Opcode::VSat, {wa, wb}, {}, u8));
    // vmpyie insists on unsigned halfwords.
    InstrPtr words = Instr::make(Opcode::VBitcast, {read16(0, L)}, {},
                                 i32); // i32 x L/2
    EXPECT_THROW(Instr::make(Opcode::VMpyIE, {words, read16(0, L)}),
                 UserError);
    InstrPtr uh = Instr::make(Opcode::VBitcast, {read16(0, L)}, {}, u16);
    EXPECT_NO_THROW(Instr::make(Opcode::VMpyIE, {words, uh}));
}

TEST(HvxInterp, ReadAndSplat)
{
    Env env = test_env();
    Value v = evaluate(read8(-1), env);
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(v[i], env.buffer(0).at(i - 1, 0));
    Value s = evaluate(splat8(42), env);
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(s[i], 42);
}

TEST(HvxInterp, WideningOpsProduceDeinterleavedPairs)
{
    Env env = test_env();
    InstrPtr a = read8();
    const Buffer &b = env.buffer(0);

    Value zxt = evaluate(Instr::make(Opcode::VZxt, {a}), env);
    EXPECT_EQ(zxt.type, VecType(u16, L));
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(zxt[i], b.at(deint_src(L, i), 0));

    Value mpy = evaluate(
        Instr::make(Opcode::VMpy, {a, splat8(3)}), env);
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(mpy[i], 3 * b.at(deint_src(L, i), 0));

    Value mpa = evaluate(
        Instr::make(Opcode::VMpa, {a, read8(1)}, {2, 5}), env);
    for (int i = 0; i < L; ++i) {
        const int j = deint_src(L, i);
        EXPECT_EQ(mpa[i], 2 * b.at(j, 0) + 5 * b.at(j + 1, 0));
    }
}

TEST(HvxInterp, NarrowingPacksInterleave)
{
    Env env = test_env();
    InstrPtr wa = read16(0), wb = read16(L);
    const Buffer &b = env.buffer(1);
    Value sat = evaluate(Instr::make(Opcode::VSat, {wa, wb}, {}, u8),
                         env);
    EXPECT_EQ(sat.type, VecType(u8, 2 * L));
    for (int i = 0; i < 2 * L; ++i) {
        const int64_t src =
            i % 2 == 0 ? b.at(i / 2, 0) : b.at(L + i / 2, 0);
        EXPECT_EQ(sat[i], saturate(u8, src));
    }
    Value pe = evaluate(Instr::make(Opcode::VPackE, {wa, wb}), env);
    for (int i = 0; i < 2 * L; ++i) {
        const int64_t src =
            i % 2 == 0 ? b.at(i / 2, 0) : b.at(L + i / 2, 0);
        EXPECT_EQ(pe[i], wrap(i8, src));
    }
}

TEST(HvxInterp, NarrowOfWidenRoundTripsWithoutShuffles)
{
    // The §5.1 invariant: pack(lo, hi) of a deinterleaved widen
    // restores the original lane order with no explicit shuffle.
    Env env = test_env();
    InstrPtr w = Instr::make(Opcode::VZxt, {read8(0, 2 * L)});
    InstrPtr lo = Instr::make(Opcode::VLo, {w});
    InstrPtr hi = Instr::make(Opcode::VHi, {w});
    Value packed =
        evaluate(Instr::make(Opcode::VPackE, {lo, hi}), env);
    Value orig = evaluate(read8(0, 2 * L), env);
    EXPECT_EQ(packed.lanes, orig.lanes);
}

TEST(HvxInterp, SwizzleAlgebra)
{
    Env env = test_env();
    InstrPtr x = read8(0, 0, 2 * L);
    Value orig = evaluate(x, env);

    // shuff(deal(x)) == x and deal(shuff(x)) == x.
    Value a = evaluate(
        Instr::make(Opcode::VShuffVdd,
                    {Instr::make(Opcode::VDealVdd, {x})}),
        env);
    EXPECT_EQ(a, orig);
    Value b = evaluate(
        Instr::make(Opcode::VDealVdd,
                    {Instr::make(Opcode::VShuffVdd, {x})}),
        env);
    EXPECT_EQ(b, orig);

    // combine(lo(x), hi(x)) == x.
    Value c = evaluate(
        Instr::make(Opcode::VCombine,
                    {Instr::make(Opcode::VLo, {x}),
                     Instr::make(Opcode::VHi, {x})}),
        env);
    EXPECT_EQ(c, orig);

    // ror by L composed twice over 2L lanes is the identity.
    InstrPtr r1 = Instr::make(Opcode::VRor, {x}, {L});
    Value d = evaluate(Instr::make(Opcode::VRor, {r1}, {L}), env);
    EXPECT_EQ(d, orig);

    // valign(x, y, 0) == x; valign(x, y, lanes) == y.
    InstrPtr y = read8(3, 1, 2 * L);
    EXPECT_EQ(evaluate(Instr::make(Opcode::VAlign, {x, y}, {0}), env),
              orig);
    EXPECT_EQ(evaluate(Instr::make(Opcode::VAlign, {x, y}, {2 * L}),
                       env),
              evaluate(y, env));
}

TEST(HvxInterp, AlignWindows)
{
    Env env = test_env();
    InstrPtr a = read8(0), b = read8(L);
    Value al = evaluate(Instr::make(Opcode::VAlign, {a, b}, {3}), env);
    const Buffer &buf = env.buffer(0);
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(al[i], buf.at(i + 3, 0));
}

TEST(HvxInterp, BitcastRoundTrip)
{
    Env env = test_env();
    InstrPtr w = read16(0);
    Value orig = evaluate(w, env);
    InstrPtr as_words = Instr::make(Opcode::VBitcast, {w}, {}, i32);
    InstrPtr back = Instr::make(Opcode::VBitcast, {as_words}, {}, i16);
    EXPECT_EQ(evaluate(back, env), orig);

    // The vaslw trick: shifting the i32 view left by 16 moves even
    // halfwords into the odd slots.
    InstrPtr shifted = Instr::make(Opcode::VAsl, {as_words}, {16});
    Value v = evaluate(Instr::make(Opcode::VBitcast, {shifted}, {},
                                   i16),
                       env);
    for (int i = 0; i + 1 < L; i += 2) {
        EXPECT_EQ(v[i], 0);
        EXPECT_EQ(v[i + 1], orig[i]);
    }
}

TEST(HvxInterp, SlidingWindowTmpy)
{
    Env env = test_env();
    InstrPtr a = read8(0), b = read8(L);
    Value v = evaluate(Instr::make(Opcode::VTmpy, {a, b}, {1, 2}), env);
    const Buffer &buf = env.buffer(0);
    for (int i = 0; i < L; ++i) {
        const int j = deint_src(L, i);
        EXPECT_EQ(v[i], buf.at(j, 0) + 2 * buf.at(j + 1, 0) +
                            buf.at(j + 2, 0));
    }
}

TEST(HvxInterp, MpyIeIoSplitHalfwords)
{
    Env env = test_env();
    const int half = L / 2;
    InstrPtr y = read16(0);
    InstrPtr yu = Instr::make(Opcode::VBitcast, {y}, {}, u16);
    InstrPtr ws = Instr::make_splat(
        hir::Expr::make_const(7, VecType(i32, 1)), half);
    Value evens = evaluate(Instr::make(Opcode::VMpyIE, {ws, yu}), env);
    Value odds = evaluate(Instr::make(Opcode::VMpyIO, {ws, y}), env);
    const Buffer &buf = env.buffer(1);
    for (int i = 0; i < half; ++i) {
        EXPECT_EQ(evens[i], 7 * wrap(u16, buf.at(2 * i, 0)));
        EXPECT_EQ(odds[i], 7 * buf.at(2 * i + 1, 0));
    }
}

TEST(HvxInterp, SaturatingAluOps)
{
    Env env = test_env();
    InstrPtr big = Instr::make_splat(
        hir::Expr::make_const(200, VecType(u8, 1)), L);
    Value vs =
        evaluate(Instr::make(Opcode::VAddSat, {big, big}), env);
    EXPECT_EQ(vs[0], 255);
    Value vw = evaluate(Instr::make(Opcode::VAdd, {big, big}), env);
    EXPECT_EQ(vw[0], wrap(u8, 400));
    Value vz = evaluate(Instr::make(Opcode::VSubSat,
                                    {splat8(3), splat8(9)}),
                        env);
    EXPECT_EQ(vz[0], 0);
}

TEST(HvxCost, IssueCountsAndPairNativeness)
{
    Target t;
    t.vector_bytes = 8; // 8-byte vectors at 8 lanes of u8
    // u8x8 fits one register.
    EXPECT_EQ(issue_count(*read8(), t), 1);
    // u16x8 occupies a pair; plain ALU ops issue twice...
    InstrPtr w = Instr::make(Opcode::VZxt, {read8()});
    InstrPtr add = Instr::make(Opcode::VAdd, {w, w});
    EXPECT_EQ(issue_count(*add, t), 2);
    // ...but the widening multiply writes the pair natively.
    EXPECT_EQ(issue_count(*w, t), 1);
    InstrPtr mpy = Instr::make(Opcode::VMpy, {read8(), splat8(3)});
    EXPECT_EQ(issue_count(*mpy, t), 1);
    // Free renames issue zero.
    EXPECT_EQ(issue_count(*Instr::make(Opcode::VLo, {w}), t), 0);
    EXPECT_EQ(issue_count(*splat8(1), t), 0);
}

TEST(HvxCost, MaxPerResourceAndSharing)
{
    Target t;
    t.vector_bytes = 8;
    InstrPtr a = read8();
    InstrPtr m1 = Instr::make(Opcode::VMpy, {a, splat8(2)});
    InstrPtr m2 = Instr::make(Opcode::VMpy, {a, splat8(3)});
    InstrPtr sum = Instr::make(Opcode::VAdd, {m1, m2});
    Cost c = cost_of(sum, t);
    // Shared read counted once.
    EXPECT_EQ(c.loads, 1);
    EXPECT_EQ(c.per_resource[static_cast<int>(Resource::Mpy)], 2);
    EXPECT_EQ(c.scalar(), 2); // mpy is the max
    EXPECT_EQ(sum->instruction_count(), 4);
    Cost cheaper = cost_of(m1, t);
    EXPECT_TRUE(cheaper.better_than(c));

    // A separately built but structurally equal read is the same
    // instruction: one program has one cost, however it was built.
    InstrPtr m2_own_read = Instr::make(Opcode::VMpy, {read8(), splat8(3)});
    ASSERT_NE(m2_own_read->arg(0), a);
    InstrPtr rebuilt = Instr::make(Opcode::VAdd, {m1, m2_own_read});
    Cost r = cost_of(rebuilt, t);
    EXPECT_EQ(r.loads, 1);
    EXPECT_EQ(r.total_instructions, c.total_instructions);
    EXPECT_EQ(r.total_latency, c.total_latency);
    EXPECT_EQ(r.per_resource, c.per_resource);
    EXPECT_EQ(rebuilt->instruction_count(), 4);
}

TEST(HvxPrinter, ConcreteNamesAndListing)
{
    InstrPtr a = read8(), b = read8(1);
    InstrPtr add = Instr::make(Opcode::VAdd, {a, b});
    EXPECT_EQ(concrete_name(*add), "vadd.ub");
    InstrPtr w = Instr::make(Opcode::VZxt, {a});
    EXPECT_EQ(concrete_name(*w), "vzxt.ub");
    InstrPtr wa = read16(0), wb = read16(1);
    InstrPtr sat = Instr::make(Opcode::VSat, {wa, wb}, {}, u8);
    EXPECT_EQ(concrete_name(*sat), "vsat.ub");

    const std::string listing = to_listing(sat);
    EXPECT_NE(listing.find("vmem"), std::string::npos);
    EXPECT_NE(listing.find("vsat.ub"), std::string::npos);
    const std::string tree = hvx::to_string(sat);
    EXPECT_NE(tree.find("vsat.ub("), std::string::npos);
}


TEST(HvxInterp, FourTapRmpyAndDotProduct)
{
    Env env = test_env();
    const Buffer &buf = env.buffer(0);
    InstrPtr a = read8(0), b = read8(L);

    // vrmpy: 4-tap sliding window, double widening to i32.
    Value r = evaluate(
        Instr::make(Opcode::VRmpy, {a, b}, {1, -2, 3, -4}), env);
    EXPECT_EQ(r.type, VecType(i32, L));
    for (int i = 0; i < L; ++i) {
        const int j = deint_src(L, i);
        const int64_t expect = buf.at(j, 0) - 2 * buf.at(j + 1, 0) +
                               3 * buf.at(j + 2, 0) -
                               4 * buf.at(j + 3, 0);
        EXPECT_EQ(r[i], expect);
    }

    // vrmpy.dot: element-wise 4-group dot product, quarter lanes.
    InstrPtr c = read8(0, 1);
    Value d = evaluate(Instr::make(Opcode::VDotRmpy, {a, c}), env);
    EXPECT_EQ(d.type.lanes, L / 4);
    for (int i = 0; i < L / 4; ++i) {
        int64_t acc = 0;
        for (int k = 0; k < 4; ++k)
            acc += buf.at(4 * i + k, 0) * buf.at(4 * i + k, 1);
        EXPECT_EQ(d[i], acc);
    }

    // And the accumulating dot variant.
    InstrPtr accv = Instr::make_splat(
        hir::Expr::make_const(5, VecType(ScalarType::UInt32, 1)),
        L / 4);
    Value da = evaluate(
        Instr::make(Opcode::VDotRmpyAcc, {accv, a, c}), env);
    for (int i = 0; i < L / 4; ++i)
        EXPECT_EQ(da[i], d[i] + 5);
}

TEST(HvxInterp, NonWideningMultiplyAndAccumulate)
{
    Env env = test_env();
    const Buffer &buf = env.buffer(1);
    InstrPtr a = read16(0), b = read16(2);
    Value m = evaluate(Instr::make(Opcode::VMpyi, {a, b}), env);
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(m[i], wrap(i16, buf.at(i, 0) * buf.at(i + 2, 0)));
    InstrPtr acc = read16(5);
    Value ma =
        evaluate(Instr::make(Opcode::VMpyiAcc, {acc, a, b}), env);
    for (int i = 0; i < L; ++i) {
        EXPECT_EQ(ma[i], wrap(i16, buf.at(i + 5, 0) +
                                       buf.at(i, 0) * buf.at(i + 2, 0)));
    }
}

TEST(HvxInterp, WordMultiplyWrapsPastInt64)
{
    // u32 x u32 products reach 2^64 - 2^33 + 1, past int64: the lane
    // product must wrap in the result type, not overflow the carrier.
    constexpr ScalarType u32 = ScalarType::UInt32;
    InstrPtr big = Instr::make_splat(
        hir::Expr::make_const(0xffffffff, VecType(u32, 1)), L);
    Value m = evaluate(Instr::make(Opcode::VMpyi, {big, big}), Env{});
    for (int i = 0; i < L; ++i)
        EXPECT_EQ(m[i], 1);
}

TEST(HvxInterp, PredicatesAndMux)
{
    Env env = test_env();
    const Buffer &buf = env.buffer(0);
    InstrPtr a = read8(0), b = read8(1);
    Value gt = evaluate(Instr::make(Opcode::VCmpGt, {a, b}), env);
    Value eq = evaluate(Instr::make(Opcode::VCmpEq, {a, a}), env);
    Value mux = evaluate(
        Instr::make(Opcode::VMux,
                    {Instr::make(Opcode::VCmpGt, {a, b}), a, b}),
        env);
    for (int i = 0; i < L; ++i) {
        EXPECT_EQ(gt[i], buf.at(i, 0) > buf.at(i + 1, 0) ? 1 : 0);
        EXPECT_EQ(eq[i], 1);
        EXPECT_EQ(mux[i], std::max(buf.at(i, 0), buf.at(i + 1, 0)));
    }
}

TEST(HvxInterp, PackOTakesHighHalves)
{
    Env env = test_env();
    InstrPtr wa = read16(0), wb = read16(L);
    Value po = evaluate(Instr::make(Opcode::VPackO, {wa, wb}), env);
    const Buffer &b = env.buffer(1);
    for (int i = 0; i < 2 * L; ++i) {
        const int64_t src =
            i % 2 == 0 ? b.at(i / 2, 0) : b.at(L + i / 2, 0);
        EXPECT_EQ(po[i],
                  wrap(i8, logical_shift_right(i16, src, 8)));
    }
}

TEST(HvxInterp, NarrowingShiftFamilies)
{
    Env env = test_env();
    InstrPtr wa = read16(0), wb = read16(L);
    const Buffer &b = env.buffer(1);
    auto src = [&](int i) {
        return i % 2 == 0 ? b.at(i / 2, 0) : b.at(L + i / 2, 0);
    };
    Value trunc = evaluate(
        Instr::make(Opcode::VAsrNarrow, {wa, wb}, {3}), env);
    Value sat = evaluate(
        Instr::make(Opcode::VAsrNarrowSat, {wa, wb}, {3}, u8), env);
    Value rnd = evaluate(
        Instr::make(Opcode::VAsrNarrowRndSat, {wa, wb}, {3}, u8), env);
    for (int i = 0; i < 2 * L; ++i) {
        EXPECT_EQ(trunc[i], wrap(i8, src(i) >> 3));
        EXPECT_EQ(sat[i], saturate(u8, src(i) >> 3));
        EXPECT_EQ(rnd[i], saturate(u8, (src(i) + 4) >> 3));
    }
}


TEST(HvxSexpr, RoundTripsSynthesizedCode)
{
    // Round-trip the interchange format on a realistic DAG (the
    // Racket<->Halide bridge of the paper's §6).
    InstrPtr a = read8(0), b = read8(L);
    InstrPtr tm = Instr::make(Opcode::VTmpy, {a, b}, {1, 2});
    InstrPtr root = Instr::make(
        Opcode::VSat,
        {Instr::make(Opcode::VLo, {tm}),
         Instr::make(Opcode::VHi, {tm})},
        {}, u8);
    const std::string text = to_sexpr(root);
    InstrPtr back = parse_instr(text);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(to_sexpr(back), text);
    // And the parsed DAG evaluates identically.
    Env env = test_env();
    EXPECT_EQ(evaluate(back, env), evaluate(root, env));
}

TEST(HvxSexpr, SplatsCarryTheirScalarExpression)
{
    InstrPtr sp = Instr::make_splat(
        hir::Expr::make(hir::Op::Mul,
                        {hir::Expr::make_var(
                             "w", VecType(ScalarType::Int16, 1)),
                         hir::Expr::make_const(
                             -64, VecType(ScalarType::Int16, 1))}),
        L);
    InstrPtr back = parse_instr(to_sexpr(sp));
    EXPECT_EQ(to_sexpr(back), to_sexpr(sp));
}

TEST(HvxSexpr, RejectsMalformedInput)
{
    EXPECT_THROW(parse_instr("(bogus u8x8)"), UserError);
    EXPECT_THROW(parse_instr("(vadd u8x8 (vmem u8x8 0 0 0))"),
                 UserError);
    // Declared/inferred type mismatch.
    EXPECT_THROW(
        parse_instr("(vadd u16x8 (vmem u8x8 0 0 0) (vmem u8x8 0 1 0))"),
        UserError);
}

} // namespace
} // namespace rake
