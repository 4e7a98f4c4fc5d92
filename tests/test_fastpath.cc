/**
 * @file
 * Tests for the equivalence-checking fast path (DESIGN.md): the
 * observational-equivalence dedup must be invisible in what synthesis
 * selects, the corner fingerprint must separate candidates that differ
 * on any corner example, and the scratch-trial generator must follow
 * the exact rng stream of growing the pool, fill every cell as
 * `Rng::range` would, and the interpreters' shared load window and
 * in-place bitcast must compute what their per-lane definitions do.
 */
#include <gtest/gtest.h>

#include "hir/builder.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "hvx/printer.h"
#include "neon/interp.h"
#include "sim/simulator.h"
#include "synth/rake.h"
#include "synth/verify.h"

namespace rake {
namespace {

using namespace rake::hir;
using namespace rake::synth;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

/** An n-tap convolution, the synthesis stress shape used throughout. */
ExprPtr
conv(int taps, int lanes)
{
    HExpr sum;
    for (int i = 0; i < taps; ++i) {
        HExpr term =
            cast(u16, load(0, u8, lanes, i)) * ((i % 3) + 1);
        sum = sum.defined() ? sum + term : term;
    }
    return cast(u8, (sum + 8) >> 4).ptr();
}

TEST(FastPath, DedupDoesNotChangeSelectionsOrCycles)
{
    hvx::Target target;
    sim::MachineModel machine;
    for (int taps : {3, 5, 9}) {
        const ExprPtr e = conv(taps, 128);

        RakeOptions on;
        on.use_cache = false; // isolate from the process-wide cache
        on.verifier.dedup = true;
        RakeOptions off = on;
        off.verifier.dedup = false;

        auto r_on = select_instructions(e, on);
        auto r_off = select_instructions(e, off);
        ASSERT_TRUE(r_on.has_value());
        ASSERT_TRUE(r_off.has_value());

        // Identical instruction selection...
        EXPECT_EQ(hvx::to_string(r_on->instr),
                  hvx::to_string(r_off->instr))
            << "taps=" << taps;
        // ... identical cycle estimates...
        const auto s_on = sim::schedule(r_on->instr, target, machine);
        const auto s_off = sim::schedule(r_off->instr, target, machine);
        EXPECT_EQ(s_on.cycles(1024), s_off.cycles(1024));
        // ... and identical Table 1 query counts: dedup skips work
        // inside a query, never the query itself.
        EXPECT_EQ(r_on->lift.total_queries(),
                  r_off->lift.total_queries());
        EXPECT_EQ(r_on->lower.sketch.queries,
                  r_off->lower.sketch.queries);
        EXPECT_EQ(r_on->lower.swizzle.queries,
                  r_off->lower.swizzle.queries);
        // The flag actually gates the fast path.
        EXPECT_EQ(r_off->lower.sketch.dedup_skips, 0);
    }
}

TEST(FastPath, FingerprintSeparatesEveryCornerDivergence)
{
    const ExprPtr e = conv(3, 16);
    Spec spec = Spec::from_expr(e);
    ExamplePool pool(spec, 1);
    Verifier verifier(spec, pool);

    Value scratch;
    EvaluatorRef exact = [&](const Env &env) -> const Value & {
        scratch = hir::evaluate(e, env);
        return scratch;
    };
    const uint64_t base = verifier.corner_fingerprint(exact);
    EXPECT_EQ(verifier.corner_fingerprint(exact), base);

    // Perturb one lane of one corner example's output at a time: a
    // candidate differing from another on *any* corner example (even
    // a single lane) must never share its fingerprint.
    for (int corner = 0; corner < ExamplePool::kCornerExamples;
         ++corner) {
        for (int lane : {0, 7, 15}) {
            int call = 0;
            EvaluatorRef perturbed =
                [&](const Env &env) -> const Value & {
                scratch = hir::evaluate(e, env);
                if (call++ == corner)
                    scratch.lanes[lane] ^= 1;
                return scratch;
            };
            EXPECT_NE(verifier.corner_fingerprint(perturbed), base)
                << "corner=" << corner << " lane=" << lane;
        }
    }
}

TEST(FastPath, ScratchTrialsFollowThePoolRngStream)
{
    const ExprPtr e = conv(3, 16);
    Spec spec = Spec::from_expr(e);
    ExamplePool with_scratch(spec, 7);
    ExamplePool with_growth(spec, 7);

    auto same_env = [](const Env &a, const Env &b) {
        ASSERT_EQ(a.buffers.size(), b.buffers.size());
        auto ia = a.buffers.begin();
        auto ib = b.buffers.begin();
        for (; ia != a.buffers.end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first);
            EXPECT_EQ(ia->second.data, ib->second.data);
        }
        ASSERT_EQ(a.scalars.size(), b.scalars.size());
        auto sa = a.scalars.begin();
        auto sb = b.scalars.begin();
        for (; sa != a.scalars.end(); ++sa, ++sb) {
            EXPECT_EQ(sa->first, sb->first);
            EXPECT_EQ(sa->second, sb->second);
        }
    };

    // The verifier touches the persistent examples before any trial;
    // mirror that so both pools' rng streams start aligned.
    for (int i = 0; i < 6; ++i) {
        with_scratch.at(i);
        with_growth.at(i);
    }

    // Discarded trials consume the rng exactly like the legacy
    // grow-then-pop dance.
    for (int t = 0; t < 3; ++t) {
        const Env &ea = with_scratch.next_trial();
        const Env &eb = with_growth.at(with_growth.size());
        same_env(ea, eb);
        with_growth.pop();
    }

    // Adopting the live trial matches growing the pool: same content,
    // same index, and the streams stay aligned afterwards.
    const Env &kept = with_growth.at(with_growth.size());
    same_env(with_scratch.next_trial(), kept);
    with_scratch.adopt_trial();
    EXPECT_EQ(with_scratch.size(), with_growth.size());
    same_env(with_scratch.at(with_scratch.size() - 1), kept);
    same_env(with_scratch.at(with_scratch.size()),
             with_growth.at(with_growth.size()));
}

TEST(FastPath, TrialsDrawTheFullRangeOfEveryScalarType)
{
    // Int64's span is 2^64 (range returns the bare draw), UInt64's is
    // 2^63 and every narrower type's is 2^bits: each trial cell must
    // be what wrap(range(min, max)) draws from the same seed, and the
    // scalar what range(-32768, 32767) draws after the buffer.
    for (int k = 0; k < kNumScalarTypes; ++k) {
        const ScalarType t = static_cast<ScalarType>(k);
        const HExpr e = load(0, t, 8) + broadcast(var("s", t), 8);
        const Spec spec = Spec::from_expr(e.ptr());
        ExamplePool pool(spec, 11);
        Rng ref(11);
        auto draw = [&] {
            return wrap(t, ref.range(min_value(t), max_value(t)));
        };
        for (int trial = 0; trial < 4; ++trial) {
            const Env &env = pool.next_trial();
            for (int64_t cell : env.buffer(0).data)
                ASSERT_EQ(cell, draw())
                    << to_string(t) << " trial " << trial;
            EXPECT_EQ(env.scalar("s"), ref.range(-32768, 32767))
                << to_string(t) << " trial " << trial;
        }
        // The draw after them: the stream position agrees too.
        EXPECT_EQ(pool.next_trial().buffer(0).data[0], draw())
            << to_string(t);
    }
}

TEST(FastPath, LoadWindowMatchesPerLaneAt)
{
    constexpr ScalarType i16 = ScalarType::Int16;
    // A 20x3 buffer whose data[0] sits at (-5, 2).
    Buffer buf(i16, 20, 3, -5, 2);
    for (size_t i = 0; i < buf.data.size(); ++i)
        buf.data[i] = wrap(i16, static_cast<int64_t>(i) * 7919 - 30000);
    Env env;
    env.buffers.emplace(0, buf);

    struct Window {
        const char *what;
        int x, y;
    };
    const Window windows[] = {
        {"inside", -3, 3},
        {"crossing the left edge", -8, 3},
        {"crossing the right edge", 10, 3},
        {"above the top edge", 0, 0},
        {"below the bottom edge", 0, 7},
        {"wholly left", -40, 2},
        {"wholly right", 30, 4},
        {"wholly outside a corner", -40, -9},
    };
    hir::Interpreter hir_interp;
    hvx::Interpreter hvx_interp;
    neon::Interpreter neon_interp;
    for (int lanes : {8, 32}) {
        const VecType type(i16, lanes);
        // Split the window's origin between the env's loop indices and
        // the load's offsets, as lowered code does.
        const hir::LoadRef ref{0, 1, -1};
        const ExprPtr h = hir::Expr::make_load(ref, type);
        const hvx::InstrPtr v = hvx::Instr::make_read(ref, type);
        const neon::NInstrPtr n = neon::NInstr::make_read(ref, type);
        for (const Window &w : windows) {
            env.x = w.x - ref.dx;
            env.y = w.y - ref.dy;
            std::vector<int64_t> want(lanes);
            for (int i = 0; i < lanes; ++i)
                want[i] = buf.at(w.x + i, w.y);
            hir_interp.reset(env);
            hvx_interp.reset(env);
            neon_interp.reset(env);
            EXPECT_EQ(hir_interp.eval(h).lanes, want)
                << "hir, " << lanes << " lanes " << w.what;
            EXPECT_EQ(hvx_interp.eval(v).lanes, want)
                << "hvx, " << lanes << " lanes " << w.what;
            EXPECT_EQ(neon_interp.eval(n).lanes, want)
                << "neon, " << lanes << " lanes " << w.what;
        }
    }
}

TEST(FastPath, BitcastMatchesByteSerialization)
{
    const ScalarType elems[] = {
        ScalarType::Int8,  ScalarType::UInt8,  ScalarType::Int16,
        ScalarType::UInt16, ScalarType::Int32, ScalarType::UInt32};
    constexpr int kBytes = 64;
    Rng rng(5);
    for (ScalarType in : elems) {
        const VecType in_type(in, kBytes / bytes(in));
        Buffer buf(in, in_type.lanes);
        for (int64_t &cell : buf.data)
            cell = wrap(in, rng.range(min_value(in), max_value(in)));
        Env env;
        env.buffers.emplace(0, buf);
        const hvx::InstrPtr read =
            hvx::Instr::make_read(hir::LoadRef{0, 0, 0}, in_type);
        for (ScalarType out : elems) {
            // The definition: serialize the lanes little-endian, then
            // read the bytes back as `out` lanes.
            uint8_t raw[kBytes];
            for (int i = 0; i < in_type.lanes; ++i)
                for (int b = 0; b < bytes(in); ++b)
                    raw[i * bytes(in) + b] = static_cast<uint8_t>(
                        static_cast<uint64_t>(buf.data[i]) >> (8 * b));
            std::vector<int64_t> want(kBytes / bytes(out));
            for (size_t i = 0; i < want.size(); ++i) {
                uint64_t u = 0;
                for (int b = 0; b < bytes(out); ++b)
                    u |= static_cast<uint64_t>(raw[i * bytes(out) + b])
                         << (8 * b);
                want[i] = wrap(out, static_cast<int64_t>(u));
            }
            const hvx::InstrPtr cast =
                hvx::Instr::make(hvx::Opcode::VBitcast, {read}, {}, out);
            hvx::Interpreter interp(env);
            const Value &got = interp.eval(cast);
            EXPECT_EQ(got.type, VecType(out, kBytes / bytes(out)));
            EXPECT_EQ(got.lanes, want)
                << to_string(in) << " -> " << to_string(out);
        }
    }
}

TEST(FastPath, VerifierMovesCounterexamplesIntoThePool)
{
    // A wrong candidate must leave behind a persistent counter-example
    // and subsequent checks must reuse it (pool growth, not copies).
    const ExprPtr e = conv(3, 16);
    Spec spec = Spec::from_expr(e);
    ExamplePool pool(spec, 1);
    Verifier verifier(spec, pool);
    QueryStats qs;

    const int before = pool.size();
    // Off-by-one in the rounding constant: corner examples with
    // all-equal inputs can agree, so rejection may need the trials.
    HExpr bad_expr =
        cast(u8, ((cast(u16, load(0, u8, 16, 0)) +
                   cast(u16, load(0, u8, 16, 1)) * 2 +
                   cast(u16, load(0, u8, 16, 2)) * 3) +
                  9) >>
                 4);
    EXPECT_FALSE(verifier.equivalent(
        [&](const Env &env) { return hir::evaluate(bad_expr.ptr(), env); },
        qs));
    if (qs.counterexamples > 0) {
        EXPECT_GT(pool.size(), before);
    }
}

} // namespace
} // namespace rake
