/**
 * @file
 * Tests for the cooperative deadline layer: CancelToken trees,
 * Deadline polling and combination, the timeout-knob resolution every
 * CLI shares, and end-to-end degradation — an expired budget must
 * yield a structured TimedOut result carrying the greedy fallback
 * program, and an unlimited run must behave bit-identically to a
 * build without deadlines at all.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>

#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "neon/interp.h"
#include "pipeline/executor.h"
#include "support/deadline.h"
#include "synth/cache.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::hir;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

/** The executor-friendly two-tap average used throughout. */
HExpr
average_expr(int lanes = 64)
{
    return cast(u8, (cast(u16, load(0, u8, lanes)) +
                     cast(u16, load(0, u8, lanes, 1)) + 1) >>
                        1);
}

TEST(CancelToken, DefaultIsInvalidAndInert)
{
    CancelToken t;
    EXPECT_FALSE(t.valid());
    EXPECT_FALSE(t.cancelled());
    t.cancel(); // no-op, not a crash
    EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, CancellationFlowsParentToChildOnly)
{
    CancelToken parent = CancelToken::root();
    CancelToken child = parent.child();
    CancelToken grandchild = child.child();
    EXPECT_TRUE(grandchild.valid());
    EXPECT_FALSE(grandchild.cancelled());

    // Cancelling a mid-tree token reaches its descendants...
    child.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());
    // ...but never its ancestors.
    EXPECT_FALSE(parent.cancelled());

    parent.cancel();
    EXPECT_TRUE(parent.cancelled());
    EXPECT_TRUE(parent.child().cancelled()); // even a late child
}

TEST(Deadline, DefaultNeverExpires)
{
    const Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.has_expiry());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(d.expired());
    EXPECT_NO_THROW(d.check("anything"));
}

TEST(Deadline, ZeroBudgetExpiresOnFirstPoll)
{
    // The poll stride must not delay the very first clock read, or
    // after_ms(0) — the determinism workhorse of every timeout test —
    // would take kStride polls to fire.
    const Deadline d = Deadline::after_ms(0);
    EXPECT_TRUE(d.active());
    EXPECT_TRUE(d.expired());
    EXPECT_TRUE(d.expired()); // cached once fired
    try {
        d.check("the unit test");
        FAIL() << "check() must throw on an expired deadline";
    } catch (const TimeoutError &ex) {
        EXPECT_STREQ(ex.what(),
                     "deadline expired during the unit test");
    }
}

TEST(Deadline, TokenCancellationFiresWithoutClock)
{
    CancelToken t = CancelToken::root();
    const Deadline d = Deadline().with_token(t.child());
    EXPECT_TRUE(d.active());
    EXPECT_FALSE(d.has_expiry());
    EXPECT_FALSE(d.expired());
    t.cancel();
    EXPECT_TRUE(d.expired());
    EXPECT_THROW(d.check("a cancelled stage"), TimeoutError);
}

TEST(Deadline, SoonerKeepsTheEarlierExpiryAndAToken)
{
    const Deadline never;
    const Deadline soon = Deadline::after_ms(0);
    const Deadline late = Deadline::after_ms(3600 * 1000);

    EXPECT_FALSE(never.sooner(never).has_expiry());
    EXPECT_TRUE(never.sooner(soon).expired());
    EXPECT_TRUE(soon.sooner(never).expired());
    EXPECT_EQ(late.sooner(soon).expiry(), soon.expiry());
    EXPECT_EQ(soon.sooner(late).expiry(), soon.expiry());

    // The token travels through the combination in either direction.
    const Deadline with = Deadline().with_token(CancelToken::root());
    EXPECT_TRUE(never.sooner(with).token().valid());
    EXPECT_TRUE(with.sooner(never).token().valid());
}

TEST(Deadline, ResolveTimeoutPrecedence)
{
    // Explicit positive request > positive env var > 0 (no deadline).
    const char *var = "RAKE_TEST_TIMEOUT_MS";
    unsetenv(var);
    EXPECT_EQ(resolve_timeout_ms(0, var), 0);
    EXPECT_EQ(resolve_timeout_ms(25, var), 25);
    setenv(var, "40", 1);
    EXPECT_EQ(resolve_timeout_ms(0, var), 40);
    EXPECT_EQ(resolve_timeout_ms(25, var), 25);
    // A malformed or negative env value used to atoi to "no deadline";
    // it is a hard error now (support/parse.h), because silently
    // dropping the user's budget is the worst possible reading.
    setenv(var, "-3", 1);
    EXPECT_THROW(resolve_timeout_ms(0, var), UserError);
    setenv(var, "garbage", 1);
    EXPECT_THROW(resolve_timeout_ms(0, var), UserError);
    setenv(var, "2147483648", 1); // INT_MAX + 1
    EXPECT_THROW(resolve_timeout_ms(0, var), UserError);
    // An explicit request never consults the env.
    EXPECT_EQ(resolve_timeout_ms(25, var), 25);
    // "0" is a valid way of spelling "no deadline".
    setenv(var, "0", 1);
    EXPECT_EQ(resolve_timeout_ms(0, var), 0);
    unsetenv(var);
}

/**
 * Regression: a cache waiter whose deadline carries only a
 * CancelToken (no wall-clock expiry — exactly what
 * ThreadPool::cancel_pending() produces) used to block forever,
 * because the wait path only honored has_expiry(). Cancellation must
 * wake it with a TimeoutError.
 */
TEST(Deadline, TokenOnlyDeadlineUnblocksCacheWaiter)
{
    auto &cache = synth::synthesis_cache();
    cache.clear();
    const ExprPtr expr = average_expr().ptr();

    // Become the owner of the in-flight entry and never publish, so
    // a second acquire on the same key must wait.
    bool owner = false;
    auto entry = cache.acquire(expr, 1, &owner, Deadline());
    ASSERT_TRUE(owner);

    const CancelToken token = CancelToken::root();
    const Deadline token_only = Deadline().with_token(token);
    ASSERT_TRUE(token_only.active());
    ASSERT_FALSE(token_only.has_expiry());

    std::atomic<bool> threw{false};
    std::thread waiter([&] {
        bool waiter_owner = false;
        try {
            cache.acquire(expr, 1, &waiter_owner, token_only);
        } catch (const TimeoutError &) {
            threw.store(true);
        }
    });
    // Let the waiter block, then cancel: it must wake promptly.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.cancel();
    waiter.join();
    EXPECT_TRUE(threw.load());

    // Unwind the in-flight entry so later tests see a clean cache.
    cache.retract(entry);
    cache.clear();
}

TEST(Degradation, ExpiredBudgetShipsRunnableBaselineProgram)
{
    synth::synthesis_cache().clear();
    HExpr e = average_expr();
    synth::RakeOptions opts;
    opts.deadline = Deadline::after_ms(0);
    auto r = synth::select_instructions(e.ptr(), opts);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, synth::SynthStatus::TimedOut);
    EXPECT_TRUE(r->degraded);
    ASSERT_NE(r->instr, nullptr);

    // Degraded is not broken: the baseline program the fallback ships
    // still computes the kernel exactly, end to end on whole images.
    std::map<int, pipeline::Image> inputs;
    inputs.emplace(0, pipeline::Image::synthetic(u8, 128, 4, 9));
    pipeline::Image ref =
        pipeline::run_tiles_reference(e.ptr(), inputs);
    pipeline::Image got = pipeline::run_tiles(r->instr, inputs);
    EXPECT_EQ(pipeline::count_mismatches(ref, got), 0);
}

TEST(Degradation, NeonDegradesToGreedyMapping)
{
    synth::backend_synthesis_cache("neon").clear();
    HExpr e = average_expr();
    synth::RakeOptions opts;
    opts.deadline = Deadline::after_ms(0);
    const auto isa = backend::make_neon_backend(neon::Target{});
    auto n = synth::select_instructions_for(e.ptr(), *isa, opts);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(n->status, synth::SynthStatus::TimedOut);

    // The greedy mapping is still a verified-correct implementation.
    const auto code = std::static_pointer_cast<const neon::NInstr>(n->instr);
    for (const Env &env : test::environments_for(e.ptr(), 6, 13)) {
        EXPECT_EQ(hir::evaluate(e.ptr(), env), neon::evaluate(code, env));
    }
}

TEST(Degradation, GenerousDeadlineIsBitIdenticalToNone)
{
    // The acceptance bar for the whole layer: threading a deadline
    // that never fires through the stack must not perturb the search
    // — same program, same query counts, stage by stage.
    HExpr e = average_expr();
    synth::RakeOptions plain;
    plain.use_cache = false;
    synth::RakeOptions timed = plain;
    timed.deadline = Deadline::after_ms(3600 * 1000);

    auto a = synth::select_instructions(e.ptr(), plain);
    auto b = synth::select_instructions(e.ptr(), timed);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->status, synth::SynthStatus::Ok);
    EXPECT_EQ(b->status, synth::SynthStatus::Ok);
    EXPECT_FALSE(b->degraded);
    EXPECT_TRUE(hvx::equal(a->instr, b->instr));
    EXPECT_EQ(a->lift.total_queries(), b->lift.total_queries());
    EXPECT_EQ(a->lower.sketch.queries, b->lower.sketch.queries);
    EXPECT_EQ(a->lower.swizzle.queries, b->lower.swizzle.queries);
}

} // namespace
} // namespace rake
