/**
 * @file
 * Tests for the support layer: the deterministic RNG (including the
 * UB-prone extreme-bound spans), the worker pool and the claim passes
 * every parallel pass runs on, and the checked integer parser behind
 * every flag and knob.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/error.h"
#include "support/flat_map.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace rake {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    bool differed = false;
    for (int i = 0; i < 32; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        differed |= va != c.next();
    }
    EXPECT_TRUE(differed);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
    // Degenerate span.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.range(3, 3), 3);
}

TEST(Rng, RangeExtremeBoundsAreDefined)
{
    // Regression (UBSan-visible): hi - lo used to be computed in
    // int64_t, overflowing for spans wider than INT64_MAX.
    const int64_t min = std::numeric_limits<int64_t>::min();
    const int64_t max = std::numeric_limits<int64_t>::max();
    Rng rng(11);
    bool saw_negative = false, saw_positive = false;
    for (int i = 0; i < 200; ++i) {
        const int64_t full = rng.range(min, max);
        saw_negative |= full < 0;
        saw_positive |= full > 0;
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
    for (int i = 0; i < 100; ++i) {
        const int64_t v = rng.range(min, min + 1);
        EXPECT_TRUE(v == min || v == min + 1);
        const int64_t w = rng.range(max - 1, max);
        EXPECT_TRUE(w == max - 1 || w == max);
        EXPECT_LE(rng.range(min, 0), 0);
    }
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { ++count; });
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("task failure");
            ++completed;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The other tasks still ran to completion.
    EXPECT_EQ(completed.load(), 7);
    // The pool is usable again after the failure.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, CancelPendingDropsQueueAndFiresToken)
{
    ThreadPool pool(1);
    EXPECT_TRUE(pool.cancel_token().valid());
    EXPECT_FALSE(pool.cancel_token().cancelled());

    // Park the single worker on a gate so every later submit stays
    // queued; the started flag guarantees the parked task has been
    // dequeued before we count what cancel_pending() drops.
    std::mutex gate;
    gate.lock();
    std::atomic<bool> started{false};
    std::atomic<int> ran{0};
    pool.submit([&] {
        started = true;
        std::unique_lock<std::mutex> hold(gate);
        ++ran;
    });
    while (!started)
        std::this_thread::yield();
    for (int i = 0; i < 5; ++i)
        pool.submit([&] { ++ran; });

    EXPECT_EQ(pool.cancel_pending(), 5);
    EXPECT_TRUE(pool.cancel_token().cancelled());

    // The running task is not preempted: it finishes once released,
    // and wait() returns without the dropped tasks ever running.
    gate.unlock();
    pool.wait();
    EXPECT_EQ(ran.load(), 1);

    // A deadline derived from the pool token observes the cancel, so
    // cooperative tasks wind down at their next poll.
    const Deadline d =
        Deadline().with_token(pool.cancel_token().child());
    EXPECT_TRUE(d.expired());
    EXPECT_THROW(d.check("a cancelled pool task"), TimeoutError);
}

/** A claim worker that counts itself live and records its items. */
class ClaimWorker
{
  public:
    ClaimWorker(std::atomic<int> &live, std::vector<std::atomic<int>> &hits,
                int throw_at = -1)
        : live_(live), hits_(hits), throw_at_(throw_at)
    {
        ++live_;
    }
    ClaimWorker(const ClaimWorker &) = delete;
    ~ClaimWorker() { --live_; }

    void
    operator()(int i)
    {
        ++hits_[i];
        if (i == throw_at_)
            throw std::runtime_error("boom");
    }

  private:
    std::atomic<int> &live_;
    std::vector<std::atomic<int>> &hits_;
    int throw_at_;
};

TEST(ParallelFor, ClaimsRunEveryItemOnceWithAWorkerPerParticipant)
{
    for (int workers : {1, 2, 4, 9}) {
        for (int n : {1, 2, 7, 64}) {
            std::vector<std::atomic<int>> hits(n);
            std::atomic<int> made{0}, live{0};
            parallel_claims(n, workers, [&] {
                ++made;
                return ClaimWorker(live, hits);
            });
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "item " << i << " of " << n << ", " << workers
                    << " workers";
            // Every participant made one worker, after its first claim,
            // and destroyed it before the pass returned.
            EXPECT_GE(made.load(), 1);
            EXPECT_LE(made.load(), std::min(workers, n));
            EXPECT_EQ(live.load(), 0);
        }
    }
}

TEST(ParallelFor, ClaimsRethrowAfterEveryParticipantLeaves)
{
    std::vector<std::atomic<int>> hits(64);
    std::atomic<int> live{0};
    EXPECT_THROW(parallel_claims(64, 4,
                                 [&] {
                                     return ClaimWorker(live, hits, 5);
                                 }),
                 std::runtime_error);
    EXPECT_EQ(live.load(), 0);
    EXPECT_EQ(hits[5].load(), 1);
    for (int i = 0; i < 64; ++i)
        EXPECT_LE(hits[i].load(), 1);

    // A worker that cannot be made fails the pass the same way.
    EXPECT_THROW(parallel_claims(64, 4,
                                 []() -> std::function<void(int)> {
                                     throw std::runtime_error("no worker");
                                 }),
                 std::runtime_error);
}

TEST(ParallelFor, ClaimsNeverOutliveThePass)
{
    // Passes this small often end before a helper wakes; a helper that
    // wakes late must not touch the finished pass's stack (the
    // ThreadSanitizer job runs this).
    for (int round = 0; round < 500; ++round) {
        int cells[3] = {0, 0, 0};
        parallel_claims(3, 4, [&] {
            return [&](int i) { cells[i] += i + 1; };
        });
        ASSERT_EQ(cells[0] + cells[1] + cells[2], 6) << "round " << round;
    }
}

TEST(ParallelFor, UsableCpusIsPositive)
{
    EXPECT_GE(usable_cpus(), 1);
    EXPECT_EQ(claim_helpers().workers(), std::max(1, usable_cpus() - 1));
}

TEST(ResolveJobs, ExplicitRequestWinsOverEnv)
{
    EXPECT_EQ(resolve_jobs(3), 3);
    unsetenv("RAKE_JOBS");
    EXPECT_EQ(resolve_jobs(0), 1);
    setenv("RAKE_JOBS", "5", 1);
    EXPECT_EQ(resolve_jobs(0), 5);
    EXPECT_EQ(resolve_jobs(2), 2);
    // Malformed env values used to atoi to "no parallelism"; they are
    // a hard error now (support/parse.h).
    setenv("RAKE_JOBS", "garbage", 1);
    EXPECT_THROW(resolve_jobs(0), UserError);
    setenv("RAKE_JOBS", "4abc", 1);
    EXPECT_THROW(resolve_jobs(0), UserError);
    setenv("RAKE_JOBS", "0", 1);
    EXPECT_THROW(resolve_jobs(0), UserError);
    setenv("RAKE_JOBS", "99999999999999999999", 1);
    EXPECT_THROW(resolve_jobs(0), UserError);
    // An explicit request never consults the env, so it still wins.
    EXPECT_EQ(resolve_jobs(2), 2);
    unsetenv("RAKE_JOBS");
}

TEST(ParseIntKnob, StrictParsingContract)
{
    EXPECT_EQ(parse_int_knob("42", "--knob", 0, 100), 42);
    EXPECT_EQ(parse_int_knob("-7", "--knob", -10, 10), -7);
    EXPECT_EQ(parse_int_knob(std::string("5"), "--knob", 0, 10), 5);
    EXPECT_THROW(parse_int_knob("", "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob(nullptr, "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob("abc", "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob("4abc", "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob("4.5", "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob("11", "--knob", 0, 10), UserError);
    EXPECT_THROW(parse_int_knob("-1", "--knob", 0, 10), UserError);
    // Overflow past long long is ERANGE, not a silent clamp.
    EXPECT_THROW(parse_int_knob("99999999999999999999", "--knob",
                                INT64_MIN, INT64_MAX),
                 UserError);
}

TEST(FlatMap, InsertLookupAndSortedIteration)
{
    FlatMap<int, std::string> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(3), m.end());

    m[3] = "c";
    m[1] = "a";
    m.emplace(2, "b");
    m.emplace(2, "duplicate"); // emplace must not overwrite
    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ(m.at(2), "b");
    EXPECT_EQ(m[1], "a");
    EXPECT_THROW(m.at(9), InternalError);

    // Iteration stays in ascending key order regardless of insertion
    // order — the deterministic example generators depend on it.
    std::vector<int> keys;
    for (const auto &[k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));

    const FlatMap<int, std::string> &cm = m;
    ASSERT_NE(cm.find(1), cm.end());
    EXPECT_EQ(cm.find(1)->second, "a");

    m.clear();
    EXPECT_TRUE(m.empty());
}

} // namespace
} // namespace rake
