/**
 * @file
 * A fixed-size worker pool with a simple FIFO task queue, and the one
 * data-parallel primitive built on it.
 *
 * ThreadPool is intentionally minimal: submit closures, then wait for
 * the queue to drain; the first exception thrown by any task is
 * captured and rethrown from wait(). The compile server queues its
 * select work on one (serve/server.cc), whose destruction drops the
 * tasks not yet started.
 *
 * parallel_claims shares one data-parallel pass between the calling
 * thread and a process-wide pool of helpers that sleep between
 * passes. Every pass in the tree runs on it: compile_benchmark's
 * expressions (each owns its Verifier / ExamplePool / SwizzleSolver
 * state, so they share nothing but the immutable expression DAGs and
 * the mutex-guarded synthesis cache), fuzz::run's programs and the
 * executor's row bands.
 */
#ifndef RAKE_SUPPORT_THREAD_POOL_H
#define RAKE_SUPPORT_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/deadline.h"
#include "support/parse.h"

namespace rake {

class ThreadPool
{
  public:
    explicit ThreadPool(int workers) : cancel_(CancelToken::root())
    {
        if (workers < 1)
            workers = 1;
        threads_.reserve(workers);
        for (int i = 0; i < workers; ++i)
            threads_.emplace_back([this] { worker_loop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Shutdown cancels: tasks still queued are dropped (they never
     * run) and the pool's CancelToken fires so deadline-aware tasks
     * already running wind down at their next poll. Drivers that want
     * every task to run call wait() first.
     */
    ~ThreadPool()
    {
        cancel_pending();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * A token observed by cooperative tasks: derive per-task deadlines
     * from it (Deadline::with_token) and cancel_pending() — or pool
     * destruction — interrupts them at their next poll.
     */
    const CancelToken &cancel_token() const { return cancel_; }

    /**
     * Drop every not-yet-started task and fire the cancel token.
     * Running tasks are not interrupted preemptively — cancellation
     * is cooperative — but wait() returns as soon as they finish,
     * instead of after the whole queue drains. Returns the number of
     * tasks dropped.
     */
    int
    cancel_pending()
    {
        std::queue<std::function<void()>> dropped;
        int n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            dropped.swap(queue_);
            n = static_cast<int>(dropped.size());
            outstanding_ -= n;
            if (outstanding_ == 0)
                drained_.notify_all();
        }
        cancel_.cancel();
        // `dropped` destructs outside the lock: task closures can own
        // arbitrary captures whose destructors must not deadlock.
        return n;
    }

    /** Enqueue one task. Must not be called after the destructor runs. */
    void
    submit(std::function<void()> task)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_.push(std::move(task));
            ++outstanding_;
        }
        wake_.notify_one();
    }

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception any task raised (later ones are dropped; every
     * task still runs to its own completion or failure).
     */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        drained_.wait(lock, [this] { return outstanding_ == 0; });
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

  private:
    void
    worker_loop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock,
                           [this] { return stop_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stop_ set and nothing left to do
                task = std::move(queue_.front());
                queue_.pop();
            }
            try {
                task();
            } catch (...) {
                std::unique_lock<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (--outstanding_ == 0)
                    drained_.notify_all();
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    CancelToken cancel_;
    int outstanding_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
};

/**
 * Resolve a requested job count: a positive request wins, otherwise
 * the RAKE_JOBS environment variable, otherwise 1 (sequential). A
 * set-but-malformed RAKE_JOBS (garbage, zero, negative, overflow) is
 * a hard UserError rather than silently running sequentially.
 */
inline int
resolve_jobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RAKE_JOBS"))
        return static_cast<int>(parse_int_knob(env, "RAKE_JOBS", 1,
                                               1 << 16));
    return 1;
}

/**
 * CPUs this process may run on: its affinity mask where the OS has
 * one (so a pinned process sees its own share, not the host's), else
 * the online count. Probed once.
 */
inline int
usable_cpus()
{
    static const int cpus = [] {
#if defined(__linux__)
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            return std::max(1, CPU_COUNT(&set));
#endif
        return std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
    }();
    return cpus;
}

/**
 * The helpers of parallel_claims: one thread per usable CPU but the
 * caller's, started on first use and asleep between passes.
 */
inline ThreadPool &
claim_helpers()
{
    static ThreadPool pool(usable_cpus() - 1);
    return pool;
}

namespace detail {

/** The state one parallel_claims pass shares with its helpers. */
struct ClaimPass {
    explicit ClaimPass(int items) : n(items) {}

    /** The next unclaimed item, or -1 when none is left. */
    int
    claim()
    {
        const int i = next.fetch_add(1);
        return i < n ? i : -1;
    }

    /** Keep the first error; leave the remaining items unclaimed. */
    void
    fail(std::exception_ptr e)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error)
            error = std::move(e);
        next.store(n);
    }

    const int n;
    std::atomic<int> next{0};
    /** Runs one participant from its first claimed item on. */
    const std::function<void(int)> *join = nullptr;
    std::mutex mutex;
    std::condition_variable idle;
    int helpers = 0; ///< helpers between arrival and departure
    std::exception_ptr error;
};

} // namespace detail

/**
 * Run n independent items on the calling thread and up to `workers`
 * - 1 helpers of claim_helpers(). Every participant claims items one
 * at a time until none is left, so a participant that the OS
 * deschedules holds up only the item it is running, and the caller
 * never waits for a helper that has not started: it works through
 * the items itself and then waits only for helpers still running
 * one. A participant calls make_worker() once, after its first claim,
 * and runs each item it claims with the returned callable, w(i); a
 * helper that wakes after every item is claimed never touches the
 * caller's state. Sequential on the calling thread when workers <= 1
 * or n <= 1. Rethrows the first exception after every participant
 * has left; items not yet claimed by then are skipped.
 */
template <typename MakeWorker>
void
parallel_claims(int n, int workers, MakeWorker &&make_worker)
{
    if (n <= 0)
        return;
    workers = std::min(workers, n);
    if (workers <= 1) {
        auto work = make_worker();
        for (int i = 0; i < n; ++i)
            work(i);
        return;
    }
    const auto pass = std::make_shared<detail::ClaimPass>(n);
    const std::function<void(int)> join = [&](int first) {
        try {
            auto work = make_worker();
            for (int i = first; i >= 0; i = pass->claim())
                work(i);
        } catch (...) {
            pass->fail(std::current_exception());
        }
    };
    pass->join = &join;
    ThreadPool &pool = claim_helpers();
    for (int h = std::min(workers - 1, pool.workers()); h > 0; --h) {
        pool.submit([pass] {
            {
                std::lock_guard<std::mutex> lock(pass->mutex);
                ++pass->helpers;
            }
            // Arrived before claiming: the caller, which claims until
            // none is left and then waits for arrived helpers, is
            // still waiting while this one runs an item.
            if (const int first = pass->claim(); first >= 0)
                (*pass->join)(first);
            std::lock_guard<std::mutex> lock(pass->mutex);
            if (--pass->helpers == 0)
                pass->idle.notify_all();
        });
    }
    if (const int first = pass->claim(); first >= 0)
        join(first);
    std::unique_lock<std::mutex> lock(pass->mutex);
    pass->idle.wait(lock, [&] { return pass->helpers == 0; });
    if (pass->error)
        std::rethrow_exception(pass->error);
}

} // namespace rake

#endif // RAKE_SUPPORT_THREAD_POOL_H
