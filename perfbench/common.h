/**
 * @file
 * Shared pieces of the benchmark program: arguments, the in-memory span
 * recorder of traced runs, the per-pass sample log, quantiles, and the
 * workload interface every workload implements.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
ms_since(Clock::time_point t0)
{
    return seconds_since(t0) * 1e3;
}

/** Sizes of one workload; `tiny` shrinks every input for the self-test. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int jobs = 0;       ///< worker threads; 0 = half the online CPUs
    bool tiny = false;  ///< self-test sizes
    std::string out_dir = ".bench_out";
};

int online_cpus();

/**
 * Worker threads (and serve connections) of a run: --jobs, else half
 * the online CPUs. The other half is headroom: on a shared host, CPU
 * stolen by neighbours then lands on an idle CPU instead of on a
 * worker the op is waiting for.
 */
int resolve_workers(const Args &args);

/**
 * Spans of a traced run, kept in memory and written at exit as Chrome
 * trace-event JSON. Disabled (untraced runs) a Span costs one branch.
 */
class Tracer
{
  public:
    struct Record {
        std::string name;
        double start_us = 0;
        double dur_us = 0;
        uint64_t tid = 0;
        int64_t id = 0;
        int64_t parent = 0; ///< enclosing span on the same thread, or 0
    };

    bool enabled() const { return enabled_; }
    void enable(Clock::time_point origin);

    /** Start a span on this thread; returns its id, sets its parent. */
    int64_t open(int64_t *parent_slot);
    void close(int64_t id, const char *name, Clock::time_point start,
               int64_t parent);

    /** Write the trace-event file; returns false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    int64_t next_id_ = 1;
};

Tracer &tracer();

/** RAII span around one call into the program. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    int64_t id_ = 0;
    int64_t parent_ = 0;
    Clock::time_point start_;
};

/** Linear-interpolation quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Timed samples of one pass of a workload. */
struct PassLog {
    double seconds = 0;            ///< wall time of the pass
    std::vector<double> latency_ms; ///< one per completed op
    int64_t attempted = 0;
    int64_t failed = 0;
};

struct Metric {
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What a run reports: the result line's fields plus the self-test's. */
struct Outcome {
    int64_t attempted = 0;
    int64_t failed = 0;
    Metrics metrics;
    /** Deterministic counts (queries, tiers, code size, cycles). */
    std::map<std::string, int64_t> counters;
    /** First failure messages, for the log. */
    std::vector<std::string> failures;

    void
    fail(int64_t ops, const std::string &why)
    {
        failed += ops;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/**
 * One workload. setup() builds every input and reference from the
 * seed and runs the untimed warm-up pass; pass() runs one timed pass;
 * finish() runs the post-run checks and fills workload-level metrics;
 * layers() is the traced run's probe of each layer's public entry on
 * this workload's inputs.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual void pass(PassLog &log) = 0;
    virtual void finish(Outcome &out) = 0;
    virtual void layers(Outcome &out) = 0;
};

std::unique_ptr<Workload> make_suite_compile(const Args &args);
std::unique_ptr<Workload> make_execute_jit(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
