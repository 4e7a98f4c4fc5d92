/**
 * @file
 * Cross-expression synthesis cache.
 *
 * Rake's compile time is dominated by per-expression synthesis
 * (paper Table 1), and real pipelines repeat subexpressions — the
 * shared conv subtrees of the benchmark suite, or the same kernel
 * compiled under several benchmarks. The cache maps the structural
 * hash of the (simplified) HIR expression plus a fingerprint of every
 * option that can influence synthesis to the full result, so each
 * distinct (expression, options) pair is synthesized exactly once per
 * process.
 *
 * Concurrency: the table is guarded by one mutex. A lookup that
 * misses installs an *in-flight* entry; concurrent lookups of the
 * same key block on a condition variable until the owner publishes,
 * so a goal is never synthesized twice even when the parallel driver
 * races identical expressions. Because synthesis is deterministic
 * (seeded RNG, ordered search), the published result — including its
 * per-stage statistics — is identical no matter which thread won,
 * which keeps benchmark statistics bit-identical across job counts.
 *
 * There is one table per backend name (TargetISA::name()): the same
 * HIR expression lowers to different instruction sets. The HVX-typed
 * select_instructions() and a select_instructions_for() over an HVX
 * backend share the "hvx" table.
 */
#ifndef RAKE_SYNTH_CACHE_H
#define RAKE_SYNTH_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "synth/rake.h"

namespace rake::synth {

/** Cache effectiveness counters (monotonic per process). */
struct CacheStats {
    int64_t hits = 0;    ///< lookups answered from the table
    int64_t misses = 0;  ///< lookups that had to synthesize
    int64_t entries = 0; ///< distinct keys currently stored

    // Second (on-disk) tier, see synth/persist.h. All zero unless a
    // cache directory is configured, so reports and JSON can emit
    // them only when nonzero and no-cache output stays bit-identical.
    int64_t disk_hits = 0;    ///< queries answered from the disk tier
    int64_t disk_writes = 0;  ///< completed results persisted to disk
    int64_t disk_invalid = 0; ///< entries rejected (stale version,
                              ///< truncated/corrupt file): misses

    /**
     * Hits that found their entry still *in flight* and blocked until
     * the owner published — the cross-client dedupe the compile
     * server reports as `inflight_dedup`. A subset of `hits`; always
     * zero when queries never overlap (e.g. a single-threaded run),
     * so existing reports are unaffected.
     */
    int64_t inflight_hits = 0;

    /**
     * Completed CEGIS executions against this cache's target —
     * queries no tier (memory/disk/rules) could answer. Reported by
     * the query layer (synth/rake.cc), like the disk counters, and
     * counted even for use_cache = false queries. Timed-out searches
     * are not counted: they retract instead of completing.
     */
    int64_t synth_runs = 0;
};

/** Everything beyond the expression that can change a Rake run. */
uint64_t options_fingerprint(const RakeOptions &opts);

namespace detail {

inline uint64_t
cache_mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0x100000001b3ull;
}

} // namespace detail

/** One backend's table; see the file comment. */
class SynthCache
{
  public:
    /**
     * One cache slot. `done` flips exactly once, under the cache
     * mutex; `result` is nullopt while in flight and also when the
     * owning synthesis failed (failures are cached: they are as
     * deterministic as successes). A deadline-aborted synthesis is
     * *not* a failure — the owner retract()s the entry instead, so a
     * timeout never poisons later, unhurried queries.
     */
    struct Entry {
        hir::ExprPtr expr;  ///< key expression (deep-compared)
        uint64_t fingerprint = 0;
        bool done = false;
        bool aborted = false; ///< retracted: waiters must re-acquire
        std::optional<BackendRakeResult> result;
    };
    using EntryPtr = std::shared_ptr<Entry>;

    /**
     * Look up (expr, fingerprint). On a hit, blocks until the entry
     * is published if another thread is still synthesizing it, then
     * returns it with *owner = false. On a miss, installs an
     * in-flight entry and returns it with *owner = true: the caller
     * MUST publish() or retract() it exactly once (publishing a
     * failure is fine), or every later lookup of the key deadlocks.
     *
     * A waiter whose entry gets retract()ed re-scans and may become
     * the new owner. A waiter whose own `deadline` expires while
     * blocked throws TimeoutError — its budget is spent even though
     * it never synthesized anything.
     */
    EntryPtr
    acquire(const hir::ExprPtr &expr, uint64_t fingerprint, bool *owner,
            const Deadline &deadline = {})
    {
        const size_t bucket = detail::cache_mix(expr->hash(), fingerprint);
        std::unique_lock<std::mutex> lock(mutex_);
        bool waited = false; // found the entry before its owner
                             // published: an in-flight dedupe
        for (;;) {
            std::vector<EntryPtr> &slots = table_[bucket];
            EntryPtr e;
            for (const EntryPtr &slot : slots) {
                if (slot->fingerprint == fingerprint &&
                    hir::equal(slot->expr, expr)) {
                    // Copy the shared_ptr: waiting releases the
                    // mutex, and a concurrent insert may reallocate
                    // the bucket vector.
                    e = slot;
                    break;
                }
            }
            if (!e) {
                auto entry = std::make_shared<Entry>();
                entry->expr = expr;
                entry->fingerprint = fingerprint;
                table_[bucket].push_back(entry);
                ++stats_.misses;
                ++stats_.entries;
                *owner = true;
                return entry;
            }
            if (!e->done)
                waited = true;
            // Another thread may still be synthesizing this key;
            // block until it publishes rather than duplicating work —
            // but no longer than the waiter's own deadline. A
            // deadline can be token-only (e.g. ThreadPool::
            // cancel_pending() firing the run token with no
            // per-expression expiry), and a condition variable cannot
            // observe a CancelToken directly, so an active deadline
            // waits in bounded slices and re-checks both halves
            // between them instead of blocking forever.
            if (deadline.active()) {
                while (!e->done) {
                    auto slice = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(10);
                    if (deadline.has_expiry() &&
                        deadline.expiry() < slice)
                        slice = deadline.expiry();
                    published_.wait_until(lock, slice,
                                          [&e] { return e->done; });
                    if (e->done)
                        break;
                    const bool cancelled =
                        deadline.token().valid() &&
                        deadline.token().cancelled();
                    const bool expired =
                        deadline.has_expiry() &&
                        std::chrono::steady_clock::now() >=
                            deadline.expiry();
                    if (cancelled || expired)
                        throw TimeoutError("waiting on an in-flight "
                                           "synthesis of the same "
                                           "goal");
                }
            } else {
                published_.wait(lock, [&e] { return e->done; });
            }
            if (e->aborted)
                continue; // retracted by a timed-out owner: retry
            ++stats_.hits;
            if (waited)
                ++stats_.inflight_hits;
            *owner = false;
            return e;
        }
    }

    /** Publish the owner's outcome and wake all waiters. */
    void
    publish(const EntryPtr &entry, std::optional<BackendRakeResult> result)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            entry->result = std::move(result);
            entry->done = true;
        }
        published_.notify_all();
    }

    /**
     * The owner's other exit: its synthesis was aborted by a deadline,
     * so the outcome says nothing about the key. Removes the entry
     * from the table (a later query synthesizes afresh) and wakes
     * waiters, which re-acquire. The retraction is not counted as a
     * hit or an entry — from the stats' perspective the aborted
     * lookup was a miss that produced nothing.
     */
    void
    retract(const EntryPtr &entry)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const size_t bucket = detail::cache_mix(
                entry->expr->hash(), entry->fingerprint);
            auto it = table_.find(bucket);
            if (it != table_.end()) {
                auto &slots = it->second;
                for (size_t i = 0; i < slots.size(); ++i) {
                    if (slots[i] == entry) {
                        slots.erase(slots.begin() +
                                    static_cast<ptrdiff_t>(i));
                        --stats_.entries;
                        break;
                    }
                }
            }
            entry->aborted = true;
            entry->done = true;
        }
        published_.notify_all();
    }

    CacheStats
    stats() const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return stats_;
    }

    /**
     * Disk-tier accounting (synth/persist.h). The persistent store
     * lives below this table — it has no access to the per-target
     * counters — so the query layer reports disk outcomes here and
     * every driver keeps reading one CacheStats per target. Counted
     * even for uncached (use_cache = false) queries: the counters are
     * process-wide effectiveness numbers, not table contents.
     */
    void
    note_disk_hit()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.disk_hits;
    }

    void
    note_disk_write()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.disk_writes;
    }

    void
    note_disk_invalid()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.disk_invalid;
    }

    /** One completed CEGIS run (see CacheStats::synth_runs). */
    void
    note_synth_run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.synth_runs;
    }

    /** Drop every entry and zero the counters (tests, benchmarks). */
    void
    clear()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        table_.clear();
        stats_ = CacheStats{};
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable published_;
    std::unordered_map<size_t, std::vector<EntryPtr>> table_;
    CacheStats stats_;
};

/**
 * The process-wide cache for one backend, keyed by TargetISA::name().
 * A table per name keeps clear() (tests, benchmarks) scoped to one
 * target.
 */
SynthCache &backend_synthesis_cache(const std::string &backend);

/** The HVX table: backend_synthesis_cache("hvx"). */
SynthCache &synthesis_cache();

} // namespace rake::synth

#endif // RAKE_SYNTH_CACHE_H
