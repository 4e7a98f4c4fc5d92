/**
 * @file
 * The on-disk tier of the cross-expression synthesis cache.
 *
 * The paper's compile time is dominated by per-expression synthesis
 * (Table 1), and most queries a fleet issues re-derive shapes some
 * process already solved (Daly et al., PAPERS.md). The in-memory
 * cache (synth/cache.h) dies with the process; this store makes
 * completed results survive it: each (backend, expression, options)
 * key maps to one small text file, content-addressed by the
 * expression's canonical s-expression plus the options fingerprint,
 * so a warm directory answers repeated queries in file-read time
 * instead of re-paying CEGIS.
 *
 * One entry layout serves every backend: the version header and the
 * key, then either `status no_solution` or `status ok` followed by
 * the backend's instruction s-expression, the Table 1 stage
 * statistics and the z3 proof outcome, then an `end` trailer. Every
 * query goes through the one selection ladder (synth/rake.h), so an
 * entry the compile path wrote answers the serving path and back.
 *
 * Versioning: every entry records explicit version keys — the
 * backend name, the backend's grammar version, its cost-model
 * version, and the serialization-format version. Bumping any one
 * makes old entries fail validation on load (counted as
 * `disk_invalid`, treated as a miss, overwritten by the next store),
 * so a stale cache self-invalidates instead of replaying selections
 * today's search would not make.
 *
 * Crash safety: entries are written to a per-process temp file and
 * atomically renamed into place; one file per entry, so concurrent
 * writers (even across processes) never take a global lock and a
 * torn write can never be observed. A reader that finds a truncated
 * or corrupt file treats it as a miss, never an error.
 *
 * What is never persisted: timed-out or degraded results (mirroring
 * the in-memory retract() protocol — an aborted search says nothing
 * about the key), and results published on an exception path. A
 * deterministic "no solution" outcome *is* persisted: it is as
 * reproducible as a success.
 *
 * The `lifted` intermediate (uir::UExprPtr) is deliberately not
 * serialized — no consumer of a cached selection reads it, and the
 * UIR has no parser. Disk hits carry a null `lifted`.
 */
#ifndef RAKE_SYNTH_PERSIST_H
#define RAKE_SYNTH_PERSIST_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/target_isa.h"
#include "synth/rake.h"

namespace rake::synth {

/** Serialization-format version (the file layout itself). */
inline constexpr int kPersistFormatVersion = 1;

/**
 * Version keys of the HVX backend (TargetISA::grammar_version() /
 * cost_model_version() return them). Bump on grammar / cost-model
 * changes; rule tables and the miner key on them too. Grammar 2:
 * scalar examples take their variable type's extremes, so entries
 * written under 1, which can hold a saturating narrow where the cast
 * wraps, are re-synthesized. Cost model 2: structurally equal nodes
 * count once, so entries and rule costs written under 1, which counted
 * a separately built copy of a node again, are re-synthesized.
 */
inline constexpr int kHvxGrammarVersion = 2;
inline constexpr int kHvxCostModelVersion = 2;

/** Disk-tier counters (monotonic per store). */
struct DiskCacheStats {
    int64_t hits = 0;    ///< valid entries answered from disk
    int64_t writes = 0;  ///< entries persisted
    int64_t invalid = 0; ///< entries rejected: stale version keys or
                         ///< truncated/corrupt files (treated as miss)
};

/** Outcome of one disk lookup. */
struct DiskLookup {
    bool hit = false; ///< a valid entry existed for the key
    bool invalid = false; ///< an entry existed but was rejected
    /** Payload; nullopt is a cached deterministic no-solution. */
    std::optional<BackendRakeResult> result;
};

/**
 * One cache directory. Thread-safe: lookups and stores touch only
 * per-entry files plus atomic counters. Obtain instances through
 * persistent_store() so every query against the same directory
 * shares one stats block.
 */
class PersistentStore
{
  public:
    /** Creates `dir` (and parents) if missing; throws UserError when
     *  that fails. */
    explicit PersistentStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Look up a completed outcome. The instruction DAG round-trips
     * through TargetISA::instr_to_sexpr / instr_from_sexpr and the
     * entry carries the backend's own version keys. The entry is read
     * with the shared line-record reader (support/parse.h); any
     * UserError it or the backend's parser throws makes the entry
     * invalid, a miss.
     */
    DiskLookup load_backend(const hir::ExprPtr &normalized,
                            uint64_t options_fp,
                            const backend::TargetISA &isa);

    /**
     * Persist a completed outcome; returns false (and writes
     * nothing) for results that must never land on disk — degraded
     * or timed-out queries — or on I/O failure.
     */
    bool store_backend(const hir::ExprPtr &normalized,
                       uint64_t options_fp,
                       const backend::TargetISA &isa,
                       const std::optional<BackendRakeResult> &result);

    DiskCacheStats stats() const;

    /** Path of the entry file for a key (tests, tooling). */
    std::string entry_path(const std::string &backend,
                           const hir::ExprPtr &normalized,
                           uint64_t options_fp) const;

  private:
    std::string dir_;
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> writes_{0};
    std::atomic<int64_t> invalid_{0};
};

/**
 * Process-wide store registry, one per directory; nullptr when `dir`
 * is empty (the disk tier is off). Stores are never destroyed — like
 * the synthesis-cache singletons, they live for the process.
 */
PersistentStore *persistent_store(const std::string &dir);

/**
 * One solved entry as seen by the offline rule miner
 * (tools/rake_mine_rules): the recorded version keys plus the raw
 * (canonical HIR sexpr, instruction sexpr) pair. `instr` is empty
 * for persisted no-solution outcomes.
 */
struct CacheEntryView {
    std::string backend;
    int grammar = 0;
    int cost_model = 0;
    std::string expr;
    std::string instr;
};

/**
 * Walk a cache directory and return every parseable entry, sorted by
 * filename for a deterministic mining order. Unlike load_backend(),
 * this does not validate against an expected key — the miner wants
 * every backend's solved pairs and filters on version keys itself.
 * Corrupt or truncated files are silently skipped (they are a miss
 * for the cache too); a missing directory yields an empty list.
 */
std::vector<CacheEntryView> scan_cache_dir(const std::string &dir);

/**
 * Crash-safe, durable publish of `payload` at `path` (temp file,
 * fsync, atomic rename, directory fsync; persist.cc has the details).
 * False on any I/O failure. Publishes both the cache entries and the
 * mined rule table (synth/rules.h).
 */
bool atomic_write(const std::string &path, const std::string &payload);

/**
 * Resolve the cache-directory knob: an explicit path wins, then the
 * RAKE_CACHE_DIR environment variable, then "" (disk tier off).
 * Shared by every CLI that exposes --cache-dir.
 */
std::string resolve_cache_dir(const std::string &requested);

} // namespace rake::synth

#endif // RAKE_SYNTH_PERSIST_H
