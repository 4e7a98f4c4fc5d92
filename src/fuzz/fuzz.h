/**
 * @file
 * The generative differential fuzzing driver.
 *
 * Ties the pieces together: derive one seed per program from the base
 * seed (fuzz/generator.h), generate, run the oracle lattice
 * (fuzz/oracles.h), shrink any divergence with the delta-debugging
 * minimizer (fuzz/minimize.h), and optionally persist reproducers
 * (fuzz/corpus.h). Programs are independent, so the calling thread
 * and the process-wide claim helpers take them one at a time
 * (parallel_claims, support/thread_pool.h); results land in per-index
 * slots, which makes the report byte-identical for any --jobs value.
 */
#ifndef RAKE_FUZZ_FUZZ_H
#define RAKE_FUZZ_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/oracles.h"

namespace rake::fuzz {

/** Configuration of one fuzzing run. */
struct FuzzOptions {
    uint64_t seed = 1;      ///< base seed of the program stream
    int count = 100;        ///< number of programs to generate
    int jobs = 1;           ///< participants (0 = RAKE_JOBS, else 1),
                            ///< at most one per usable CPU
    bool minimize = true;   ///< shrink divergences before reporting
    std::string corpus_dir; ///< write reproducers here ("" = don't)
    GenOptions gen;
    OracleOptions oracles;
};

/** One divergence, with the shrunk reproducer when minimization ran. */
struct Finding {
    int index = 0;           ///< program number within the stream
    uint64_t seed = 0;       ///< derived seed (regenerates the program)
    hir::ExprPtr expr;       ///< the generated expression
    hir::ExprPtr shrunk;     ///< minimized reproducer (== expr if off)
    Divergence divergence;   ///< what fired, on the original program
    std::string repro_path;  ///< corpus file written, if any
};

/** Aggregate outcome of a run. */
struct FuzzReport {
    int count = 0;          ///< programs fuzzed
    int hvx_selected = 0;   ///< programs the HVX backend lowered
    int neon_selected = 0;  ///< programs the NEON backend lowered
    int crashes = 0;        ///< findings that were exceptions
    int hangs = 0;          ///< findings that were deadline expiries
    std::vector<Finding> findings; ///< ordered by program index

    int divergences() const { return static_cast<int>(findings.size()); }

    /**
     * Deterministic plain-text rendering (used by the CLI and by the
     * jobs=1-vs-N determinism test — byte-identical across job
     * counts by construction).
     */
    std::string summary() const;
};

/** Run the fuzzer. Never throws for per-program failures. */
FuzzReport run(const FuzzOptions &opts);

} // namespace rake::fuzz

#endif // RAKE_FUZZ_FUZZ_H
