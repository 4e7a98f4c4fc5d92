/**
 * @file
 * Synthesis specifications and example-input generation.
 *
 * A Spec wraps the HIR expression being compiled plus everything the
 * synthesizer needs to reason about it: its live data (the set of
 * loads), its scalar parameters, and a pool of example environments
 * used for counter-example-guided search (paper §2.2.1).
 */
#ifndef RAKE_SYNTH_SPEC_H
#define RAKE_SYNTH_SPEC_H

#include <set>
#include <string>
#include <vector>

#include "base/value.h"
#include "hir/analysis.h"
#include "hir/expr.h"
#include "support/rng.h"

namespace rake::synth {

/** The synthesis specification for one vector expression. */
struct Spec {
    hir::ExprPtr expr;                 ///< the reference expression
    std::set<hir::LoadRef> loads;      ///< live data
    std::set<std::string> vars;        ///< scalar parameters
    std::map<int, ScalarType> buffer_elem; ///< element type per buffer
    std::map<std::string, ScalarType> var_elem; ///< type per scalar

    /** Build a spec from an expression (collects loads and vars). */
    static Spec from_expr(const hir::ExprPtr &e);
};

/**
 * Input-buffer geometry derived from a spec's load set.
 *
 * The buffer covers the reference expression's footprint plus a
 * margin on each side: synthesized candidates may legitimately read a
 * few elements beyond the reference loads (e.g. the second vector of
 * a sliding-window pair), and those reads must see real data — not
 * the edge-clamp — for equivalence checking to be trustworthy.
 */
struct BufferGeometry {
    ScalarType elem = ScalarType::UInt8;
    int min_dx = 0, max_dx = 0;
    int min_dy = 0, max_dy = 0;
    int lanes = 1;  ///< widest load lane count on this buffer
    int margin = 0; ///< extra columns on each side

    int x0() const { return min_dx - margin; }
    int y0() const { return min_dy; }
    int width() const { return max_dx - min_dx + lanes + 2 * margin; }
    int height() const { return max_dy - min_dy + 1; }
};

/** Geometry per buffer id referenced by the spec. */
std::map<int, BufferGeometry> buffer_geometry(const Spec &spec);

/**
 * Generates example environments covering the spec's live data.
 *
 * Buffers are sized to cover every load at every lane without
 * invoking the boundary condition, so equivalence over the examples
 * matches equivalence over the abstract cells. The first few
 * environments are deterministic corner patterns (zeros, maxima,
 * minima, ramps, alternation); the rest are seeded-random.
 */
class ExamplePool
{
  public:
    /**
     * Environments at indices below this are deterministic corner
     * patterns (zeros/small, maxima, minima, alternation, ramp);
     * every later index is seeded-random.
     */
    static constexpr int kCornerExamples = 5;

    ExamplePool(const Spec &spec, uint64_t seed = 1);

    /** The example at index i, generating more if needed. */
    const Env &at(int i);

    /** Number of examples generated so far. */
    int size() const { return static_cast<int>(envs_.size()); }

    /** Append an externally found counter-example. */
    void add(Env env) { envs_.push_back(std::move(env)); }

    /** Drop the most recent example (used to discard fresh trials). */
    void
    pop()
    {
        RAKE_CHECK(!envs_.empty(), "pop on empty example pool");
        envs_.pop_back();
    }

    /**
     * Generate the next randomized trial environment into a scratch
     * slot owned by the pool, without growing it. Draws from the same
     * rng stream as at(size()), so a next_trial()/adopt_trial()
     * sequence is bit-identical to the old at()/pop() dance but never
     * copies or reallocates buffers. The reference is valid until the
     * next next_trial() or adopt_trial() call.
     */
    const Env &next_trial();

    /**
     * Promote the scratch trial from next_trial() into the pool (it
     * turned out to be a counter-example). Moves, never copies.
     */
    void adopt_trial();

  private:
    const Spec &spec_;
    Rng rng_;
    std::vector<Env> envs_;
    std::map<int, BufferGeometry> geometry_;
    Env scratch_;
    bool scratch_valid_ = false;
};

/**
 * Build one environment for a geometry with the given fill pattern;
 * `vars` gives each scalar parameter's type.
 */
Env make_example_env(const std::map<int, BufferGeometry> &geometry,
                     const std::map<std::string, ScalarType> &vars,
                     int pattern, Rng &rng);

} // namespace rake::synth

#endif // RAKE_SYNTH_SPEC_H
