/**
 * @file
 * The ARM Neon backend: Neon's repertoire for the shared TargetISA
 * implementation (backend/isa_backend.h). A sketch grammar with
 * alternative templates per uber-instruction, a swizzle moves policy
 * for the shared synth::SwizzleSolver (vld1, vzip/vuzp, vcombine and
 * the free vget_low/high renames, plus the Neon-only vext, vrev and
 * vtbl rules) and a cycle-cost model, driven by the same memoized,
 * backtracking, CEGIS-verified search as HVX. Its greedy selector
 * (`--greedy`, and a timed-out query's degradation) maps each
 * uber-instruction by the first of the grammar's templates that
 * applies, without search, and may decline.
 *
 * Neon compute instructions never reorder lanes, so the layout
 * parameterization of §5.1 degenerates: only Layout::Linear exists
 * for this target and the grammar emits no candidates for any other
 * layout, whatever LowerOptions::layouts says.
 */
#ifndef RAKE_BACKEND_NEON_BACKEND_H
#define RAKE_BACKEND_NEON_BACKEND_H

#include <memory>

#include "backend/target_isa.h"
#include "neon/cost.h"

namespace rake::backend {

/**
 * Fresh Neon backend for one lowering run. The backend keeps its own
 * copy of `target`.
 */
std::unique_ptr<TargetISA> make_neon_backend(const neon::Target &target);

} // namespace rake::backend

#endif // RAKE_BACKEND_NEON_BACKEND_H
