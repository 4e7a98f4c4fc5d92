/**
 * @file
 * The ARM Neon port of the TargetISA interface.
 *
 * Where the original Neon port was a greedy one-template mapping,
 * this backend gives Neon the full synthesis treatment: a sketch
 * grammar with alternative templates per uber-instruction, a swizzle
 * moves policy for the shared synth::SwizzleSolver (vld1, vzip/vuzp,
 * vcombine and the free vget_low/high renames, plus the Neon-only
 * vext, vrev and vtbl rules), and a cycle-cost model — all driven by
 * the same memoized, backtracking, CEGIS-verified search as HVX.
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
