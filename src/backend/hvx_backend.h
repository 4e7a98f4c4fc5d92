/**
 * @file
 * The HVX backend: HVX's repertoire for the shared TargetISA
 * implementation (backend/isa_backend.h).
 *
 * The sketch grammar, interpreter, and cost model are the originals
 * this repo grew with, and the HVX moves policy (vmem, vlo/vhi,
 * vshuffvdd/vdealvdd, vcombine, vror) drives the shared
 * synth::SwizzleSolver. Its greedy selector is the pattern-matching
 * baseline (baseline/halide_optimizer.h), which never declines.
 */
#ifndef RAKE_BACKEND_HVX_BACKEND_H
#define RAKE_BACKEND_HVX_BACKEND_H

#include <memory>

#include "backend/target_isa.h"
#include "hvx/cost.h"

namespace rake::backend {

/**
 * Fresh HVX backend for one lowering run. The backend keeps its own
 * copy of `target`.
 */
std::unique_ptr<TargetISA> make_hvx_backend(const hvx::Target &target);

} // namespace rake::backend

#endif // RAKE_BACKEND_HVX_BACKEND_H
