/**
 * @file
 * Tile executor: runs generated HVX code (or the HIR reference) over
 * whole 2-D images, tile by tile, the way the Halide schedule in the
 * paper's Fig. 2 does (vectorized x, looped y), with the y loop split
 * into row bands that every usable CPU claims one at a time. Input
 * images are read in place, never copied.
 *
 * This is what makes the generated code *runnable* end to end: given
 * input images, it produces the output image a real deployment would,
 * and the included PSNR/equality helpers let examples and tests
 * confirm that both selectors compute the same picture.
 */
#ifndef RAKE_PIPELINE_EXECUTOR_H
#define RAKE_PIPELINE_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/value.h"
#include "hir/expr.h"
#include "hvx/instr.h"
#include "pipeline/dag.h"

namespace rake::jit {
class Program;
}

namespace rake::pipeline {

/**
 * A whole 2-D image with typed pixels. The (elem, w, h) constructor
 * zero-fills them; a whole-image pass sizes its output with
 * pixels.resize instead and writes every pixel.
 */
struct Image {
    ScalarType elem = ScalarType::UInt8;
    int width = 0;
    int height = 0;
    Cells pixels;

    Image() = default;
    Image(ScalarType e, int w, int h)
        : elem(e), width(w), height(h),
          pixels(static_cast<size_t>(w) * h, 0)
    {
    }

    int64_t &
    at(int x, int y)
    {
        return pixels[static_cast<size_t>(y) * width + x];
    }
    int64_t
    at(int x, int y) const
    {
        return pixels[static_cast<size_t>(y) * width + x];
    }

    /** Deterministic synthetic test image (smooth + texture). */
    static Image synthetic(ScalarType elem, int w, int h,
                           uint64_t seed = 1);
};

/**
 * Execute a compiled vector expression over an image set.
 *
 * The expression's loads refer to buffer ids; `inputs[id]` supplies
 * the image for each id, read in place. The expression is evaluated
 * at every (x, y) with x stepping by the vector lane count, writing
 * its lanes to the output image (which is sized like inputs[0]).
 * Borders are edge-clamped, as Halide's boundary condition would.
 * Every whole-image pass splits its rows into contiguous bands (see
 * row_bands) that the calling thread and one helper per other usable
 * CPU claim one at a time (parallel_claims, support/thread_pool.h),
 * each of these workers with its own evaluator.
 */
Image run_tiles(const hvx::InstrPtr &code,
                const std::map<int, Image> &inputs,
                const std::map<std::string, int64_t> &scalars = {});

/** Same, interpreting the HIR reference expression directly. */
Image run_tiles_reference(const hir::ExprPtr &expr,
                          const std::map<int, Image> &inputs,
                          const std::map<std::string, int64_t> &scalars
                          = {});

/** Options for the native (jit) execution paths. */
struct JitRunOptions {
    /**
     * Compare the native image with the HVX interpreter's image over
     * the same inputs (per stage for a DAG) and throw UserError naming
     * the first divergent tile. On by default — this is the
     * correctness harness; timing paths turn it off.
     */
    bool validate = true;
};

/**
 * Execute a compiled vector expression natively: the program is
 * jit-compiled to host x86-64 once, then run per tile. Semantics are
 * identical to run_tiles (bit-for-bit; checked against run_tiles'
 * image when opts.validate). Throws UserError on non-x86-64 hosts —
 * gate with jit::available().
 */
Image run_tiles_jit(const hvx::InstrPtr &code,
                    const std::map<int, Image> &inputs,
                    const std::map<std::string, int64_t> &scalars = {},
                    const JitRunOptions &opts = {});

/**
 * Same, over an already-compiled program (no validation): the timing
 * paths use this to keep one-time jit compilation out of the
 * steady-state measurement.
 */
Image run_tiles_jit_with(const jit::Program &program,
                         const std::map<int, Image> &inputs,
                         const std::map<std::string, int64_t> &scalars
                         = {});

/**
 * One worker's tile evaluator: stores the lanes of the tile whose
 * first pixel is (x, y) to dst, which points into the output image's
 * row.
 */
using TileEval = std::function<void(int x, int y, int64_t *dst)>;

/**
 * Makes one worker's TileEval. Called once per worker of a pass, from
 * the worker's own thread, with the pass's view Env (the worker copies
 * what it keeps); it must not mutate state shared between workers.
 */
using TileEvalFactory = std::function<TileEval(const Env &env)>;

/**
 * Executable code for one DAG stage, backend-agnostic: the staged
 * executor only needs the stage's output type, which element type it
 * loads from each slot, and a factory for per-worker tile evaluators.
 * Both interpreters, the jit and the NEON backend's type-erased
 * evaluator fit this shape.
 */
struct StageCode {
    VecType out_type;
    std::map<int, ScalarType> load_elems; ///< slot -> element type read
    TileEvalFactory make_eval;
};

/** Rows [begin, end) of one band of a whole-image pass. */
struct RowBand {
    int begin = 0;
    int end = 0;
};

/**
 * Fewest tiles a band holds. One 128-lane jit tile takes about 2.5 us,
 * so a band runs for at least about 160 us: long enough that waking
 * the helpers and claiming bands cost little beside it, short enough
 * that the last band a worker claims ends soon after the others.
 */
constexpr int kMinBandTiles = 64;

/**
 * Split `height` rows of `tiles_per_row` tiles into at most
 * `max_bands` contiguous, disjoint bands covering every row in order.
 * Each band holds at least kMinBandTiles tiles unless there is only
 * one; a pass too small for two bands gets one, and runs on the
 * calling thread. Empty when there are no tiles. The executor asks
 * for as many bands as the minimum allows.
 */
std::vector<RowBand> row_bands(int height, int tiles_per_row,
                               int max_bands);

/**
 * Throws UserError unless `jit` equals `interp`, naming the first
 * divergent tile in row-major order (tiles are `tile.lanes` pixels
 * wide) and both of its lane vectors; `where` prefixes the message.
 */
void require_equal_tiles(const Image &jit, const Image &interp,
                         VecType tile, const std::string &where = "");

/**
 * Execute a staged program over an image set, materializing each
 * intermediate buffer. Stages run in the DAG's topological order;
 * each stage's slots are bound per its StageInput table (externals
 * from `inputs`, intermediates from the producing stage's output,
 * both read in place), and every stage boundary is validated — the
 * produced image's element type must match what the consumer loads,
 * and all of a stage's inputs must share one size — throwing UserError
 * otherwise. Returns the last declared stage's image (the pipeline
 * output, by the same convention as the flat path's final expression).
 */
Image run_dag_with(const PipelineDag &dag,
                   const std::vector<StageCode> &stages,
                   const std::map<int, Image> &inputs,
                   const std::map<std::string, int64_t> &scalars = {});

/** Staged execution of per-stage HVX programs (slot space). */
Image run_dag(const PipelineDag &dag,
              const std::vector<hvx::InstrPtr> &programs,
              const std::map<int, Image> &inputs,
              const std::map<std::string, int64_t> &scalars = {});

/**
 * Staged execution of jit-compiled per-stage programs. Each stage is
 * lowered to native code once and run per tile; stage boundaries are
 * validated by run_dag_with as usual, and when opts.validate each
 * stage's image is compared with the HVX interpreter's image over the
 * same stage inputs.
 */
Image run_dag_jit(const PipelineDag &dag,
                  const std::vector<hvx::InstrPtr> &programs,
                  const std::map<int, Image> &inputs,
                  const std::map<std::string, int64_t> &scalars = {},
                  const JitRunOptions &opts = {});

/** Staged execution composing the stages' HIR reference interpreters. */
Image run_dag_reference(const PipelineDag &dag,
                        const std::map<int, Image> &inputs,
                        const std::map<std::string, int64_t> &scalars
                        = {});

/**
 * Deterministic synthetic input images for every buffer `code` loads:
 * one w x h image per buffer id, of the element type the program
 * reads from it. The drivers' `--execute` phase uses this to run
 * selected code over whole images without external data.
 */
std::map<int, Image> synthetic_inputs_for(const hvx::InstrPtr &code,
                                          int w, int h,
                                          uint64_t seed = 1);

/** Count of pixels where the two images differ. */
int64_t count_mismatches(const Image &a, const Image &b);

/** Peak signal-to-noise ratio between two u8 images (dB; inf if equal). */
double psnr(const Image &a, const Image &b);

} // namespace rake::pipeline

#endif // RAKE_PIPELINE_EXECUTOR_H
