#include "pipeline/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "hir/analysis.h"
#include "hir/interp.h"
#include "hvx/interp.h"
#include "jit/jit.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace rake::pipeline {

Image
Image::synthetic(ScalarType elem, int w, int h, uint64_t seed)
{
    Image img(elem, w, h);
    Rng rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            // A smooth gradient plus deterministic texture noise.
            const int64_t smooth = (x * 5 + y * 3) % 200;
            const int64_t noise = rng.range(0, 55);
            img.at(x, y) = wrap(elem, smooth + noise);
        }
    }
    return img;
}

namespace {

/** Input images by buffer id, read in place. */
using ImageRefs = std::map<int, const Image *>;

ImageRefs
refs_of(const std::map<int, Image> &inputs)
{
    ImageRefs refs;
    for (const auto &[id, img] : inputs)
        refs.emplace(id, &img);
    return refs;
}

/** An Env whose buffers view the input images without copying them. */
Env
env_for(const ImageRefs &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    Env env;
    for (const auto &[id, img] : inputs)
        env.buffers.emplace(id, Buffer::view_of(img->elem, img->width,
                                                img->height,
                                                img->pixels.data()));
    for (const auto &[name, v] : scalars)
        env.scalars.emplace(name, v);
    return env;
}

/** Buffer id -> element type the code loads from it. */
using LoadElems = std::map<int, ScalarType>;

void
collect_load_elems(const hir::ExprPtr &e, LoadElems &out)
{
    if (!e)
        return;
    if (e->op() == hir::Op::Load)
        out.emplace(e->load_ref().buffer, e->type().elem);
    for (const hir::ExprPtr &a : e->args())
        collect_load_elems(a, out);
}

void
collect_load_elems(const hvx::InstrPtr &n, LoadElems &out,
                   std::set<const hvx::Instr *> &visited)
{
    if (!n || !visited.insert(n.get()).second)
        return;
    if (n->op() == hvx::Opcode::VRead)
        out.emplace(n->load_ref().buffer, n->type().elem);
    if (n->op() == hvx::Opcode::VSplat)
        collect_load_elems(n->splat_value(), out);
    for (const hvx::InstrPtr &a : n->args())
        collect_load_elems(a, out, visited);
}

LoadElems
load_elems_of(const hvx::InstrPtr &code)
{
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    return loads;
}

/**
 * Every input shares the primary's (x, y) grid, so a size mismatch
 * would silently edge-clamp a secondary input instead of failing, and
 * an element-type mismatch would surface as an InternalError from deep
 * inside the interpreter. Reject both up front, per input.
 */
void
validate_inputs(const ImageRefs &inputs, const LoadElems &loads)
{
    RAKE_USER_CHECK(!inputs.empty(), "no input images");
    const auto &[primary_id, primary] = *inputs.begin();
    for (const auto &[id, img] : inputs) {
        RAKE_USER_CHECK(
            img->width == primary->width && img->height == primary->height,
            "input " << id << " is " << img->width << "x" << img->height
                     << " but input " << primary_id << " is "
                     << primary->width << "x" << primary->height
                     << "; all inputs must share one size");
    }
    for (const auto &[buffer, elem] : loads) {
        auto it = inputs.find(buffer);
        RAKE_USER_CHECK(it != inputs.end(),
                        "the code loads from buffer "
                            << buffer
                            << " but no such input image was supplied");
        RAKE_USER_CHECK(it->second->elem == elem,
                        "input " << buffer << " holds "
                                 << to_string(it->second->elem)
                                 << " pixels but the code loads "
                                 << to_string(elem) << " from it");
    }
}

/**
 * The one whole-image pass: validate the inputs, split the rows into
 * bands of at least kMinBandTiles tiles, and let every usable CPU
 * claim bands one at a time (parallel_claims). Each worker makes its
 * own evaluator once and stores its tiles straight into the output
 * rows.
 */
Image
run_impl(VecType out_type, const LoadElems &loads, const ImageRefs &inputs,
         const std::map<std::string, int64_t> &scalars,
         const TileEvalFactory &make_eval)
{
    validate_inputs(inputs, loads);
    const Image &primary = *inputs.begin()->second;
    const int lanes = out_type.lanes;
    RAKE_USER_CHECK(primary.width % lanes == 0,
                    "image width " << primary.width
                                   << " must be a multiple of the "
                                      "vector lane count "
                                   << lanes);

    // Not zero-filled: the bands write every pixel.
    Image out;
    out.elem = out_type.elem;
    out.width = primary.width;
    out.height = primary.height;
    out.pixels.resize(static_cast<size_t>(out.width) * out.height);
    const Env env = env_for(inputs, scalars);
    const std::vector<RowBand> bands =
        row_bands(out.height, out.width / lanes, out.height);
    parallel_claims(
        static_cast<int>(bands.size()), usable_cpus(), [&] {
            return [&, eval = make_eval(env)](int b) {
                for (int y = bands[b].begin; y < bands[b].end; ++y) {
                    int64_t *row = &out.at(0, y);
                    for (int x = 0; x < out.width; x += lanes)
                        eval(x, y, row + x);
                }
            };
        });
    return out;
}

/**
 * Workers that evaluate `code` on an interpreter (hvx::Interpreter or
 * hir::Interpreter): each owns its interpreter and a copy of the view
 * Env. IR nodes hold no mutable state, so workers share the code.
 */
template <typename Interp, typename Code>
TileEvalFactory
interpreter_bands(Code code)
{
    return [code](const Env &env) -> TileEval {
        return [code, env = Env(env), interp = Interp()](
                   int x, int y, int64_t *dst) mutable {
            env.x = x;
            env.y = y;
            interp.reset(env);
            const Value &v = interp.eval(code);
            std::copy(v.lanes.begin(), v.lanes.end(), dst);
        };
    };
}

/**
 * Workers that run `program` natively, one jit::Runner each, whose
 * code stores each tile's lanes straight into the output row; the
 * program must outlive the pass.
 */
TileEvalFactory
jit_bands(const jit::Program &program)
{
    return [&program](const Env &env) -> TileEval {
        return [runner = jit::Runner(program, env)](
                   int x, int y, int64_t *dst) mutable {
            runner.run(x, y, dst);
        };
    };
}

/** Checks one stage's image against its inputs; may be empty. */
using StageCheck =
    std::function<void(int stage, const ImageRefs &, const Image &)>;

Image
run_stages(const PipelineDag &dag, const std::vector<StageCode> &stages,
           const std::map<int, Image> &inputs,
           const std::map<std::string, int64_t> &scalars,
           const StageCheck &check)
{
    RAKE_USER_CHECK(!dag.stages.empty(), "empty pipeline DAG");
    RAKE_USER_CHECK(stages.size() == dag.stages.size(),
                    "pipeline '" << dag.name << "' has "
                                 << dag.stages.size() << " stages but "
                                 << stages.size()
                                 << " stage programs were supplied");

    std::vector<Image> produced(dag.stages.size());
    std::vector<bool> have(dag.stages.size(), false);
    for (int idx : dag.topo) {
        const DagStage &stage = dag.stages[idx];
        const StageCode &code = stages[idx];
        RAKE_USER_CHECK(code.make_eval != nullptr,
                        "stage '" << stage.name << "' has no evaluator");

        ImageRefs stage_inputs;
        for (const StageInput &in : stage.inputs) {
            if (in.producer >= 0) {
                RAKE_CHECK(have[in.producer],
                           "stage executed before its producer");
                const Image &img = produced[in.producer];
                auto eit = code.load_elems.find(in.slot);
                if (eit != code.load_elems.end())
                    RAKE_USER_CHECK(
                        img.elem == eit->second,
                        "stage '" << stage.name << "' loads "
                                  << to_string(eit->second)
                                  << " from stage '"
                                  << dag.stages[in.producer].name
                                  << "' but it produced "
                                  << to_string(img.elem));
                stage_inputs.emplace(in.slot, &img);
            } else {
                auto iit = inputs.find(in.external);
                RAKE_USER_CHECK(iit != inputs.end(),
                                "pipeline input " << in.external
                                                  << " (stage '"
                                                  << stage.name
                                                  << "') was not "
                                                     "supplied");
                stage_inputs.emplace(in.slot, &iit->second);
            }
        }
        // validate_inputs inside run_impl enforces that this stage's
        // intermediate and external images all share one size, so a
        // dims mismatch at a boundary fails here, per stage.
        produced[idx] = run_impl(code.out_type, code.load_elems,
                                 stage_inputs, scalars, code.make_eval);
        if (check)
            check(idx, stage_inputs, produced[idx]);
        have[idx] = true;
    }
    return std::move(produced.back());
}

} // namespace

std::vector<RowBand>
row_bands(int height, int tiles_per_row, int max_bands)
{
    std::vector<RowBand> bands;
    if (height <= 0 || tiles_per_row <= 0)
        return bands;
    int n = std::clamp(max_bands, 1, height);
    while (n > 1 &&
           static_cast<int64_t>(height / n) * tiles_per_row < kMinBandTiles)
        --n;
    for (int i = 0; i < n; ++i) {
        RowBand band;
        band.begin = static_cast<int>(static_cast<int64_t>(height) * i / n);
        band.end =
            static_cast<int>(static_cast<int64_t>(height) * (i + 1) / n);
        bands.push_back(band);
    }
    return bands;
}

void
require_equal_tiles(const Image &jit, const Image &interp, VecType tile,
                    const std::string &where)
{
    RAKE_CHECK(jit.width == interp.width && jit.height == interp.height,
               "image sizes differ");
    const auto diff = std::mismatch(jit.pixels.begin(), jit.pixels.end(),
                                    interp.pixels.begin())
                          .first;
    if (diff == jit.pixels.end())
        return;
    const int64_t first = diff - jit.pixels.begin();
    const int y = static_cast<int>(first / jit.width);
    const int x = static_cast<int>(first % jit.width) / tile.lanes *
                  tile.lanes;
    const auto lanes_at = [&](const Image &img) {
        const int64_t *p =
            img.pixels.data() + static_cast<size_t>(y) * img.width + x;
        return Value(tile, std::vector<int64_t>(p, p + tile.lanes));
    };
    RAKE_USER_CHECK(false, where << "jit/interpreter divergence at (" << x
                                 << ", " << y << "): jit "
                                 << to_string(lanes_at(jit))
                                 << " vs interpreter "
                                 << to_string(lanes_at(interp)));
}

Image
run_tiles(const hvx::InstrPtr &code, const std::map<int, Image> &inputs,
          const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    return run_impl(code->type(), load_elems_of(code), refs_of(inputs),
                    scalars, interpreter_bands<hvx::Interpreter>(code));
}

Image
run_tiles_reference(const hir::ExprPtr &expr,
                    const std::map<int, Image> &inputs,
                    const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    LoadElems loads;
    collect_load_elems(expr, loads);
    return run_impl(expr->type(), loads, refs_of(inputs), scalars,
                    interpreter_bands<hir::Interpreter>(expr));
}

Image
run_tiles_jit(const hvx::InstrPtr &code,
              const std::map<int, Image> &inputs,
              const std::map<std::string, int64_t> &scalars,
              const JitRunOptions &opts)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    const std::unique_ptr<jit::Program> program =
        jit::Program::compile(code);
    const Image out = run_impl(code->type(), load_elems_of(code),
                               refs_of(inputs), scalars, jit_bands(*program));
    if (opts.validate)
        require_equal_tiles(out, run_tiles(code, inputs, scalars),
                            code->type());
    return out;
}

Image
run_tiles_jit_with(const jit::Program &program,
                   const std::map<int, Image> &inputs,
                   const std::map<std::string, int64_t> &scalars)
{
    return run_impl(program.out_type(), program.load_elems(),
                    refs_of(inputs), scalars, jit_bands(program));
}

Image
run_dag_with(const PipelineDag &dag, const std::vector<StageCode> &stages,
             const std::map<int, Image> &inputs,
             const std::map<std::string, int64_t> &scalars)
{
    return run_stages(dag, stages, inputs, scalars, nullptr);
}

namespace {

/** The per-stage code of `programs`, each stage run by `bands`. */
template <typename Bands>
std::vector<StageCode>
stage_codes(const PipelineDag &dag,
            const std::vector<hvx::InstrPtr> &programs, Bands &&bands)
{
    RAKE_USER_CHECK(programs.size() == dag.stages.size(),
                    "pipeline '" << dag.name << "' has "
                                 << dag.stages.size() << " stages but "
                                 << programs.size()
                                 << " programs were supplied");
    std::vector<StageCode> codes;
    for (size_t i = 0; i < programs.size(); ++i) {
        RAKE_USER_CHECK(programs[i] != nullptr,
                        "null program for stage '"
                            << dag.stages[i].name << "'");
        StageCode code;
        code.out_type = programs[i]->type();
        code.load_elems = load_elems_of(programs[i]);
        code.make_eval = bands(programs[i]);
        codes.push_back(std::move(code));
    }
    return codes;
}

} // namespace

Image
run_dag(const PipelineDag &dag,
        const std::vector<hvx::InstrPtr> &programs,
        const std::map<int, Image> &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    return run_dag_with(
        dag,
        stage_codes(dag, programs,
                    interpreter_bands<hvx::Interpreter, hvx::InstrPtr>),
        inputs, scalars);
}

Image
run_dag_jit(const PipelineDag &dag,
            const std::vector<hvx::InstrPtr> &programs,
            const std::map<int, Image> &inputs,
            const std::map<std::string, int64_t> &scalars,
            const JitRunOptions &opts)
{
    std::vector<std::unique_ptr<jit::Program>> compiled;
    const std::vector<StageCode> codes =
        stage_codes(dag, programs, [&](const hvx::InstrPtr &p) {
            compiled.push_back(jit::Program::compile(p));
            return jit_bands(*compiled.back());
        });
    StageCheck check;
    if (opts.validate)
        check = [&](int idx, const ImageRefs &stage_inputs,
                    const Image &got) {
            const StageCode &code = codes[idx];
            const Image want = run_impl(
                code.out_type, code.load_elems, stage_inputs, scalars,
                interpreter_bands<hvx::Interpreter>(programs[idx]));
            require_equal_tiles(got, want, code.out_type,
                                "stage '" + dag.stages[idx].name + "': ");
        };
    return run_stages(dag, codes, inputs, scalars, check);
}

Image
run_dag_reference(const PipelineDag &dag,
                  const std::map<int, Image> &inputs,
                  const std::map<std::string, int64_t> &scalars)
{
    std::vector<StageCode> codes;
    for (const DagStage &stage : dag.stages) {
        StageCode code;
        code.out_type = stage.expr->type();
        collect_load_elems(stage.expr, code.load_elems);
        code.make_eval = interpreter_bands<hir::Interpreter>(stage.expr);
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

std::map<int, Image>
synthetic_inputs_for(const hvx::InstrPtr &code, int w, int h,
                     uint64_t seed)
{
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : load_elems_of(code))
        inputs.emplace(id,
                       Image::synthetic(elem, w, h,
                                        seed +
                                            static_cast<uint64_t>(id)));
    return inputs;
}

int64_t
count_mismatches(const Image &a, const Image &b)
{
    RAKE_USER_CHECK(a.width == b.width && a.height == b.height,
                    "image sizes differ");
    int64_t n = 0;
    for (size_t i = 0; i < a.pixels.size(); ++i)
        n += a.pixels[i] != b.pixels[i];
    return n;
}

double
psnr(const Image &a, const Image &b)
{
    RAKE_USER_CHECK(a.width == b.width && a.height == b.height,
                    "image sizes differ");
    double mse = 0.0;
    for (size_t i = 0; i < a.pixels.size(); ++i) {
        const double d =
            static_cast<double>(a.pixels[i] - b.pixels[i]);
        mse += d * d;
    }
    mse /= static_cast<double>(a.pixels.size());
    if (mse == 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

} // namespace rake::pipeline
