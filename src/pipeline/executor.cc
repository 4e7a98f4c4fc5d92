#include "pipeline/executor.h"

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

/**
 * Build an Env whose buffers are copies of the whole input images,
 * made afresh on every call. Letting a Buffer view an image without
 * the copy is part of JIT v2 (ROADMAP.md).
 */
Env
env_for(const std::map<int, Image> &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    Env env;
    for (const auto &[id, img] : inputs) {
        Buffer buf(img.elem, img.width, img.height, 0, 0);
        buf.data = img.pixels;
        env.buffers.emplace(id, std::move(buf));
    }
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

/**
 * Every input shares the primary's (x, y) grid, so a size mismatch
 * would silently edge-clamp a secondary input instead of failing, and
 * an element-type mismatch would surface as an InternalError from deep
 * inside the interpreter. Reject both up front, per input.
 */
void
validate_inputs(const std::map<int, Image> &inputs,
                const LoadElems &loads)
{
    RAKE_USER_CHECK(!inputs.empty(), "no input images");
    const auto &[primary_id, primary] = *inputs.begin();
    for (const auto &[id, img] : inputs) {
        RAKE_USER_CHECK(
            img.width == primary.width && img.height == primary.height,
            "input " << id << " is " << img.width << "x" << img.height
                     << " but input " << primary_id << " is "
                     << primary.width << "x" << primary.height
                     << "; all inputs must share one size");
    }
    for (const auto &[buffer, elem] : loads) {
        auto it = inputs.find(buffer);
        RAKE_USER_CHECK(it != inputs.end(),
                        "the code loads from buffer "
                            << buffer
                            << " but no such input image was supplied");
        RAKE_USER_CHECK(it->second.elem == elem,
                        "input " << buffer << " holds "
                                 << to_string(it->second.elem)
                                 << " pixels but the code loads "
                                 << to_string(elem) << " from it");
    }
}

template <typename EvalFn>
Image
run_impl(VecType out_type, const LoadElems &loads,
         const std::map<int, Image> &inputs,
         const std::map<std::string, int64_t> &scalars, EvalFn &&eval)
{
    validate_inputs(inputs, loads);
    const Image &primary = inputs.begin()->second;
    RAKE_USER_CHECK(primary.width % out_type.lanes == 0,
                    "image width " << primary.width
                                   << " must be a multiple of the "
                                      "vector lane count "
                                   << out_type.lanes);

    Image out(out_type.elem, primary.width, primary.height);
    Env env = env_for(inputs, scalars);
    for (int y = 0; y < primary.height; ++y) {
        for (int x = 0; x < primary.width; x += out_type.lanes) {
            env.x = x;
            env.y = y;
            const Value &v = eval(env);
            for (int i = 0; i < out_type.lanes; ++i)
                out.at(x + i, y) = v[i];
        }
    }
    return out;
}

} // namespace

Image
run_tiles(const hvx::InstrPtr &code, const std::map<int, Image> &inputs,
          const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    // One interpreter context for the whole image: tile evaluation
    // reuses its value slots instead of reallocating per tile.
    hvx::Interpreter interp;
    return run_impl(code->type(), loads, inputs, scalars,
                    [&](const Env &env) -> const Value & {
                        interp.reset(env);
                        return interp.eval(code);
                    });
}

Image
run_tiles_reference(const hir::ExprPtr &expr,
                    const std::map<int, Image> &inputs,
                    const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    LoadElems loads;
    collect_load_elems(expr, loads);
    hir::Interpreter interp;
    return run_impl(expr->type(), loads, inputs, scalars,
                    [&](const Env &env) -> const Value & {
                        interp.reset(env);
                        return interp.eval(expr);
                    });
}

Image
run_tiles_jit(const hvx::InstrPtr &code,
              const std::map<int, Image> &inputs,
              const std::map<std::string, int64_t> &scalars,
              const JitRunOptions &opts)
{
    RAKE_USER_CHECK(code != nullptr, "null code");
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    std::unique_ptr<jit::Program> program = jit::Program::compile(code);
    hvx::Interpreter check;
    bool bound = false;
    return run_impl(
        code->type(), loads, inputs, scalars,
        [&](const Env &env) -> const Value & {
            // run_impl walks one Env across the whole image, so this
            // binds exactly once, on the first tile.
            if (!bound) {
                program->bind(env);
                bound = true;
            }
            const Value &v = program->run(env.x, env.y);
            if (opts.validate) {
                check.reset(env);
                const Value &ref = check.eval(code);
                RAKE_USER_CHECK(v == ref,
                                "jit/interpreter divergence at ("
                                    << env.x << ", " << env.y
                                    << "): jit " << to_string(v)
                                    << " vs interpreter "
                                    << to_string(ref));
            }
            return v;
        });
}

Image
run_tiles_jit_with(jit::Program &program,
                   const std::map<int, Image> &inputs,
                   const std::map<std::string, int64_t> &scalars)
{
    // Always rebind on the first tile of each pass, even when the
    // program was bound by an earlier call: the previous pass's Env
    // was a stack local whose buffers are gone, and a fresh Env can
    // reuse its address — a pointer-identity "still bound?" test here
    // once skipped the rebind and ran over freed descriptors.
    bool bound = false;
    return run_impl(program.out_type(), program.load_elems(), inputs,
                    scalars, [&](const Env &env) -> const Value & {
                        if (!bound) {
                            program.bind(env);
                            bound = true;
                        }
                        return program.run(env.x, env.y);
                    });
}

Image
run_dag_with(const PipelineDag &dag, const std::vector<StageCode> &stages,
             const std::map<int, Image> &inputs,
             const std::map<std::string, int64_t> &scalars)
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
        RAKE_USER_CHECK(code.eval != nullptr,
                        "stage '" << stage.name << "' has no evaluator");

        std::map<int, Image> stage_inputs;
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
                stage_inputs.emplace(in.slot, img);
            } else {
                auto iit = inputs.find(in.external);
                RAKE_USER_CHECK(iit != inputs.end(),
                                "pipeline input " << in.external
                                                  << " (stage '"
                                                  << stage.name
                                                  << "') was not "
                                                     "supplied");
                stage_inputs.emplace(in.slot, iit->second);
            }
        }
        // validate_inputs inside run_impl enforces that this stage's
        // intermediate and external images all share one size, so a
        // dims mismatch at a boundary fails here, per stage.
        produced[idx] = run_impl(code.out_type, code.load_elems,
                                 stage_inputs, scalars, code.eval);
        have[idx] = true;
    }
    return produced.back();
}

Image
run_dag(const PipelineDag &dag,
        const std::vector<hvx::InstrPtr> &programs,
        const std::map<int, Image> &inputs,
        const std::map<std::string, int64_t> &scalars)
{
    RAKE_USER_CHECK(programs.size() == dag.stages.size(),
                    "pipeline '" << dag.name << "' has "
                                 << dag.stages.size() << " stages but "
                                 << programs.size()
                                 << " programs were supplied");
    // One interpreter context per stage, alive for the whole run.
    std::vector<std::unique_ptr<hvx::Interpreter>> interps;
    std::vector<StageCode> codes;
    for (size_t i = 0; i < programs.size(); ++i) {
        RAKE_USER_CHECK(programs[i] != nullptr,
                        "null program for stage '"
                            << dag.stages[i].name << "'");
        StageCode code;
        code.out_type = programs[i]->type();
        std::set<const hvx::Instr *> visited;
        collect_load_elems(programs[i], code.load_elems, visited);
        interps.push_back(std::make_unique<hvx::Interpreter>());
        hvx::Interpreter *interp = interps.back().get();
        code.eval = [interp, prog = programs[i]](const Env &env) {
            interp->reset(env);
            return interp->eval(prog);
        };
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

Image
run_dag_jit(const PipelineDag &dag,
            const std::vector<hvx::InstrPtr> &programs,
            const std::map<int, Image> &inputs,
            const std::map<std::string, int64_t> &scalars,
            const JitRunOptions &opts)
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
        std::set<const hvx::Instr *> visited;
        collect_load_elems(programs[i], code.load_elems, visited);
        // shared_ptr: StageCode::eval must be copyable. Each stage's
        // program binds on the first tile of its pass; copies of the
        // lambda share the flag (and the program) via shared_ptr.
        std::shared_ptr<jit::Program> compiled =
            jit::Program::compile(programs[i]);
        auto check = std::make_shared<hvx::Interpreter>();
        auto bound = std::make_shared<bool>(false);
        code.eval = [compiled, check, bound, prog = programs[i],
                     name = dag.stages[i].name,
                     validate = opts.validate](const Env &env) -> Value {
            if (!*bound) {
                compiled->bind(env);
                *bound = true;
            }
            const Value &v = compiled->run(env.x, env.y);
            if (validate) {
                check->reset(env);
                const Value &ref = check->eval(prog);
                RAKE_USER_CHECK(v == ref,
                                "stage '"
                                    << name
                                    << "': jit/interpreter divergence "
                                       "at ("
                                    << env.x << ", " << env.y
                                    << "): jit " << to_string(v)
                                    << " vs interpreter "
                                    << to_string(ref));
            }
            return v;
        };
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

Image
run_dag_reference(const PipelineDag &dag,
                  const std::map<int, Image> &inputs,
                  const std::map<std::string, int64_t> &scalars)
{
    std::vector<std::unique_ptr<hir::Interpreter>> interps;
    std::vector<StageCode> codes;
    for (const DagStage &stage : dag.stages) {
        StageCode code;
        code.out_type = stage.expr->type();
        collect_load_elems(stage.expr, code.load_elems);
        interps.push_back(std::make_unique<hir::Interpreter>());
        hir::Interpreter *interp = interps.back().get();
        code.eval = [interp, expr = stage.expr](const Env &env) {
            interp->reset(env);
            return interp->eval(expr);
        };
        codes.push_back(std::move(code));
    }
    return run_dag_with(dag, codes, inputs, scalars);
}

std::map<int, Image>
synthetic_inputs_for(const hvx::InstrPtr &code, int w, int h,
                     uint64_t seed)
{
    LoadElems loads;
    std::set<const hvx::Instr *> visited;
    collect_load_elems(code, loads, visited);
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : loads)
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
