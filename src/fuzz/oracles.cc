#include "fuzz/oracles.h"

#include <sstream>
#include <vector>

#include "backend/neon_backend.h"
#include "baseline/halide_optimizer.h"
#include "hir/analysis.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hir/simplify.h"
#include "hvx/interp.h"
#include "jit/jit.h"
#include "neon/interp.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "support/deadline.h"
#include "support/error.h"
#include "synth/rake.h"
#include "synth/spec.h"

namespace rake::fuzz {

namespace {

/** First lane where two values differ, or -1 when equal. */
int
first_mismatch(const Value &a, const Value &b)
{
    if (a.type != b.type)
        return 0;
    for (int i = 0; i < a.type.lanes; ++i) {
        if (a.lanes[i] != b.lanes[i])
            return i;
    }
    return -1;
}

std::string
mismatch_detail(const std::string &what, int env_index, const Value &got,
                const Value &want)
{
    std::ostringstream os;
    const int lane = first_mismatch(got, want);
    os << what << " diverges on env " << env_index << " lane " << lane
       << ": got " << (lane >= 0 ? got.lanes[lane] : 0) << ", want "
       << (lane >= 0 ? want.lanes[lane] : 0);
    return os.str();
}

/** The documented injected bug: swap the operands of the first Sub. */
hir::ExprPtr
swap_first_sub(const hir::ExprPtr &e, bool *swapped)
{
    using hir::Expr;
    using hir::Op;
    if (*swapped || e->num_args() == 0)
        return e;
    if (e->op() == Op::Sub) {
        *swapped = true;
        return Expr::make(Op::Sub, {e->arg(1), e->arg(0)});
    }
    std::vector<hir::ExprPtr> args;
    args.reserve(e->args().size());
    bool changed = false;
    for (const hir::ExprPtr &a : e->args()) {
        hir::ExprPtr na = swap_first_sub(a, swapped);
        changed |= na != a;
        args.push_back(std::move(na));
    }
    if (!changed)
        return e;
    switch (e->op()) {
      case Op::Cast:
        return Expr::make_cast(e->type().elem, args[0]);
      case Op::Broadcast:
        return Expr::make_broadcast(args[0], e->type().lanes);
      default:
        return Expr::make(e->op(), std::move(args));
    }
}

} // namespace

CheckResult
check_expr(const hir::ExprPtr &e, const OracleOptions &opts)
{
    CheckResult res;
    auto fail = [&](std::string oracle, std::string detail,
                    bool crash = false, bool hang = false) {
        res.divergence = Divergence{std::move(oracle), std::move(detail),
                                    crash, hang};
        return res;
    };
    // The per-program guard: one deadline over the whole lattice. The
    // selection stages also observe it internally (and degrade), so a
    // hang anywhere surfaces as a finding, not a stuck worker.
    const Deadline guard = opts.timeout_ms > 0
                               ? Deadline::after_ms(opts.timeout_ms)
                               : Deadline();
    std::string stage = "sexpr";
    try {
        // Oracle 0: the round-trip every reproducer file depends on.
        hir::ExprPtr parsed = hir::parse_expr(hir::to_sexpr(e));
        if (!hir::equal(parsed, e))
            return fail("sexpr",
                        "print -> parse is not structurally identical");
        if (hir::to_sexpr(parsed) != hir::to_sexpr(e))
            return fail("sexpr", "print -> parse -> print not a fixpoint");

        // Drill: a planted spin, the hang analogue of the injected
        // sub-swap bug. Arms only under an active deadline so it can
        // never wedge a run (the CLI enforces --timeout-ms with it).
        if (opts.inject_spin && guard.active()) {
            stage = "spin";
            for (;;)
                guard.check("the planted spin drill");
        }

        // Shared example environments (the spec's corner + random
        // pool, the same distribution CEGIS verifies against).
        stage = "examples";
        synth::Spec spec = synth::Spec::from_expr(e);
        synth::ExamplePool pool(spec, opts.env_seed);
        // Copy the environments out: ExamplePool::at() grows an
        // internal vector, so references it returns do not survive
        // later at() calls.
        std::vector<Env> envs;
        envs.reserve(static_cast<size_t>(opts.envs));
        for (int i = 0; i < opts.envs; ++i)
            envs.push_back(pool.at(i));

        std::vector<Value> ref;
        ref.reserve(envs.size());
        for (const Env &env : envs)
            ref.push_back(hir::evaluate(e, env));

        // Oracle 1: simplifier output is a semantic no-op.
        stage = "simplify";
        hir::ExprPtr simplified = hir::simplify(e);
        if (opts.inject_sub_swap_bug) {
            bool swapped = false;
            simplified = swap_first_sub(simplified, &swapped);
        }
        for (size_t i = 0; i < envs.size(); ++i) {
            const Value got = hir::evaluate(simplified, envs[i]);
            if (got != ref[i])
                return fail("simplify",
                            mismatch_detail("simplify(e)",
                                            static_cast<int>(i), got,
                                            ref[i]));
        }

        // Oracle 2: HVX selection vs. the reference interpreter. The
        // guard rides into synthesis, which degrades on expiry rather
        // than throwing; a TimedOut status is the hang, reported with
        // the same deterministic detail on every job count.
        stage = "hvx";
        std::vector<Value> hvx_out;
        hvx::InstrPtr hvx_instr;
        if (opts.hvx) {
            synth::RakeOptions ropts;
            ropts.deadline = guard;
            if (auto r = synth::select_instructions(e, ropts)) {
                if (r->status == synth::SynthStatus::TimedOut)
                    return fail("hvx",
                                "synthesis deadline expired (greedy "
                                "degradation shipped)",
                                /*crash=*/false, /*hang=*/true);
                res.hvx_selected = true;
                hvx_instr = r->instr;
                for (size_t i = 0; i < envs.size(); ++i) {
                    Value got = hvx::evaluate(hvx_instr, envs[i]);
                    if (got != ref[i])
                        return fail("hvx",
                                    mismatch_detail("hvx(e)",
                                                    static_cast<int>(i),
                                                    got, ref[i]));
                    hvx_out.push_back(std::move(got));
                }
            }
        }

        // Oracle 2a (jit-vs-interp): the program oracle 2 just proved
        // correct on the HVX model, compiled to native x86-64 and run
        // per environment. With oracle 2 green this isolates the
        // native tier: any divergence here is an encoder or lowering
        // bug, not a selection bug.
        stage = "jit";
        if (opts.jit && res.hvx_selected && jit::available()) {
            guard.check("jit: native compile");
            const std::unique_ptr<jit::Program> prog =
                jit::Program::compile(hvx_instr);
            for (size_t i = 0; i < envs.size(); ++i) {
                prog->bind(envs[i]);
                const Value got = prog->run(envs[i].x, envs[i].y);
                if (got != hvx_out[i])
                    return fail("jit",
                                mismatch_detail("jit(e) vs hvx interp",
                                                static_cast<int>(i),
                                                got, hvx_out[i]));
            }
        }

        // Oracle 2b (rules-vs-CEGIS): re-select with the rule-first
        // stage enabled; the output must agree with the reference,
        // i.e. with the rule-free selection above. The in-memory
        // cache is off so oracle 2's result cannot answer for this
        // run — the rule path must be exercised for real.
        stage = "rules";
        if (opts.hvx && !opts.rules_file.empty()) {
            synth::RakeOptions ropts;
            ropts.deadline = guard;
            ropts.use_cache = false;
            ropts.rules_file = opts.rules_file;
            if (auto r = synth::select_instructions(e, ropts)) {
                if (r->status == synth::SynthStatus::TimedOut)
                    return fail("rules",
                                "synthesis deadline expired (greedy "
                                "degradation shipped)",
                                /*crash=*/false, /*hang=*/true);
                for (size_t i = 0; i < envs.size(); ++i) {
                    const Value got = hvx::evaluate(r->instr, envs[i]);
                    if (got != ref[i])
                        return fail("rules",
                                    mismatch_detail(
                                        "rules(e) vs CEGIS",
                                        static_cast<int>(i), got,
                                        ref[i]));
                }
            }
        }

        // Oracle 3: NEON selection through the TargetISA path.
        stage = "neon";
        std::vector<Value> neon_out;
        if (opts.neon) {
            synth::RakeOptions nopts;
            nopts.deadline = guard;
            const auto isa = backend::make_neon_backend(neon::Target{});
            if (auto n = synth::select_instructions_for(e, *isa, nopts)) {
                if (n->status == synth::SynthStatus::TimedOut)
                    return fail("neon",
                                "synthesis deadline expired (greedy "
                                "degradation shipped)",
                                /*crash=*/false, /*hang=*/true);
                res.neon_selected = true;
                const auto code =
                    std::static_pointer_cast<const neon::NInstr>(n->instr);
                for (size_t i = 0; i < envs.size(); ++i) {
                    Value got = neon::evaluate(code, envs[i]);
                    if (got != ref[i])
                        return fail("neon",
                                    mismatch_detail("neon(e)",
                                                    static_cast<int>(i),
                                                    got, ref[i]));
                    neon_out.push_back(std::move(got));
                }
            }
        }

        // Oracle 4: the two selections against each other. With both
        // already equal to the reference this can only fire if the
        // checks above are themselves broken — it guards the guard.
        stage = "hvx-vs-neon";
        if (res.hvx_selected && res.neon_selected) {
            for (size_t i = 0; i < envs.size(); ++i) {
                if (hvx_out[i] != neon_out[i])
                    return fail("hvx-vs-neon",
                                mismatch_detail("hvx(e) vs neon(e)",
                                                static_cast<int>(i),
                                                hvx_out[i],
                                                neon_out[i]));
            }
        }
    } catch (const TimeoutError &ex) {
        // Before std::exception: a guard expiry is a hang, not a
        // crash. The message carries only what was running (no elapsed
        // times), keeping reports byte-identical across --jobs.
        return fail(stage, ex.what(), /*crash=*/false, /*hang=*/true);
    } catch (const std::exception &ex) {
        return fail(stage, std::string("exception: ") + ex.what(),
                    /*crash=*/true);
    } catch (...) {
        return fail(stage, "unknown exception", /*crash=*/true);
    }
    return res;
}

namespace {

/** Element type `e` loads from `buffer`, if any load of it exists. */
std::optional<ScalarType>
load_elem(const hir::ExprPtr &e, int buffer)
{
    if (e->op() == hir::Op::Load && e->load_ref().buffer == buffer)
        return e->type().elem;
    for (const hir::ExprPtr &a : e->args())
        if (auto r = load_elem(a, buffer))
            return r;
    return std::nullopt;
}

} // namespace

CheckResult
check_stages(const std::vector<hir::ExprPtr> &stages,
             const OracleOptions &opts)
{
    CheckResult res;
    auto fail = [&](std::string oracle, std::string detail,
                    bool crash = false, bool hang = false) {
        res.divergence = Divergence{std::move(oracle), std::move(detail),
                                    crash, hang};
        return res;
    };
    const Deadline guard = opts.timeout_ms > 0
                               ? Deadline::after_ms(opts.timeout_ms)
                               : Deadline();
    try {
        RAKE_CHECK(!stages.empty(), "check_stages needs >= 1 stage");

        // Wire the staged program into a Benchmark: stage i reads
        // stage i-1 through the generator's reserved buffer 8+(i-1).
        auto stage_name = [](size_t i) {
            return std::string("s").append(std::to_string(i));
        };
        pipeline::Benchmark bench;
        bench.name = "fuzz-pipeline";
        for (size_t i = 0; i < stages.size(); ++i) {
            pipeline::KernelExpr k;
            k.name = stage_name(i);
            k.expr = stages[i];
            k.iterations = 1;
            if (i > 0)
                k.deps.emplace(8 + static_cast<int>(i) - 1,
                               stage_name(i - 1));
            bench.exprs.push_back(std::move(k));
        }
        const pipeline::PipelineDag dag = pipeline::from_benchmark(bench);

        // Baseline-select each stage (total, deterministic, and cheap;
        // per-expression selection correctness is check_expr's job —
        // this oracle stresses the staged executor itself).
        guard.check("dag: baseline selection");
        hvx::Target target;
        std::vector<hvx::InstrPtr> programs;
        programs.reserve(dag.stages.size());
        for (const pipeline::DagStage &s : dag.stages)
            programs.push_back(
                baseline::select_instructions(s.expr, target));
        res.hvx_selected = true;

        // External inputs follow the generator's buffer convention
        // (0 = u8, 1 = u16), but bind whatever the slot-space loads
        // actually say so hand-written stage sets work too.
        const int lanes = stages.front()->type().lanes;
        std::map<int, pipeline::Image> inputs;
        for (const pipeline::DagStage &s : dag.stages)
            for (const pipeline::StageInput &in : s.inputs) {
                if (in.external < 0 || inputs.count(in.external))
                    continue;
                const auto elem = load_elem(s.expr, in.slot);
                RAKE_CHECK(elem.has_value(),
                           "stage " << s.name << " never loads slot "
                                    << in.slot);
                inputs.emplace(in.external,
                               pipeline::Image::synthetic(
                                   *elem, lanes * 2, 4,
                                   opts.env_seed +
                                       static_cast<uint64_t>(
                                           in.external)));
            }
        std::map<std::string, int64_t> scalars;
        for (const hir::ExprPtr &e : stages)
            for (const std::string &v : hir::collect_vars(e))
                scalars.emplace(v, 7);

        guard.check("dag: staged execution");
        const pipeline::Image expected =
            pipeline::run_dag_reference(dag, inputs, scalars);
        const pipeline::Image actual =
            pipeline::run_dag(dag, programs, inputs, scalars);
        const int64_t bad = pipeline::count_mismatches(expected, actual);
        if (bad > 0) {
            std::ostringstream os;
            os << "staged executor vs composed HIR reference: " << bad
               << " mismatching pixel(s) over " << stages.size()
               << " stages";
            return fail("dag", os.str());
        }

        // Staged jit: the same DAG through native per-stage programs.
        // Validation is off so a mismatch surfaces here as a finding
        // with a pixel count, not as an exception from the harness.
        if (opts.jit && jit::available()) {
            guard.check("dag: jit execution");
            pipeline::JitRunOptions jopts;
            jopts.validate = false;
            const pipeline::Image native = pipeline::run_dag_jit(
                dag, programs, inputs, scalars, jopts);
            const int64_t jbad =
                pipeline::count_mismatches(expected, native);
            if (jbad > 0) {
                std::ostringstream os;
                os << "staged jit vs composed HIR reference: " << jbad
                   << " mismatching pixel(s) over " << stages.size()
                   << " stages";
                return fail("dag-jit", os.str());
            }
        }
    } catch (const TimeoutError &ex) {
        return fail("dag", ex.what(), /*crash=*/false, /*hang=*/true);
    } catch (const std::exception &ex) {
        return fail("dag", std::string("exception: ") + ex.what(),
                    /*crash=*/true);
    } catch (...) {
        return fail("dag", "unknown exception", /*crash=*/true);
    }
    return res;
}

} // namespace rake::fuzz
