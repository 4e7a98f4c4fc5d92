/**
 * @file
 * Tests for whole-pipeline selection: the PipelineDag lowering
 * (slot-space rewrite, hash-consing, topo order, graph validation),
 * cross-stage layout negotiation, the staged executor on both
 * backends, and the one-node-DAG bit-identity guarantee for flat
 * benchmarks.
 */
#include <gtest/gtest.h>

#include "hir/analysis.h"
#include "hir/builder.h"
#include "hir/hashcons.h"
#include "hir/interp.h"
#include "hvx/instr.h"
#include "neon/interp.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "synth/rake.h"
#include "synth/swizzle.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::pipeline;

/** A stage expression: clamp-free u8 arithmetic over buffer `buf`. */
hir::ExprPtr
stage_expr(int buf, int lanes = 64, int dx = 0)
{
    using namespace rake::hir;
    HExpr in = load(buf, ScalarType::UInt8, lanes, dx);
    return (max(in, 3) >> 1).ptr();
}

/** Element type `e` loads from `buffer` (tests bind inputs with it). */
ScalarType
load_elem_of(const hir::ExprPtr &e, int buffer)
{
    if (e->op() == hir::Op::Load && e->load_ref().buffer == buffer)
        return e->type().elem;
    for (const hir::ExprPtr &a : e->args()) {
        for (const hir::LoadRef &l : hir::collect_loads(a))
            if (l.buffer == buffer)
                return load_elem_of(a, buffer);
    }
    ADD_FAILURE() << "no load of buffer " << buffer;
    return ScalarType::UInt8;
}

/** Synthetic inputs + scalars covering every external of `dag`. */
std::map<int, Image>
inputs_for(const PipelineDag &dag, std::map<std::string, int64_t> *scalars)
{
    int lanes = 1;
    for (const DagStage &s : dag.stages) {
        lanes = std::max(lanes, s.expr->type().lanes);
        for (const std::string &v : hir::collect_vars(s.expr))
            scalars->emplace(v, 5);
    }
    std::map<int, Image> inputs;
    uint64_t seed = 7;
    for (const DagStage &s : dag.stages)
        for (const StageInput &in : s.inputs) {
            if (in.external < 0 || inputs.count(in.external))
                continue;
            inputs.emplace(in.external,
                           Image::synthetic(load_elem_of(s.expr, in.slot),
                                            lanes, 4, seed++));
        }
    return inputs;
}

TEST(HashCons, InternCollapsesStructurallyEqualTrees)
{
    using namespace rake::hir;
    HashCons table;
    ExprPtr a = stage_expr(0);
    ExprPtr b = stage_expr(0); // structurally equal, distinct nodes
    ASSERT_NE(a, b);
    ExprPtr ca = table.intern(a);
    ExprPtr cb = table.intern(b);
    EXPECT_EQ(ca, cb); // one canonical subtree
    EXPECT_GT(table.hits(), 0);
    // Re-interning a canonical tree is a stable no-op.
    EXPECT_EQ(table.intern(ca), ca);
    // Different structure stays distinct.
    EXPECT_NE(table.intern(stage_expr(0, 64, 1)), ca);
}

TEST(PipelineDag, TopoOrderIsDeterministicAndRespectsEdges)
{
    // Declared deliberately out of dependency order: c <- b <- a.
    Benchmark bench;
    bench.name = "topo";
    bench.exprs = {
        {"c", stage_expr(9), 128, {{9, "b"}}},
        {"a", stage_expr(0), 128, {}},
        {"b", stage_expr(8), 128, {{8, "a"}}},
    };
    const PipelineDag d1 = from_benchmark(bench);
    const PipelineDag d2 = from_benchmark(bench);
    ASSERT_EQ(d1.topo.size(), 3u);
    EXPECT_EQ(d1.topo, (std::vector<int>{1, 2, 0}));
    EXPECT_EQ(d1.topo, d2.topo);
    EXPECT_EQ(d1.edge_count(), 2);
    // The edge wiring survives the slot-space rewrite.
    EXPECT_EQ(d1.stages[0].edge_inputs(), 1);
    EXPECT_EQ(d1.stages[1].edge_inputs(), 0);
    EXPECT_EQ(d1.stages[0].inputs.size(), 1u);
    EXPECT_EQ(d1.stages[0].inputs[0].producer, 2);
    EXPECT_EQ(d1.stages[0].inputs[0].external, -1);
}

TEST(PipelineDag, RejectsMalformedGraphs)
{
    const auto dag_of = [](std::vector<KernelExpr> exprs) {
        Benchmark b;
        b.name = "bad";
        b.exprs = std::move(exprs);
        return from_benchmark(b);
    };
    // Unknown producer name.
    EXPECT_THROW(dag_of({{"a", stage_expr(8), 64, {{8, "ghost"}}}}),
                 UserError);
    // A dep on a buffer the stage never loads.
    EXPECT_THROW(dag_of({{"a", stage_expr(0), 64, {}},
                         {"b", stage_expr(0), 64, {{5, "a"}}}}),
                 UserError);
    // Cycle.
    EXPECT_THROW(dag_of({{"a", stage_expr(8), 64, {{8, "b"}}},
                         {"b", stage_expr(9), 64, {{9, "a"}}}}),
                 UserError);
    // Duplicate stage names are ambiguous dep targets.
    EXPECT_THROW(dag_of({{"a", stage_expr(0), 64, {}},
                         {"a", stage_expr(0), 64, {}},
                         {"b", stage_expr(8), 64, {{8, "a"}}}}),
                 UserError);
    // Consumer loads u16 from a producer that outputs u8.
    using namespace rake::hir;
    hir::ExprPtr wide =
        (load(8, ScalarType::UInt16, 64) >> 1).ptr();
    EXPECT_THROW(dag_of({{"a", stage_expr(0), 64, {}},
                         {"b", wide, 64, {{8, "a"}}}}),
                 UserError);
}

TEST(PipelineDag, FlatBenchmarksAreDegenerateOneNodeDags)
{
    for (const char *name : {"sobel", "mul", "gaussian3x3"}) {
        const Benchmark &b = benchmark(name);
        const PipelineDag dag = from_benchmark(b);
        SCOPED_TRACE(name);
        EXPECT_FALSE(dag.has_edges());
        EXPECT_EQ(dag.hashcons_hits, 0);
        ASSERT_EQ(dag.stages.size(), b.exprs.size());
        for (size_t i = 0; i < b.exprs.size(); ++i) {
            // Pointer identity, not just structural equality: the
            // synthesis queries, cache keys and schedules downstream
            // are exactly the legacy flat path's.
            EXPECT_EQ(dag.stages[i].expr, b.exprs[i].expr);
            EXPECT_EQ(dag.stages[i].edge_inputs(), 0);
        }
    }
}

TEST(PipelineDag, FlatCompilationReportsNoPipelineCounters)
{
    CompileOptions opts;
    BenchmarkResult r = compile_benchmark(benchmark("mul"), opts);
    EXPECT_EQ(r.stages, 0);
    EXPECT_EQ(r.boundary_swizzles, 0);
    EXPECT_EQ(r.boundary_swizzles_saved, 0);
    EXPECT_EQ(r.hashcons_hits, 0);
    EXPECT_EQ(r.dag_cycles, 0);
    EXPECT_EQ(r.profile.stages, 0);
}

TEST(PipelineDag, StereoSharesTheSmoothingSubtree)
{
    // stereo.left and stereo.right run the same smoothing kernel over
    // different inputs; in slot space they are one canonical subtree.
    const Benchmark &b = benchmark("stereo_absdiff");
    const PipelineDag dag = from_benchmark(b);
    EXPECT_GT(dag.hashcons_hits, 0);
    EXPECT_EQ(dag.stages[0].expr, dag.stages[1].expr);

    // ... which means one synthesis query: the second stage must be
    // answered by the cross-expression cache, never re-synthesized.
    CompileOptions opts;
    BenchmarkResult r = compile_benchmark(b, opts);
    EXPECT_GT(r.hashcons_hits, 0);
    EXPECT_GE(r.cache_hits, 1);
    EXPECT_EQ(r.stages, 3);
}

TEST(Negotiation, PicksTheLayoutThatCancelsBothPermutes)
{
    using hvx::Instr;
    using hvx::Opcode;
    const VecType t(ScalarType::UInt8, 64);
    // Producer computes an interleaved row: Shuff(Avg(in, in')).
    hvx::InstrPtr in =
        Instr::make_read(hir::LoadRef{0, 0, 0}, t);
    hvx::InstrPtr in1 =
        Instr::make_read(hir::LoadRef{0, 1, 0}, t);
    hvx::InstrPtr row = Instr::make(
        Opcode::VShuffVdd,
        {Instr::make(Opcode::VAvg, {in, in1}, {}, t.elem)}, {}, t.elem);
    // Consumer immediately deinterleaves what it reads back.
    hvx::InstrPtr mid =
        Instr::make_read(hir::LoadRef{5, 0, 0}, t);
    hvx::InstrPtr out = Instr::make(
        Opcode::VAdd,
        {Instr::make(Opcode::VDealVdd, {mid}, {}, t.elem),
         Instr::make_read(hir::LoadRef{1, 0, 0}, t)},
        {}, t.elem);

    std::vector<synth::StageProgram> stages(2);
    stages[0].instr = row;
    stages[0].iterations = 1024;
    stages[1].instr = out;
    stages[1].iterations = 1024;
    stages[1].producers = {{5, 0}};

    hvx::Target target;
    sim::MachineModel machine;
    const synth::NegotiationResult neg =
        synth::negotiate_layouts(stages, target, machine);
    // Storing the row deinterleaved cancels the producer's Shuff AND
    // the consumer's Deal: both boundary permutes disappear.
    ASSERT_EQ(neg.layouts.size(), 2u);
    EXPECT_EQ(neg.layouts[0], synth::EdgeLayout::Deinterleaved);
    EXPECT_EQ(neg.boundary_swizzles, 0);
    EXPECT_EQ(neg.boundary_swizzles_saved, 2);
    EXPECT_EQ(neg.programs[0]->op(), hvx::Opcode::VAvg);
    // The consumer's Deal is gone: its first operand is the raw read.
    EXPECT_EQ(neg.programs[1]->arg(0)->op(), hvx::Opcode::VRead);
}

TEST(Negotiation, ShiftedConsumerReadsKeepTheEdgeNatural)
{
    using hvx::Instr;
    using hvx::Opcode;
    const VecType t(ScalarType::UInt8, 64);
    hvx::InstrPtr row = Instr::make(
        Opcode::VShuffVdd,
        {Instr::make_read(hir::LoadRef{0, 0, 0}, t)}, {}, t.elem);
    // dx = 1: a whole-row permute cannot express a shifted read, so
    // no relayout of this edge is sound.
    hvx::InstrPtr out = Instr::make(
        Opcode::VAdd,
        {Instr::make(Opcode::VDealVdd,
                     {Instr::make_read(hir::LoadRef{5, 0, 0}, t)}, {},
                     t.elem),
         Instr::make_read(hir::LoadRef{5, 1, 0}, t)},
        {}, t.elem);

    std::vector<synth::StageProgram> stages(2);
    stages[0].instr = row;
    stages[0].iterations = 256;
    stages[1].instr = out;
    stages[1].iterations = 256;
    stages[1].producers = {{5, 0}};

    hvx::Target target;
    sim::MachineModel machine;
    const synth::NegotiationResult neg =
        synth::negotiate_layouts(stages, target, machine);
    EXPECT_EQ(neg.layouts[0], synth::EdgeLayout::Natural);
    EXPECT_EQ(neg.boundary_swizzles_saved, 0);
    EXPECT_EQ(neg.programs[0], row); // untouched
    EXPECT_EQ(neg.programs[1], out);
}

TEST(Negotiation, DepthwiseConvDeinterleavesItsRowStage)
{
    // The organic end of the unit tests above: the real depthwise_conv
    // DAG negotiates its interleaved row kernel to a deinterleaved
    // store, deleting all four boundary permutes (the old modeled
    // boundary penalty's whole reason to exist).
    CompileOptions opts;
    BenchmarkResult r =
        compile_benchmark(benchmark("depthwise_conv"), opts);
    EXPECT_EQ(r.boundary_swizzles, 0);
    EXPECT_GE(r.boundary_swizzles_saved, 4);

    // average_pool's edge has nothing to gain: it stays Natural and
    // keeps its single boundary swizzle.
    BenchmarkResult p =
        compile_benchmark(benchmark("average_pool"), opts);
    EXPECT_EQ(p.boundary_swizzles, 1);
    EXPECT_EQ(p.boundary_swizzles_saved, 0);
}

TEST(DagExecutor, FusedSuiteMatchesComposedReferenceOnHvx)
{
    for (const Benchmark &b : fused_suite()) {
        SCOPED_TRACE(b.name);
        const PipelineDag dag = from_benchmark(b);
        std::vector<hvx::InstrPtr> programs;
        for (const DagStage &s : dag.stages) {
            auto rk = synth::select_instructions(s.expr);
            ASSERT_TRUE(rk.has_value()) << s.name;
            programs.push_back(rk->instr);
        }
        std::map<std::string, int64_t> scalars;
        const std::map<int, Image> inputs = inputs_for(dag, &scalars);
        const Image expected = run_dag_reference(dag, inputs, scalars);
        const Image actual = run_dag(dag, programs, inputs, scalars);
        EXPECT_EQ(count_mismatches(expected, actual), 0);
    }
}

TEST(DagExecutor, FusedSuiteMatchesComposedReferenceOnNeon)
{
    for (const Benchmark &b : fused_suite()) {
        SCOPED_TRACE(b.name);
        const PipelineDag dag = from_benchmark(b);
        std::vector<StageCode> codes;
        bool all_selected = true;
        for (const DagStage &s : dag.stages) {
            const neon::NInstrPtr ne = test::select_neon(s.expr);
            EXPECT_NE(ne, nullptr) << s.name;
            if (!ne) {
                all_selected = false;
                break;
            }
            StageCode code;
            code.out_type = s.expr->type();
            for (const StageInput &in : s.inputs)
                code.load_elems[in.slot] =
                    load_elem_of(s.expr, in.slot);
            // One Neon interpreter and view Env per worker.
            code.make_eval = [prog = ne](const Env &env) -> TileEval {
                auto interp = std::make_shared<neon::Interpreter>();
                return [prog, interp, env = Env(env)](
                           int x, int y, int64_t *dst) mutable {
                    env.x = x;
                    env.y = y;
                    interp->reset(env);
                    const Value &v = interp->eval(prog);
                    std::copy(v.lanes.begin(), v.lanes.end(), dst);
                };
            };
            codes.push_back(std::move(code));
        }
        if (!all_selected)
            continue;
        std::map<std::string, int64_t> scalars;
        const std::map<int, Image> inputs = inputs_for(dag, &scalars);
        const Image expected = run_dag_reference(dag, inputs, scalars);
        const Image actual = run_dag_with(dag, codes, inputs, scalars);
        EXPECT_EQ(count_mismatches(expected, actual), 0);
    }
}

TEST(DagExecutor, ValidatesStageBoundaries)
{
    const Benchmark &b = benchmark("average_pool");
    const PipelineDag dag = from_benchmark(b);
    std::map<std::string, int64_t> scalars;
    const std::map<int, Image> inputs = inputs_for(dag, &scalars);

    // Wrong program count.
    EXPECT_THROW(run_dag(dag, {}, inputs, scalars), UserError);

    // Missing external input.
    EXPECT_THROW(run_dag_reference(dag, {}, scalars), UserError);

    // An element-type lie at the stage boundary: the consumer claims
    // to load a different element type than its producer made.
    std::vector<StageCode> codes;
    for (const DagStage &s : dag.stages) {
        StageCode code;
        code.out_type = s.expr->type();
        for (const StageInput &in : s.inputs)
            code.load_elems[in.slot] = load_elem_of(s.expr, in.slot);
        code.make_eval = [expr = s.expr](const Env &env) -> TileEval {
            return [expr, env = Env(env)](int x, int y,
                                          int64_t *dst) mutable {
                env.x = x;
                env.y = y;
                const Value v = hir::evaluate(expr, env);
                std::copy(v.lanes.begin(), v.lanes.end(), dst);
            };
        };
        codes.push_back(std::move(code));
    }
    for (const StageInput &in : dag.stages[1].inputs)
        if (in.producer >= 0)
            codes[1].load_elems[in.slot] =
                codes[1].load_elems[in.slot] == ScalarType::UInt8
                    ? ScalarType::UInt16
                    : ScalarType::UInt8;
    EXPECT_THROW(run_dag_with(dag, codes, inputs, scalars), UserError);

    // A null evaluator is refused by name.
    codes[1].make_eval = nullptr;
    EXPECT_THROW(run_dag_with(dag, codes, inputs, scalars), UserError);

    // Mismatched input image sizes fail per-stage validation.
    std::map<int, Image> bad = inputs;
    bad.begin()->second =
        Image::synthetic(bad.begin()->second.elem, 32, 2, 3);
    EXPECT_THROW(run_dag_reference(dag, bad, scalars), UserError);
}

TEST(DagExecutor, FusedSuiteBenchmarksAreWellFormed)
{
    const auto &suite = fused_suite();
    ASSERT_EQ(suite.size(), 4u);
    for (const char *name :
         {"blur_sobel_threshold", "stereo_absdiff", "average_pool",
          "depthwise_conv"})
        EXPECT_NO_THROW(benchmark(name)) << name;
    for (const Benchmark &b : suite) {
        const PipelineDag dag = from_benchmark(b);
        EXPECT_TRUE(dag.has_edges()) << b.name;
    }
}

} // namespace
} // namespace rake
