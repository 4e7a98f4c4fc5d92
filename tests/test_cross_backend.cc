/**
 * @file
 * Cross-backend differential tests (paper §6): the same expression
 * selected through both TargetISA backends must agree with the HIR
 * reference — and therefore with each other — on randomized inputs.
 *
 * Two corpora: the full 21-benchmark suite (every kernel expression
 * must lower on both backends and validate three ways), and a seeded
 * stream of generated expressions (backends may decline unmappable
 * shapes, but whatever they return must be correct).
 */
#include <gtest/gtest.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hvx/interp.h"
#include "neon/select.h"
#include "pipeline/benchmarks.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using pipeline::Benchmark;
using pipeline::KernelExpr;

TEST(CrossBackend, BenchmarkSuiteAgreesOnBothBackends)
{
    for (const Benchmark &b : pipeline::benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + ":" + k.name);
            auto hv = synth::select_instructions(k.expr);
            auto ne = neon::select_instructions(k.expr);
            EXPECT_TRUE(hv.has_value());
            EXPECT_TRUE(ne.has_value());
            if (!hv || !ne)
                continue;
            for (const Env &env :
                 test::environments_for(k.expr, 6, 91)) {
                const Value ref = hir::evaluate(k.expr, env);
                EXPECT_EQ(hvx::evaluate(hv->instr, env), ref);
                EXPECT_EQ(neon::evaluate(*ne, env), ref);
            }
        }
    }
}

/**
 * A backend keeps its own copy of the machine Target: the serving
 * registry builds each backend from a temporary, so one that held a
 * reference would read a dead object on every query. Changing the
 * caller's Target after construction must not move the cost model.
 */
TEST(CrossBackend, BackendsKeepTheirOwnTarget)
{
    constexpr ScalarType u8 = ScalarType::UInt8;
    const hir::LoadRef at{0, 0, 0};

    // A u16x128 add of zero-extended u8x128 reads: register pairs at
    // HVX's 128-byte vectors, single registers at 256 bytes.
    hvx::Target htarget;
    auto hvx_isa = backend::make_hvx_backend(htarget);
    const hvx::InstrPtr hwide = hvx::Instr::make(
        hvx::Opcode::VZxt,
        {hvx::Instr::make_read(at, VecType(u8, 128))});
    const hvx::InstrPtr hadd =
        hvx::Instr::make(hvx::Opcode::VAdd, {hwide, hwide});
    const int hvx_issues = hvx_isa->cost_of(hadd).total_instructions;
    htarget.vector_bytes = 256;
    EXPECT_EQ(hvx_isa->cost_of(hadd).total_instructions, hvx_issues);

    // The same shape on Neon's 16-byte Q registers.
    neon::Target ntarget;
    auto neon_isa = backend::make_neon_backend(ntarget);
    const neon::NInstrPtr nwide = neon::NInstr::make(
        neon::NOp::Movl, {neon::NInstr::make_load(at, VecType(u8, 16))});
    const neon::NInstrPtr nadd =
        neon::NInstr::make(neon::NOp::Add, {nwide, nwide});
    const int neon_issues = neon_isa->cost_of(nadd).total_instructions;
    ntarget.vector_bytes = 32;
    EXPECT_EQ(neon_isa->cost_of(nadd).total_instructions, neon_issues);
}

TEST(CrossBackend, GreedyAblationAgreesWhereItApplies)
{
    // The --greedy ablation path must stay correct on the shapes it
    // still maps (it may decline ones the full search now handles).
    neon::SelectOptions greedy;
    greedy.greedy = true;
    for (const Benchmark &b : pipeline::benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + ":" + k.name);
            auto ne = neon::select_instructions(k.expr, greedy);
            if (!ne)
                continue;
            for (const Env &env :
                 test::environments_for(k.expr, 4, 57)) {
                EXPECT_EQ(neon::evaluate(*ne, env),
                          hir::evaluate(k.expr, env));
            }
        }
    }
}

class CrossBackendRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(CrossBackendRandom, GeneratedExpressionsAgree)
{
    test::ExprGen gen(GetParam() * 775807 + 11, /*lanes=*/16);
    for (int i = 0; i < 3; ++i) {
        hir::ExprPtr e = gen.gen(3);
        SCOPED_TRACE(hir::to_string(e));
        auto hv = synth::select_instructions(e);
        auto ne = neon::select_instructions(e);
        for (const Env &env : test::environments_for(e, 5, 67)) {
            const Value ref = hir::evaluate(e, env);
            if (hv) {
                EXPECT_EQ(hvx::evaluate(hv->instr, env), ref);
            }
            if (ne) {
                EXPECT_EQ(neon::evaluate(*ne, env), ref);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendRandom,
                         ::testing::Range(0, 8));

} // namespace
} // namespace rake
