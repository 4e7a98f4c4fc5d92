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
#include <fstream>

#include <gtest/gtest.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/interp.h"
#include "hir/printer.h"
#include "hvx/interp.h"
#include "neon/interp.h"
#include "neon/sexpr.h"
#include "pipeline/benchmarks.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using pipeline::Benchmark;
using pipeline::KernelExpr;

/** A backend cost as "scalar/instructions/latency". */
std::string
cost_text(const backend::TargetISA &isa, const backend::InstrHandle &p)
{
    const backend::Cost c = isa.cost_of(p);
    return std::to_string(c.scalar) + "/" +
           std::to_string(c.total_instructions) + "/" +
           std::to_string(c.total_latency);
}

/**
 * The cost of `p` after an s-expression round trip, which rebuilds
 * every shared node as a separate copy (as disk entries and rule
 * tables are read back).
 */
std::string
round_trip_cost_text(const backend::TargetISA &isa,
                     const backend::InstrHandle &p)
{
    return cost_text(isa, isa.instr_from_sexpr(isa.instr_to_sexpr(p)));
}

TEST(CrossBackend, BenchmarkSuiteAgreesOnBothBackends)
{
    const auto hvx_isa = backend::make_hvx_backend(hvx::Target{});
    const auto neon_isa = backend::make_neon_backend(neon::Target{});
    for (const Benchmark &b : pipeline::benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + ":" + k.name);
            auto hv = synth::select_instructions(k.expr);
            const neon::NInstrPtr ne = test::select_neon(k.expr);
            EXPECT_TRUE(hv.has_value());
            EXPECT_NE(ne, nullptr);
            if (!hv || !ne)
                continue;
            for (const Env &env :
                 test::environments_for(k.expr, 6, 91)) {
                const Value ref = hir::evaluate(k.expr, env);
                EXPECT_EQ(hvx::evaluate(hv->instr, env), ref);
                EXPECT_EQ(neon::evaluate(ne, env), ref);
            }
            // One program has one cost, shared nodes or not.
            EXPECT_EQ(round_trip_cost_text(*hvx_isa, hv->instr),
                      cost_text(*hvx_isa, hv->instr));
            EXPECT_EQ(round_trip_cost_text(*neon_isa, ne),
                      cost_text(*neon_isa, ne));
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
        neon::NOp::Movl, {neon::NInstr::make_read(at, VecType(u8, 16))});
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
    const auto isa = backend::make_neon_backend(neon::Target{});
    for (const Benchmark &b : pipeline::benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + ":" + k.name);
            const auto g = isa->greedy_select(k.expr);
            if (!g)
                continue;
            const auto ne = std::static_pointer_cast<const neon::NInstr>(*g);
            for (const Env &env :
                 test::environments_for(k.expr, 4, 57)) {
                EXPECT_EQ(neon::evaluate(ne, env),
                          hir::evaluate(k.expr, env));
            }
        }
    }
}

/**
 * What Neon's greedy mapper (`--greedy`, and a timed-out Neon query's
 * degradation) selects for each suite expression, in table1's order:
 * one s-expression a line, "declined" where it maps nothing.
 */
TEST(CrossBackend, GreedySelectionsMatchGolden)
{
    std::ifstream golden(std::string(RAKE_TESTS_DIR) +
                         "/golden/neon_greedy_selections.txt");
    ASSERT_TRUE(golden.good());
    const auto isa = backend::make_neon_backend(neon::Target{});
    for (const Benchmark &b : pipeline::benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            const auto g = isa->greedy_select(k.expr);
            const std::string got =
                g ? neon::to_sexpr(
                        std::static_pointer_cast<const neon::NInstr>(*g))
                  : "declined";
            std::string want;
            std::getline(golden, want);
            EXPECT_EQ(got, want) << b.name << ":" << k.name;
        }
    }
    std::string extra;
    EXPECT_FALSE(std::getline(golden, extra)) << "golden has more lines";
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
        const neon::NInstrPtr ne = test::select_neon(e);
        for (const Env &env : test::environments_for(e, 5, 67)) {
            const Value ref = hir::evaluate(e, env);
            if (hv) {
                EXPECT_EQ(hvx::evaluate(hv->instr, env), ref);
            }
            if (ne) {
                EXPECT_EQ(neon::evaluate(ne, env), ref);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendRandom,
                         ::testing::Range(0, 8));

} // namespace
} // namespace rake
