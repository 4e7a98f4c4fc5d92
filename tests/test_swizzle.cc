/**
 * @file
 * Tests for the swizzle synthesizer (§5): goal-directed search over
 * each backend's data-movement moves, budget behaviour, holes over
 * different sources, and query accounting. Every query goes through
 * TargetISA::solve_hole, the one entry point the lowerer uses; the
 * budget tests run on both backends.
 */
#include <gtest/gtest.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hvx/interp.h"
#include "neon/interp.h"
#include "synth/cache.h"
#include "synth/swizzle.h"

namespace rake {
namespace {

using namespace rake::synth;
constexpr ScalarType u8 = ScalarType::UInt8;

Env
ramp_env()
{
    Env env;
    Buffer b(u8, 64, 3, -16, -1);
    for (size_t i = 0; i < b.data.size(); ++i)
        b.data[i] = static_cast<int64_t>(i % 251);
    env.buffers.emplace(0, std::move(b));
    return env;
}

/** One swizzle query through a backend, unwrapped to its node type. */
template <typename Node>
std::shared_ptr<const Node>
solve_as(backend::TargetISA &isa, const Hole &hole, int budget,
         SwizzleStats &stats)
{
    auto r = isa.solve_hole(hole, budget, stats);
    return r ? std::static_pointer_cast<const Node>(*r) : nullptr;
}

std::unique_ptr<backend::TargetISA>
hvx_backend()
{
    return backend::make_hvx_backend(hvx::Target());
}

std::unique_ptr<backend::TargetISA>
neon_backend()
{
    return backend::make_neon_backend(neon::Target());
}

/** Solve and functionally check the solution against the oracle. */
hvx::InstrPtr
solve_checked(const Hole &hole, int budget, SwizzleStats &stats)
{
    auto isa = hvx_backend();
    hvx::InstrPtr sol = solve_as<hvx::Instr>(*isa, hole, budget, stats);
    if (sol) {
        Env env = ramp_env();
        EXPECT_EQ(hvx::evaluate(sol, env),
                  arrangement_value<hvx::Instr>(hole, env));
    }
    return sol;
}

/** Neon twin of solve_checked. */
neon::NInstrPtr
neon_solve_checked(const Hole &hole, int budget, SwizzleStats &stats)
{
    auto isa = neon_backend();
    neon::NInstrPtr sol =
        solve_as<neon::NInstr>(*isa, hole, budget, stats);
    if (sol) {
        Env env = ramp_env();
        EXPECT_EQ(neon::evaluate(sol, env),
                  arrangement_value<neon::NInstr>(hole, env));
    }
    return sol;
}

neon::NInstrPtr
neon_load(int dx, int lanes)
{
    return neon::NInstr::make_read(hir::LoadRef{0, dx, 0},
                                   VecType(u8, lanes));
}

/** One backend under the budget tests. */
struct BackendCase {
    const char *name;
    std::unique_ptr<backend::TargetISA> (*make)();
    /** Is the program's root the backend's deinterleave move? */
    bool (*is_deinterleave)(const backend::InstrHandle &);
};

const BackendCase kBackendCases[] = {
    {"hvx", hvx_backend,
     [](const backend::InstrHandle &h) {
         return std::static_pointer_cast<const hvx::Instr>(h)->op() ==
                hvx::Opcode::VDealVdd;
     }},
    {"neon", neon_backend,
     [](const backend::InstrHandle &h) {
         return std::static_pointer_cast<const neon::NInstr>(h)->op() ==
                neon::NOp::Uzp;
     }},
};

TEST(Swizzle, WindowIsOneRead)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), window_cells(0, 0, -2, 8), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VRead);
    EXPECT_EQ(sol->load_ref().dx, -2);
    EXPECT_EQ(stats.solved, 1);
}

TEST(Swizzle, DeinterleavedWindowNeedsDeal)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VDealVdd);
    EXPECT_EQ(sol->arg(0)->op(), hvx::Opcode::VRead);
}

TEST(Swizzle, InterleaveGoalUsesShuff)
{
    // Goal: interleave of a window — the inverse direction.
    SwizzleStats stats;
    Hole h{VecType(u8, 8), interleave(window_cells(0, 0, 0, 8)), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VShuffVdd);
}

TEST(Swizzle, TwoRowsCombine)
{
    SwizzleStats stats;
    Arrangement a = concat(window_cells(0, -1, 0, 4),
                           window_cells(0, 1, 0, 4));
    Hole h{VecType(u8, 8), a, {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VCombine);
}

TEST(Swizzle, RotatedWindowUsesRor)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), rotate(window_cells(0, 0, 0, 8), 3), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VRor);
    EXPECT_EQ(sol->imm(0), 3);
}

TEST(Swizzle, SourcePassThroughIsFree)
{
    SwizzleStats stats;
    hvx::InstrPtr src = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                              VecType(u8, 8));
    Hole h{VecType(u8, 8), source_cells(0, 8), {src}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    EXPECT_EQ(sol, src);
}

TEST(Swizzle, SourceHalvesAreFreeRenames)
{
    SwizzleStats stats;
    hvx::InstrPtr src = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                              VecType(u8, 16));
    Arrangement hi;
    for (int i = 8; i < 16; ++i)
        hi.push_back(Cell::src(0, i));
    Hole h{VecType(u8, 8), hi, {src}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VHi);
}

TEST(Swizzle, ZeroFillIsASplat)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8), Arrangement(8, Cell::zero()), {}};
    hvx::InstrPtr sol = solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), hvx::Opcode::VSplat);
}

TEST(Swizzle, BudgetZeroRejectsNonFreeGoals)
{
    for (const BackendCase &c : kBackendCases) {
        SCOPED_TRACE(c.name);
        SwizzleStats stats;
        Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};
        auto isa = c.make();
        EXPECT_FALSE(isa->solve_hole(h, 0, stats).has_value());
        EXPECT_EQ(stats.unsat, 1);
        // And succeeds once the budget allows the read + deal.
        EXPECT_TRUE(isa->solve_hole(h, 3, stats).has_value());
    }
}

TEST(Swizzle, UnsatisfiableArrangementWithinBudget)
{
    // A pseudo-random permutation of a window is not expressible in
    // a couple of structured moves.
    SwizzleStats stats;
    Arrangement a = window_cells(0, 0, 0, 8);
    std::swap(a[0], a[5]);
    std::swap(a[2], a[7]);
    std::swap(a[1], a[6]);
    Hole h{VecType(u8, 8), a, {}};
    EXPECT_EQ(solve_as<hvx::Instr>(*hvx_backend(), h, 3, stats), nullptr);
    EXPECT_GT(stats.queries, 0);
}

TEST(Swizzle, SameArrangementOverOtherSourcesIsAnotherGoal)
{
    // The same arrangement over two different sources must not share
    // solutions (regression test for the cross-hole memo bug).
    SwizzleStats stats;
    auto isa = hvx_backend();
    hvx::InstrPtr s1 = hvx::Instr::make_read(hir::LoadRef{0, 0, 0},
                                             VecType(u8, 8));
    hvx::InstrPtr s2 = hvx::Instr::make_read(hir::LoadRef{0, 0, 1},
                                             VecType(u8, 8));
    Hole h1{VecType(u8, 8), source_cells(0, 8), {s1}};
    Hole h2{VecType(u8, 8), source_cells(0, 8), {s2}};
    EXPECT_EQ(solve_as<hvx::Instr>(*isa, h1, 2, stats), s1);
    EXPECT_EQ(solve_as<hvx::Instr>(*isa, h2, 2, stats), s2);
}

TEST(Swizzle, RequeryAfterUnsatRepeatsTheSameSearch)
{
    // No swizzle result outlives the query that found it. Algorithm
    // 2's backtracking re-queries a solved goal at a tighter budget,
    // which is unsat; querying it again at the first budget searches
    // from scratch and finds the same program with as many candidate
    // programs as the first time.
    for (const BackendCase &c : kBackendCases) {
        SCOPED_TRACE(c.name);
        SwizzleStats stats;
        auto isa = c.make();
        Hole h{VecType(u8, 8), deinterleave(window_cells(0, 0, 0, 8)), {}};

        auto first = isa->solve_hole(h, 8, stats);
        ASSERT_TRUE(first.has_value());
        EXPECT_TRUE(c.is_deinterleave(*first));
        const int first_queries = stats.queries;

        EXPECT_FALSE(isa->solve_hole(h, 1, stats).has_value());
        const int queries_after_tight = stats.queries;

        auto again = isa->solve_hole(h, 8, stats);
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(isa->instr_to_sexpr(*again), isa->instr_to_sexpr(*first));
        EXPECT_EQ(stats.queries - queries_after_tight, first_queries);
        EXPECT_EQ(stats.solved, 2);
        EXPECT_EQ(stats.unsat, 1);
        EXPECT_EQ(stats.memo_hits, 0);
    }
}

TEST(Swizzle, SynthesisCacheKeySeparatesSwizzleBudgets)
{
    // The cross-expression synthesis cache must never serve a result
    // computed under one swizzle budget to a query made under
    // another — the budget changes which programs are reachable.
    synth::RakeOptions a, b;
    b.lower.swizzle_budget = a.lower.swizzle_budget + 1;
    EXPECT_NE(synth::options_fingerprint(a),
              synth::options_fingerprint(b));
}

TEST(Swizzle, TimedOutQueryIsNotCachedAsNegative)
{
    // A deadline-aborted synthesis says nothing about the goal: the
    // owner must retract its in-flight cache entry, not publish a
    // failure, or a hurried query would poison every later unhurried
    // one with a phantom "no solution".
    using namespace rake::hir;
    synthesis_cache().clear();
    HExpr e = cast(u8, (cast(ScalarType::UInt16, load(0, u8, 64)) +
                        cast(ScalarType::UInt16, load(0, u8, 64, 1)) +
                        1) >>
                           1);

    RakeOptions hurried;
    hurried.deadline = Deadline::after_ms(0);
    auto first = select_instructions(e.ptr(), hurried);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status, SynthStatus::TimedOut);
    EXPECT_TRUE(first->degraded);
    EXPECT_FALSE(first->cache_hit);
    ASSERT_NE(first->instr, nullptr); // greedy baseline program

    // The unhurried re-query synthesizes afresh — cache_hit false
    // proves the timed-out entry was retracted — and succeeds.
    auto second = select_instructions(e.ptr());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, SynthStatus::Ok);
    EXPECT_FALSE(second->degraded);
    EXPECT_FALSE(second->cache_hit);
    ASSERT_NE(second->instr, nullptr);

    // The completed run is then cached like any other.
    auto third = select_instructions(e.ptr());
    ASSERT_TRUE(third.has_value());
    EXPECT_TRUE(third->cache_hit);
    EXPECT_TRUE(hvx::equal(third->instr, second->instr));
}

TEST(Swizzle, QueriesAreCounted)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 8),
           interleave(concat(window_cells(0, -1, 0, 4),
                             window_cells(0, 1, 0, 4))),
           {}};
    solve_checked(h, 5, stats);
    EXPECT_GT(stats.queries, 3);
    EXPECT_GT(stats.seconds, 0.0);
}

// Neon's moves. The suite's Neon selections only ever use vld1 and
// vdup, so these goals are the only check that each Neon move the
// search counts also computes the arrangement it claims.

TEST(Swizzle, NeonFunnelledWindowUsesExt)
{
    // Lanes 3..15 of one register followed by lanes 0..2 of the next.
    SwizzleStats stats;
    neon::NInstrPtr s0 = neon_load(0, 16), s1 = neon_load(16, 16);
    Arrangement a;
    for (int i = 0; i < 16; ++i)
        a.push_back(i + 3 < 16 ? Cell::src(0, i + 3)
                               : Cell::src(1, i + 3 - 16));
    Hole h{VecType(u8, 16), a, {s0, s1}};
    neon::NInstrPtr sol = neon_solve_checked(h, 2, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), neon::NOp::Ext);
    EXPECT_EQ(sol->imms(), std::vector<int64_t>{3});
    EXPECT_EQ(sol->arg(0), s0);
    EXPECT_EQ(sol->arg(1), s1);
}

TEST(Swizzle, NeonReversedWindowUsesRev)
{
    SwizzleStats stats;
    Arrangement w = window_cells(0, 0, 0, 16);
    Hole h{VecType(u8, 16), Arrangement(w.rbegin(), w.rend()), {}};
    neon::NInstrPtr sol = neon_solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), neon::NOp::Rev);
    EXPECT_EQ(sol->arg(0)->op(), neon::NOp::Ld1);
}

TEST(Swizzle, NeonIrregularGatherUsesTbl)
{
    SwizzleStats stats;
    neon::NInstrPtr src = neon_load(0, 16);
    const std::vector<int64_t> perm = {5, 0,  12, 3, 9, 1,  14, 7,
                                       2, 11, 4, 15, 8, 6, 13, 10};
    Arrangement a;
    for (int64_t lane : perm)
        a.push_back(Cell::src(0, static_cast<int>(lane)));
    Hole h{VecType(u8, 16), a, {src}};
    neon::NInstrPtr sol = neon_solve_checked(h, 2, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), neon::NOp::Tbl);
    EXPECT_EQ(sol->imms(), perm);
    EXPECT_EQ(sol->arg(0), src);
}

TEST(Swizzle, NeonDeinterleavedWindowUsesUzp)
{
    SwizzleStats stats;
    Hole h{VecType(u8, 16), deinterleave(window_cells(0, 0, 0, 16)), {}};
    neon::NInstrPtr sol = neon_solve_checked(h, 4, stats);
    ASSERT_NE(sol, nullptr);
    EXPECT_EQ(sol->op(), neon::NOp::Uzp);
    EXPECT_EQ(sol->arg(0)->op(), neon::NOp::Ld1);
}

TEST(Swizzle, NeonSourceHalvesAreFreeRenames)
{
    neon::NInstrPtr src = neon_load(0, 32);
    for (bool hi : {false, true}) {
        SCOPED_TRACE(hi ? "high" : "low");
        SwizzleStats stats;
        Arrangement a;
        for (int i = 0; i < 16; ++i)
            a.push_back(Cell::src(0, (hi ? 16 : 0) + i));
        Hole h{VecType(u8, 16), a, {src}};
        // Budget 0: only a free program qualifies.
        neon::NInstrPtr sol = neon_solve_checked(h, 0, stats);
        ASSERT_NE(sol, nullptr);
        EXPECT_EQ(sol->op(), hi ? neon::NOp::Hi : neon::NOp::Lo);
        EXPECT_EQ(sol->arg(0), src);
    }
}

} // namespace
} // namespace rake
