/**
 * @file
 * Shared helpers for the test suite: deterministic random expression
 * generation (for differential and property testing), environment
 * construction, dirty recycled storage for whole-image passes, and
 * Neon selection as a typed node.
 */
#ifndef RAKE_TESTS_TEST_UTIL_H
#define RAKE_TESTS_TEST_UTIL_H

#include <algorithm>
#include <vector>

#include "backend/neon_backend.h"
#include "base/value.h"
#include "hir/analysis.h"
#include "hir/builder.h"
#include "hir/expr.h"
#include "support/rng.h"
#include "synth/rake.h"
#include "synth/spec.h"

namespace rake::test {

/**
 * Deterministic random HIR expression generator.
 *
 * Produces type-correct expression trees over loads of a u8 and a u16
 * buffer, broadcast constants and one scalar variable, exercising
 * every HIR operator. Used for differential testing of the
 * interpreters, the simplifier, the s-expression round-trip, the
 * baseline selector, and the z3 encoder.
 */
class ExprGen
{
  public:
    explicit ExprGen(uint64_t seed, int lanes = 16)
        : rng_(seed), lanes_(lanes)
    {
    }

    hir::ExprPtr
    gen(int depth = 3)
    {
        return vec_expr(ScalarType::UInt16, depth);
    }

    /** Random expression of the requested element type. */
    hir::ExprPtr
    gen_typed(ScalarType t, int depth)
    {
        return vec_expr(t, depth);
    }

  private:
    hir::ExprPtr
    leaf(ScalarType t)
    {
        switch (rng_.range(0, 3)) {
          case 0:
            if (t == ScalarType::UInt8)
                return hir::Expr::make_load(
                    hir::LoadRef{0, static_cast<int>(rng_.range(-2, 2)),
                                 static_cast<int>(rng_.range(-1, 1))},
                    VecType(t, lanes_));
            if (t == ScalarType::UInt16)
                return hir::Expr::make_load(
                    hir::LoadRef{1, static_cast<int>(rng_.range(-2, 2)),
                                 0},
                    VecType(t, lanes_));
            return hir::Expr::make_const(rng_.range(-20, 20),
                                         VecType(t, lanes_));
          case 1:
            return hir::Expr::make_const(rng_.range(-64, 64),
                                         VecType(t, lanes_));
          default:
            return hir::Expr::make_broadcast(
                hir::Expr::make_var("v", VecType(ScalarType::Int16, 1)),
                lanes_);
        }
    }

    hir::ExprPtr
    vec_expr(ScalarType t, int depth)
    {
        using hir::Expr;
        using hir::Op;
        if (depth <= 0) {
            hir::ExprPtr l = leaf(t);
            if (l->type().elem != t)
                return Expr::make_cast(t, l);
            return l;
        }
        switch (rng_.range(0, 9)) {
          case 0:
            return Expr::make(Op::Add, {vec_expr(t, depth - 1),
                                        vec_expr(t, depth - 1)});
          case 1:
            return Expr::make(Op::Sub, {vec_expr(t, depth - 1),
                                        vec_expr(t, depth - 1)});
          case 2:
            return Expr::make(Op::Mul,
                              {vec_expr(t, depth - 1),
                               Expr::make_const(rng_.range(-4, 4),
                                                VecType(t, lanes_))});
          case 3:
            return Expr::make(Op::Min, {vec_expr(t, depth - 1),
                                        vec_expr(t, depth - 1)});
          case 4:
            return Expr::make(Op::Max, {vec_expr(t, depth - 1),
                                        vec_expr(t, depth - 1)});
          case 5:
            return Expr::make(Op::AbsDiff, {vec_expr(t, depth - 1),
                                            vec_expr(t, depth - 1)});
          case 6:
            return Expr::make(
                Op::ShiftRight,
                {vec_expr(t, depth - 1),
                 Expr::make_const(rng_.range(0, 3),
                                  VecType(t, lanes_))});
          case 7: {
            // Cast through the other width and back keeps the tree
            // type-correct while exercising Cast.
            ScalarType other = bits(t) <= 16 ? ScalarType::Int32
                                             : ScalarType::Int16;
            return Expr::make_cast(
                t, Expr::make_cast(other, vec_expr(t, depth - 1)));
          }
          case 8:
            return Expr::make(
                Op::Select,
                {Expr::make(Op::Lt,
                            {vec_expr(t, depth - 1),
                             vec_expr(t, depth - 1)}),
                 vec_expr(t, depth - 1), vec_expr(t, depth - 1)});
          default:
            return Expr::make(Op::And, {vec_expr(t, depth - 1),
                                        vec_expr(t, depth - 1)});
        }
    }

    Rng rng_;
    int lanes_;
};

/** Example environments for an arbitrary expression. */
inline std::vector<Env>
environments_for(const hir::ExprPtr &e, int count, uint64_t seed = 3)
{
    synth::Spec spec = synth::Spec::from_expr(e);
    synth::ExamplePool pool(spec, seed);
    std::vector<Env> envs;
    for (int i = 0; i < count; ++i)
        envs.push_back(pool.at(i));
    return envs;
}

/** A cell value no pixel of an 8- to 32-bit image can hold. */
constexpr int64_t kDirtyCell = int64_t{0x5eedfacecafe0bad};

/**
 * Free `count` blocks of `cells` cells, each filled with kDirtyCell,
 * so that the next allocations of that size are handed dirty storage:
 * always for a whole-image block, which the cell free list hands back
 * (base/value.h), and mostly for a smaller one, which malloc recycles.
 * Returns the block freed last, the one the next request takes.
 */
inline const int64_t *
free_dirty_cells(size_t cells, int count = 1)
{
    std::vector<Cells> blocks(static_cast<size_t>(count));
    for (Cells &b : blocks)
        b.assign(cells, kDirtyCell);
    const int64_t *last = blocks.back().data();
    for (Cells &b : blocks)
        Cells().swap(b);
    return last;
}

/** Whether any cell still holds kDirtyCell. */
inline bool
has_dirty_cell(const Cells &cells)
{
    return std::find(cells.begin(), cells.end(), kDirtyCell) != cells.end();
}

/**
 * The Neon backend's selection for `e` through the selection ladder
 * (synth::select_instructions_for, default options), or null when it
 * declines.
 */
inline neon::NInstrPtr
select_neon(const hir::ExprPtr &e)
{
    const auto isa = backend::make_neon_backend(neon::Target{});
    const auto r = synth::select_instructions_for(e, *isa);
    if (!r)
        return nullptr;
    return std::static_pointer_cast<const neon::NInstr>(r->instr);
}

} // namespace rake::test

#endif // RAKE_TESTS_TEST_UTIL_H
