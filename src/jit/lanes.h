/**
 * @file
 * The JIT's lane algebra: base/arith.h's interface, recording instead
 * of computing.
 *
 * The lowerer runs each HVX node's lane function (hvx/semantics.h)
 * over TapeLanes, once per output lane. Every primitive the lane
 * function calls appends one Step to a tape; operand reads append Arg
 * steps naming the arena slot they read; literals stay values. A
 * node's lanes i..i+W-1 whose tapes have one shape (same primitives,
 * scalar types and rounding flags in the same order; only the slots
 * read and the literals differ) are emitted once, W lanes per
 * instruction, so the JIT runs the definition the interpreter and the
 * z3 prover run.
 */
#ifndef RAKE_JIT_LANES_H
#define RAKE_JIT_LANES_H

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>

#include "base/type.h"
#include "support/error.h"

namespace rake::jit {

/**
 * The primitives of the lane algebra (base/arith.h Int64Lanes) that
 * HVX lane functions call; they compare with gt and eq only.
 */
enum class Prim : uint8_t {
    Arg, ///< read an operand lane from the arena
    Wrap,
    Sat,
    Add,
    Sub,
    Mul,
    Avg,
    Navg,
    Absd,
    Min,
    Max,
    Gt,
    Eq,
    Select,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Asr,
    Lsr,
};

/** A lane value while recording: an earlier step's result or a literal. */
struct Val {
    int step = -1; ///< index into the tape's steps; -1 for a literal
    int64_t lit = 0;

    bool is_lit() const { return step < 0; }
};

/** The operand field of a step that takes fewer operands. */
constexpr int32_t kNoOperand = INT32_MIN;

/**
 * One recorded primitive. An operand is an earlier step (>= 0), a
 * literal (~k: the tape's lits[k]) or kNoOperand. An Arg step's
 * operand a is the arena slot it reads.
 */
struct Step {
    Prim prim = Prim::Arg;
    ScalarType type = ScalarType::Int64; ///< wrap/sat/avg/navg/shl/lsr
    bool round = false;                  ///< avg/navg/asr
    int32_t a = kNoOperand, b = kNoOperand, c = kNoOperand;

    bool operator==(const Step &) const = default;
};

/**
 * One lane's recording: its steps and the literals they name. HVX lane
 * functions are short (the longest, an 8-to-1 widening bitcast,
 * records 32 steps), so the capacity is fixed.
 */
struct Tape {
    static constexpr int kMax = 64;

    std::array<Step, kMax> steps;
    std::array<int64_t, 3 * kMax> lits; ///< at most 3 per step
    int num_steps = 0;
    int num_lits = 0;

    void
    clear()
    {
        num_steps = 0;
        num_lits = 0;
    }
};

/** Records one lane's primitives onto `**tape`. */
struct TapeLanes {
    using V = Val;

    Tape *const *tape = nullptr; ///< the tape being recorded

    V lit(int64_t c) const { return Val{-1, c}; }

    V
    read(int64_t slot) const
    {
        return op(Prim::Arg, lit(slot));
    }

    V
    wrap(ScalarType t, V v) const
    {
        return op(Prim::Wrap, v, kNone, kNone, t);
    }

    V
    sat(ScalarType t, V v) const
    {
        return op(Prim::Sat, v, kNone, kNone, t);
    }

    V add(V a, V b) const { return op(Prim::Add, a, b); }
    V sub(V a, V b) const { return op(Prim::Sub, a, b); }
    V mul(V a, V b) const { return op(Prim::Mul, a, b); }

    V
    avg(ScalarType t, V a, V b, bool round) const
    {
        return op(Prim::Avg, a, b, kNone, t, round);
    }

    V
    navg(ScalarType t, V a, V b, bool round) const
    {
        return op(Prim::Navg, a, b, kNone, t, round);
    }

    V absd(V a, V b) const { return op(Prim::Absd, a, b); }
    V min(V a, V b) const { return op(Prim::Min, a, b); }
    V max(V a, V b) const { return op(Prim::Max, a, b); }
    V gt(V a, V b) const { return op(Prim::Gt, a, b); }
    V eq(V a, V b) const { return op(Prim::Eq, a, b); }
    V select(V c, V a, V b) const { return op(Prim::Select, c, a, b); }
    V and_(V a, V b) const { return op(Prim::And, a, b); }
    V or_(V a, V b) const { return op(Prim::Or, a, b); }
    V xor_(V a, V b) const { return op(Prim::Xor, a, b); }
    V not_(V a) const { return op(Prim::Not, a); }
    V
    shl(ScalarType t, V v, V n) const
    {
        return op(Prim::Shl, v, n, kNone, t);
    }

    V
    asr(V v, V n, bool round) const
    {
        return op(Prim::Asr, v, n, kNone, ScalarType::Int64, round);
    }

    V
    lsr(ScalarType t, V v, V n) const
    {
        return op(Prim::Lsr, v, n, kNone, t);
    }

  private:
    static constexpr V kNone{-2, 0};

    static int32_t
    ref(Tape &t, V v)
    {
        if (v.step == kNone.step)
            return kNoOperand;
        if (!v.is_lit())
            return v.step;
        t.lits[t.num_lits] = v.lit;
        return ~t.num_lits++;
    }

    V
    op(Prim p, V a, V b = kNone, V c = kNone,
       ScalarType type = ScalarType::Int64, bool round = false) const
    {
        Tape &t = **tape;
        RAKE_CHECK(t.num_steps < Tape::kMax, "jit: lane function too long");
        Step &s = t.steps[t.num_steps];
        s.prim = p;
        s.type = type;
        s.round = round;
        s.a = ref(t, a);
        s.b = ref(t, b);
        s.c = ref(t, c);
        return Val{t.num_steps++, 0};
    }
};

/**
 * True when two lanes' tapes (and results) differ only in the slots
 * they read and in their literals, so one instruction sequence
 * computes both.
 */
inline bool
same_shape(const Tape &a, Val ra, const Tape &b, Val rb)
{
    return a.num_steps == b.num_steps && a.num_lits == b.num_lits &&
           ra.is_lit() == rb.is_lit() && ra.step == rb.step &&
           std::equal(a.steps.begin(), a.steps.begin() + a.num_steps,
                      b.steps.begin());
}

} // namespace rake::jit

#endif // RAKE_JIT_LANES_H
