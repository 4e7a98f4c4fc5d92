/**
 * @file
 * HVX DAG -> x86-64 lowering.
 *
 * The machine-IR layer of the JIT: walks the selected instruction DAG
 * in topological order, gives every structurally distinct node a run
 * of int64 arena slots (one per lane, the interpreters' carrier
 * representation, each run starting on a 4-lane boundary), and emits
 * code computing each node's lanes from its operands' slots. Lane
 * counts and immediates are compile-time constants, so every HVX index
 * map (deinterleave, interleave, concat, align, rotate) is a constant
 * slot.
 *
 * There is no per-opcode code here. A computing node's lanes come
 * from its lane function in hvx/semantics.h, the one the interpreter
 * and the z3 prover run, instantiated over the recording algebra of
 * jit/lanes.h. Lanes are emitted in groups of W: four at the AVX2
 * tier, one at the scalar tier. A group whose lanes record one shape
 * is emitted once; its operand reads become gathers (one load for a
 * contiguous run, two permuted loads and a blend for stride-2 or
 * alternating reads, lane by lane otherwise) and its literals become
 * pool constants. A group that does not, and the L mod 4 tail, is
 * emitted lane by lane with the scalar tier's forms. Every primitive
 * has one general-purpose-register form and one AVX2 form, both
 * bit-exact to base/arith.h's Int64Lanes.
 *
 * Runs (AVX2 tier). The groups that follow a group with the same shape
 * and literals, each reading every operand slot one constant stride
 * (0, 4, 8, 16 or 32 slots) past the group before, are one run,
 * emitted once as the body of a counted loop: kIndex holds the
 * group's byte offset in the destination, and each read and the store
 * scale it by their stride. Every lane is still recorded and compared.
 *
 * Ranges (AVX2 tier). Before a group is emitted, a value range is
 * carried through its tape: an operand read gets the element range of
 * every slot it reads in any iteration of its run (the whole int64
 * range at 64 bits, where the carrier is the bit pattern), a literal
 * its lanes' values, and each primitive its exact bounds, computed in
 * 128 bits, or the whole range wherever the carrier could wrap. It
 * rests on one invariant, which tests/test_jit.cc checks: a node's
 * lanes lie in its element type. A wrap or sat that cannot change its
 * operand emits nothing, and exact one-instruction forms replace the
 * general ones: vpmuldq/vpmuludq for a product of 32-bit-ranged
 * factors, vpminsd/vpmaxsd/vpminud/vpmaxud for min, max and the sides
 * of a saturation where both operands fit one dword domain, a logical
 * shift for asr of non-negative values, and add-and-shift for avg of
 * non-negative ones.
 *
 * Only the leaves have their own code: VRead (a packed load when the
 * tile's lanes all lie inside the row, otherwise a loop that clamps
 * each lane's column; never a run) and VSplat (filled host-side at
 * bind). The root's lanes are stored straight into the output row the
 * frame points at.
 */
#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/arith.h"
#include "hvx/semantics.h"
#include "jit/encoder.h"
#include "jit/jit.h"
#include "jit/lanes.h"
#include "support/error.h"
#include "support/structural.h"

namespace rake::jit {

static_assert(offsetof(Frame, x) == 0, "Frame layout");
static_assert(offsetof(Frame, y) == 8, "Frame layout");
static_assert(offsetof(Frame, bufs) == 16, "Frame layout");
static_assert(offsetof(Frame, arena) == 24, "Frame layout");
static_assert(offsetof(Frame, dst) == 32, "Frame layout");
static_assert(offsetof(BufferDesc, data) == 0, "BufferDesc layout");
static_assert(offsetof(BufferDesc, width) == 8, "BufferDesc layout");
static_assert(offsetof(BufferDesc, height) == 16, "BufferDesc layout");
static_assert(offsetof(BufferDesc, x0) == 24, "BufferDesc layout");
static_assert(offsetof(BufferDesc, y0) == 32, "BufferDesc layout");
static_assert(sizeof(BufferDesc) == 40, "BufferDesc layout");

namespace {

// Pinned registers for the whole function body.
constexpr Reg kArena = Reg::rbx;
constexpr Reg kBufs = Reg::r12;
constexpr Reg kDst = Reg::r13;
constexpr Reg kX = Reg::r14;
constexpr Reg kY = Reg::r15;

/** int64 lanes per AVX2 register. */
constexpr int kChunk = 4;

/**
 * A run's loop counter: the byte offset of the current group in the
 * destination, kGroupBytes per iteration. Loop bodies are AVX2 groups,
 * which allocate only ymm registers, so it is free while one is
 * emitted.
 */
constexpr Reg kIndex = Reg::r11;
constexpr int32_t kGroupBytes = 8 * kChunk;

/** Bit masks of the registers a lane group may allocate. */
constexpr uint32_t kScratchGprs =
    (1u << 0) | (1u << 1) | (1u << 2) | (1u << 6) | (1u << 7) | (1u << 8) |
    (1u << 9) | (1u << 10) | (1u << 11); // rax rcx rdx rsi rdi r8-r11
constexpr uint32_t kAllYmms = 0xFFFF;

/** A free list over one register file (bit r set = register r free). */
class RegPool
{
  public:
    explicit RegPool(uint32_t free = 0) : free_(free) {}

    int
    take()
    {
        RAKE_CHECK(free_ != 0, "jit: a lane group ran out of registers");
        const int r = std::countr_zero(free_);
        free_ &= free_ - 1;
        return r;
    }

    void give(int r) { free_ |= 1u << r; }

  private:
    uint32_t free_;
};

/** Where a node's lanes go: its arena run, or the output row. */
struct Dest {
    Reg base = kArena;
    int32_t disp = 0;

    Mem lane(int i) const { return Mem{base, disp + 8 * i}; }
};

/** A closed interval of int64 carriers: the values a lane can hold. */
struct Range {
    int64_t lo = INT64_MIN;
    int64_t hi = INT64_MAX;

    bool within(int64_t a, int64_t b) const { return lo >= a && hi <= b; }
    bool within(Range r) const { return within(r.lo, r.hi); }
    /** Every value fits a signed dword. */
    bool s32() const { return within(INT32_MIN, INT32_MAX); }
    /** Every value fits an unsigned dword. */
    bool u32() const { return within(0, UINT32_MAX); }
};

Range point(int64_t v) { return {v, v}; }

Range
hull(Range a, Range b)
{
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

using Wide = __int128;

/** [lo, hi], or every carrier where a bound leaves int64 (it wraps). */
Range
exact(Wide lo, Wide hi)
{
    if (lo < INT64_MIN || hi > INT64_MAX)
        return Range{};
    return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

/**
 * The carriers a lane of type t holds: at 64 bits every one, since the
 * carrier is the bit pattern.
 */
Range
of_type(ScalarType t)
{
    return bits(t) == 64 ? Range{} : Range{min_value(t), max_value(t)};
}

/** The values of wrap(t, v) for v in r. */
Range
wrapped(ScalarType t, Range r)
{
    return r.within(of_type(t)) ? r : of_type(t);
}

/** and, or or xor of a value of a and one of b. */
Range
bitwise(Prim p, Range a, Range b)
{
    // A non-negative operand's bits bound an and from above.
    if (p == Prim::And && (a.lo >= 0 || b.lo >= 0))
        return {0, a.lo < 0 ? b.hi : b.lo < 0 ? a.hi : std::min(a.hi, b.hi)};
    // Values in [-2^k, 2^k) are the ones whose bits from k up all
    // equal the sign; a bitwise op keeps that.
    const auto mag = [](int64_t v) {
        return static_cast<uint64_t>(v < 0 ? ~v : v);
    };
    const int k = std::bit_width(
        std::max({mag(a.lo), mag(a.hi), mag(b.lo), mag(b.hi)}));
    if (k >= 63)
        return Range{};
    const int64_t m = int64_t{1} << k;
    return {a.lo >= 0 && b.lo >= 0 ? 0 : -m, m - 1};
}

/**
 * The dword form of min or max that is exact on values of a and b:
 * their 64-bit lanes are sign- (or zero-) extended dwords, which a
 * dword-wise min or max keeps.
 */
std::optional<VecOp>
dword_form(Prim p, Range a, Range b)
{
    if (a.s32() && b.s32())
        return p == Prim::Min ? VecOp::pminsd : VecOp::pmaxsd;
    if (a.u32() && b.u32())
        return p == Prim::Min ? VecOp::pminud : VecOp::pmaxud;
    return std::nullopt;
}

/** An operand at emission: a register, or one literal per lane. */
struct Opnd {
    int reg = -1; ///< register number; -1 for literals
    std::array<int64_t, kChunk> lit{};
    Range range; ///< its values (AVX2 groups; whole otherwise)

    bool is_reg() const { return reg >= 0; }
};

/** Hash of a pool constant's lanes. */
struct LanesHash {
    size_t
    operator()(const std::array<int64_t, kChunk> &v) const
    {
        size_t h = 0;
        for (int64_t x : v)
            h = hash_mix(h, static_cast<size_t>(x));
        return h;
    }
};

Reg gpr(int r) { return static_cast<Reg>(r); }
Vreg ymm(int r) { return static_cast<Vreg>(r); }

} // namespace

class Lowerer
{
  public:
    explicit Lowerer(SimdLevel simd)
        : simd_(simd), width_(simd == SimdLevel::Avx2 ? kChunk : 1)
    {
        alg_.tape = &cur_;
    }

    std::unique_ptr<Program> lower(const hvx::InstrPtr &root);

  private:
    using Instr = hvx::Instr;

    void collect(const hvx::InstrPtr &n);
    void emit_vread(const Instr &n, Dest dest);
    void emit_node(const Instr &n, Dest dest, int64_t *alias);
    template <typename Lane>
    void emit_lanes(const Lane &lane, int lanes, Dest dest, int64_t *alias);
    bool extends(int set);
    void emit_run(Dest dest);
    void emit_group(int w, const Tape *tapes, const Val *results, int lane0,
                    Dest dest);
    void bound(const Tape *tapes);

    // --- the two forms of every primitive ---
    int gpr_form(const Step &s, const Opnd &a, const Opnd &b,
                 const Opnd &c);
    int avx_form(int i, const Step &s, const Opnd &a, const Opnd &b,
                 const Opnd &c);
    int gather(int w, const int64_t *slots, int64_t stride);

    // scalar-tier helpers (one lane in a general-purpose register)
    Reg as_gpr(const Opnd &o);
    void wrap_gpr(Reg r, ScalarType t);
    void sat_gpr(Reg r, ScalarType t);

    // AVX2-tier helpers (four lanes in a ymm register)
    Vreg as_ymm(const Opnd &o);
    Mem pool(const std::array<int64_t, kChunk> &lanes);
    Mem splat(int64_t c) { return pool({c, c, c, c}); }
    void vop_any(VecOp op, Vreg dst, Vreg src1, const Opnd &src2);
    void wrap_avx(Vreg dst, Vreg src, ScalarType t);
    void sat_avx(Vreg dst, Vreg src, ScalarType t, Range v);
    void mul_avx(Vreg dst, Opnd a, Opnd b);
    void shift_avx(const Step &s, Vreg dst, const Opnd &v,
                   const Opnd &amount, Range pre);

    /**
     * m as the current run's loop body addresses it: `stride` slots
     * further on per iteration.
     */
    Mem
    iterate(Mem m, int64_t stride) const
    {
        if (looped_ && stride != 0) {
            m.index = kIndex;
            m.scale = static_cast<uint8_t>(stride * 8 / kGroupBytes);
        }
        return m;
    }

    int
    temp()
    {
        const int r = regs_.take();
        temps_.push_back(r);
        return r;
    }

    int32_t
    slot_disp(int64_t slot) const
    {
        const int64_t d = slot * 8;
        RAKE_CHECK(d >= 0 && d <= INT32_MAX, "arena exceeds disp32");
        return static_cast<int32_t>(d);
    }

    Assembler a_;
    SimdLevel simd_;
    int width_; ///< lanes per group: kChunk at AVX2, 1 at scalar
    bool used_avx_ = false;

    /**
     * Each node's arena run (lane 0's slot) and the offset of its
     * lanes in lane_slots_. Keyed by structure, so nodes an
     * s-expression parse rebuilt unshared get one slot run and are
     * emitted once, as they are counted once by the cost model.
     */
    struct Slots {
        int64_t run = 0;
        size_t lanes = 0;
    };
    std::unordered_map<const Instr *, Slots, StructuralHash,
                       StructuralEqual>
        slot_;
    /**
     * The slot holding each node's lane i: run + i, or for a swizzle
     * (every lane one operand lane) the operand slot it aliases.
     */
    std::vector<int64_t> lane_slots_;
    std::vector<ScalarType> slot_elem_; ///< element type of each slot
    std::vector<int64_t> copies_;
    std::vector<const Instr *> order_;
    int64_t num_slots_ = 0;
    std::vector<int64_t> pool_; ///< constants, in kChunk-lane groups
    std::unordered_map<std::array<int64_t, kChunk>, int64_t, LanesHash>
        pool_slot_;
    struct PoolEntry {
        std::array<int64_t, kChunk> lanes{};
        int64_t slot = -1;
    };
    std::array<PoolEntry, 32> pool_cache_{};

    std::map<int, int> buf_index_; ///< buffer id -> desc index
    std::vector<int> buf_ids_;
    std::map<int, ScalarType> load_elems_;
    std::vector<Program::SplatSite> splats_;

    // Recording and emitting lane groups. Two tape sets: while a run is
    // open its first group stays in set first_, and the group that may
    // extend it is recorded into the other.
    Tape *cur_ = nullptr; ///< the tape alg_ records to
    TapeLanes alg_;
    std::array<std::array<Tape, kChunk>, 2> tapes_{};
    std::array<std::array<Val, kChunk>, 2> results_{};
    int first_ = 0;
    /** The open run: its groups, and each Arg step's stride in slots. */
    struct Run {
        int lane0 = 0;
        int groups = 0;
        std::array<int64_t, Tape::kMax> stride{};
    };
    Run run_;
    bool looped_ = false; ///< emitting the body of run_'s loop
    std::array<Range, Tape::kMax> range_{}; ///< each step's values
    /** avg, navg, shl and lsr: the values before their own wrap. */
    std::array<Range, Tape::kMax> pre_{};
    /** The step whose register holds each value: itself, or for a
     *  dropped wrap or sat its operand's. */
    std::array<int, Tape::kMax> rep_{};
    std::array<int, Tape::kMax> uses_{}; ///< reads left of each step's value
    std::array<int, Tape::kMax> loc_{};  ///< register holding each value
    RegPool regs_;
    std::vector<int> temps_;
};

void
Lowerer::collect(const hvx::InstrPtr &n)
{
    if (!n || slot_.count(n.get()))
        return;
    for (const hvx::InstrPtr &arg : n->args())
        collect(arg);
    RAKE_USER_CHECK(n->op() != hvx::Opcode::Hole,
                    "jit: sketch holes cannot be compiled");
    // Runs start on a group boundary: with the arena 64-byte aligned,
    // no group access straddles a cache line.
    num_slots_ = (num_slots_ + kChunk - 1) / kChunk * kChunk;
    slot_.emplace(n.get(), Slots{num_slots_, lane_slots_.size()});
    for (int i = 0; i < n->type().lanes; ++i)
        lane_slots_.push_back(num_slots_ + i);
    slot_elem_.resize(num_slots_, ScalarType::Int64); // padding: never read
    num_slots_ += n->type().lanes;
    slot_elem_.resize(num_slots_, n->type().elem);
    order_.push_back(n.get());
    if (n->op() == hvx::Opcode::VRead) {
        const hir::LoadRef &r = n->load_ref();
        const ScalarType s = n->type().elem;
        auto it = load_elems_.find(r.buffer);
        if (it == load_elems_.end()) {
            load_elems_.emplace(r.buffer, s);
            buf_index_.emplace(r.buffer,
                               static_cast<int>(buf_ids_.size()));
            buf_ids_.push_back(r.buffer);
        } else {
            RAKE_USER_CHECK(it->second == s,
                            "jit: buffer " << r.buffer
                                           << " read at two element "
                                              "types");
        }
    }
    if (n->op() == hvx::Opcode::VSplat) {
        Program::SplatSite sp;
        sp.expr = n->splat_value();
        sp.slot = slot_.at(n.get()).run;
        sp.lanes = n->type().lanes;
        sp.elem = n->type().elem;
        splats_.push_back(std::move(sp));
    }
}

// ------------------------------------------------------------------
// Scalar-tier forms
// ------------------------------------------------------------------

Reg
Lowerer::as_gpr(const Opnd &o)
{
    if (o.is_reg())
        return gpr(o.reg);
    const Reg r = gpr(temp());
    a_.mov_imm64(r, o.lit[0]);
    return r;
}

void
Lowerer::wrap_gpr(Reg r, ScalarType t)
{
    const int b = bits(t);
    if (b == 64)
        return;
    a_.shl_imm(r, 64 - b);
    if (is_signed(t))
        a_.sar_imm(r, 64 - b);
    else
        a_.shr_imm(r, 64 - b);
}

void
Lowerer::sat_gpr(Reg r, ScalarType t)
{
    const Reg tmp = gpr(temp());
    a_.mov_imm64(tmp, min_value(t));
    a_.cmp(r, tmp);
    a_.cmov(Cond::l, r, tmp);
    a_.mov_imm64(tmp, max_value(t));
    a_.cmp(r, tmp);
    a_.cmov(Cond::g, r, tmp);
}

int
Lowerer::gpr_form(const Step &s, const Opnd &a, const Opnd &b,
                  const Opnd &c)
{
    const int d = regs_.take();
    const Reg dst = gpr(d);
    // Shift amounts are literals (HVX immediates), so arith.h's
    // out-of-range rules are settled here, at compile time.
    const int64_t n = b.lit[0];
    auto binary = [&](void (Assembler::*op)(Reg, Reg)) {
        const Reg rb = as_gpr(b);
        a_.mov(dst, as_gpr(a));
        (a_.*op)(dst, rb);
    };
    auto compare = [&](Cond cc, const Opnd &x, const Opnd &y) {
        const Reg rx = as_gpr(x);
        const Reg ry = as_gpr(y);
        a_.xor_(dst, dst);
        a_.cmp(rx, ry);
        a_.setcc(cc, dst);
    };
    switch (s.prim) {
      case Prim::Arg:
        break;
      case Prim::Wrap:
        a_.mov(dst, as_gpr(a));
        wrap_gpr(dst, s.type);
        return d;
      case Prim::Sat:
        a_.mov(dst, as_gpr(a));
        sat_gpr(dst, s.type);
        return d;
      case Prim::Add:
        binary(&Assembler::add);
        return d;
      case Prim::Sub:
        binary(&Assembler::sub);
        return d;
      case Prim::Mul:
        binary(&Assembler::imul);
        return d;
      case Prim::And:
        binary(&Assembler::and_);
        return d;
      case Prim::Or:
        binary(&Assembler::or_);
        return d;
      case Prim::Xor:
        binary(&Assembler::xor_);
        return d;
      case Prim::Avg:
      case Prim::Navg:
        binary(s.prim == Prim::Avg ? &Assembler::add : &Assembler::sub);
        if (s.round)
            a_.add_imm32(dst, 1);
        a_.sar_imm(dst, 1);
        wrap_gpr(dst, s.type);
        return d;
      case Prim::Absd: {
        const Reg ra = as_gpr(a);
        const Reg rb = as_gpr(b);
        const Reg t = gpr(temp());
        a_.mov(dst, ra);
        a_.sub(dst, rb); // a - b
        a_.mov(t, rb);
        a_.sub(t, ra); // b - a
        a_.cmp(ra, rb);
        a_.cmov(Cond::le, dst, t);
        return d;
      }
      case Prim::Min:
      case Prim::Max: {
        const Reg rb = as_gpr(b);
        a_.mov(dst, as_gpr(a));
        a_.cmp(dst, rb);
        a_.cmov(s.prim == Prim::Min ? Cond::g : Cond::l, dst, rb);
        return d;
      }
      case Prim::Gt:
        compare(Cond::g, a, b);
        return d;
      case Prim::Eq:
        compare(Cond::e, a, b);
        return d;
      case Prim::Select: {
        const Reg rc = as_gpr(a);
        const Reg rt = as_gpr(b);
        a_.mov(dst, as_gpr(c));
        a_.test(rc, rc);
        a_.cmov(Cond::ne, dst, rt);
        return d;
      }
      case Prim::Not:
        a_.mov(dst, as_gpr(a));
        a_.not_(dst);
        return d;
      case Prim::Shl:
        RAKE_CHECK(!b.is_reg(), "jit: shift amounts must be literals");
        a_.mov(dst, as_gpr(a));
        if (n >= 64) {
            a_.xor_(dst, dst);
            return d;
        }
        if (n > 0)
            a_.shl_imm(dst, static_cast<int>(n));
        wrap_gpr(dst, s.type);
        return d;
      case Prim::Asr:
        RAKE_CHECK(!b.is_reg(), "jit: shift amounts must be literals");
        a_.mov(dst, as_gpr(a));
        if (n <= 0)
            return d;
        if (n >= 63) {
            a_.sar_imm(dst, 63); // collapses to the sign, no rounding
            return d;
        }
        if (s.round) {
            // The rounding add wraps like arith.h's uint64_t carrier.
            const Reg t = gpr(temp());
            a_.mov_imm64(t, static_cast<int64_t>(uint64_t{1} << (n - 1)));
            a_.add(dst, t);
        }
        a_.sar_imm(dst, static_cast<int>(n));
        return d;
      case Prim::Lsr: {
        RAKE_CHECK(!b.is_reg(), "jit: shift amounts must be literals");
        const int w = bits(s.type);
        a_.mov(dst, as_gpr(a));
        if (n >= w) {
            a_.xor_(dst, dst);
            return d;
        }
        if (n > 0) {
            if (w < 64) { // zero-fill down to the type's width first
                a_.shl_imm(dst, 64 - w);
                a_.shr_imm(dst, 64 - w);
            }
            a_.shr_imm(dst, static_cast<int>(n));
        }
        wrap_gpr(dst, s.type);
        return d;
      }
    }
    RAKE_UNREACHABLE("bad primitive");
}

// ------------------------------------------------------------------
// AVX2-tier forms
// ------------------------------------------------------------------

Mem
Lowerer::pool(const std::array<int64_t, kChunk> &lanes)
{
    // A direct-mapped cache in front of the map: a node's groups reuse
    // a handful of constants.
    PoolEntry &hit = pool_cache_[LanesHash{}(lanes) % pool_cache_.size()];
    if (hit.slot < 0 || hit.lanes != lanes) {
        auto it = pool_slot_.find(lanes);
        if (it == pool_slot_.end()) {
            const int64_t slot =
                num_slots_ + static_cast<int64_t>(pool_.size());
            pool_.insert(pool_.end(), lanes.begin(), lanes.end());
            it = pool_slot_.emplace(lanes, slot).first;
        }
        hit = PoolEntry{lanes, it->second};
    }
    return Mem{kArena, slot_disp(hit.slot)};
}

Vreg
Lowerer::as_ymm(const Opnd &o)
{
    if (o.is_reg())
        return ymm(o.reg);
    const Vreg r = ymm(temp());
    a_.vmovdqu(r, pool(o.lit));
    return r;
}

void
Lowerer::vop_any(VecOp op, Vreg dst, Vreg src1, const Opnd &src2)
{
    if (src2.is_reg())
        a_.vop(op, dst, src1, ymm(src2.reg));
    else
        a_.vop(op, dst, src1, pool(src2.lit));
}

void
Lowerer::wrap_avx(Vreg dst, Vreg src, ScalarType t)
{
    // ((v & mask) ^ sign) - sign sign-extends the low bits(t) bits.
    const int b = bits(t);
    if (b == 64) {
        if (dst != src)
            a_.vmovdqa(dst, src);
        return;
    }
    a_.vop(VecOp::pand, dst, src,
           splat(static_cast<int64_t>((uint64_t{1} << b) - 1)));
    if (is_signed(t)) {
        const Mem sign = splat(static_cast<int64_t>(uint64_t{1} << (b - 1)));
        a_.vop(VecOp::pxor, dst, dst, sign);
        a_.vop(VecOp::psubq, dst, dst, sign);
    }
}

void
Lowerer::sat_avx(Vreg dst, Vreg src, ScalarType t, Range v)
{
    // v < lo ? lo : v, then > hi ? hi : v, as saturate() tests them. A
    // side no value of v reaches emits nothing; a side whose operands
    // fit one dword domain is one dword max or min.
    const int64_t lo = min_value(t);
    const int64_t hi = max_value(t);
    Vreg cur = src;
    if (v.lo < lo) {
        if (const auto op = dword_form(Prim::Max, v, point(lo))) {
            a_.vop(*op, dst, cur, splat(lo));
        } else {
            const Vreg bound = ymm(temp());
            const Vreg mask = ymm(temp());
            a_.vmovdqu(bound, splat(lo));
            a_.vop(VecOp::pcmpgtq, mask, bound, cur);
            a_.vpblendvb(dst, cur, bound, mask);
        }
        cur = dst;
        v = {lo, std::max(v.hi, lo)};
    }
    if (v.hi > hi) {
        const Mem bound = splat(hi);
        if (const auto op = dword_form(Prim::Min, v, point(hi))) {
            a_.vop(*op, dst, cur, bound);
        } else {
            const Vreg mask = ymm(temp());
            a_.vop(VecOp::pcmpgtq, mask, cur, bound);
            a_.vpblendvb(dst, cur, bound, mask);
        }
        cur = dst;
    }
    if (cur != dst)
        a_.vmovdqa(dst, cur);
}

void
Lowerer::mul_avx(Vreg dst, Opnd a, Opnd b)
{
    // The low 64 bits of a * b from 32 x 32 -> 64 products:
    // lo(a) lo(b) + ((hi(a) lo(b) + lo(a) hi(b)) << 32).
    if (!a.is_reg() && b.is_reg())
        std::swap(a, b);
    // Factors that fit one dword domain: one widening dword multiply.
    if (a.range.s32() && b.range.s32()) {
        vop_any(VecOp::pmuldq, dst, as_ymm(a), b);
        return;
    }
    if (a.range.u32() && b.range.u32()) {
        vop_any(VecOp::pmuludq, dst, as_ymm(a), b);
        return;
    }
    const Vreg va = as_ymm(a);
    const Vreg cross = ymm(temp());
    vop_any(VecOp::pmuludq, dst, va, b);
    a_.vpsrlq(cross, va, 32);
    vop_any(VecOp::pmuludq, cross, cross, b);
    const Vreg t = ymm(temp());
    if (b.is_reg()) {
        a_.vpsrlq(t, ymm(b.reg), 32);
        a_.vop(VecOp::pmuludq, t, t, va);
        a_.vop(VecOp::paddq, cross, cross, t);
    } else {
        std::array<int64_t, kChunk> hi;
        for (int l = 0; l < kChunk; ++l)
            hi[l] = static_cast<int64_t>(static_cast<uint64_t>(b.lit[l]) >>
                                         32);
        if (hi != std::array<int64_t, kChunk>{}) {
            a_.vop(VecOp::pmuludq, t, va, pool(hi));
            a_.vop(VecOp::paddq, cross, cross, t);
        }
    }
    a_.vpsllq(cross, cross, 32);
    a_.vop(VecOp::paddq, dst, dst, cross);
}

void
Lowerer::shift_avx(const Step &s, Vreg dst, const Opnd &v,
                   const Opnd &amount, Range pre)
{
    RAKE_CHECK(!amount.is_reg(), "jit: shift amounts must be literals");
    // arith.h's out-of-range rules, settled per lane at compile time:
    // every amount becomes a count in [0, 64) for one shift form.
    const std::array<int64_t, kChunk> &n = amount.lit;
    const int w = s.prim == Prim::Lsr ? bits(s.type) : 64;
    const bool none = std::all_of(n.begin(), n.end(),
                                  [](int64_t k) { return k <= 0; });
    const bool all = std::all_of(n.begin(), n.end(), [&](int64_t k) {
        return k >= (s.prim == Prim::Asr ? 64 : w);
    });
    const Vreg src = as_ymm(v);
    // dst = wrap(type, from), unless no value before the wrap (pre)
    // leaves the type.
    auto rewrap = [&](Vreg from) {
        if (!pre.within(of_type(s.type)))
            wrap_avx(dst, from, s.type);
        else if (dst != from)
            a_.vmovdqa(dst, from);
    };
    if (all && s.prim != Prim::Asr) {
        a_.vop(VecOp::pxor, dst, dst, dst);
        return;
    }
    if (none && s.prim != Prim::Lsr) {
        if (s.prim == Prim::Asr)
            a_.vmovdqa(dst, src);
        else
            rewrap(src);
        return;
    }
    std::array<int64_t, kChunk> count;
    for (int l = 0; l < kChunk; ++l)
        count[l] = std::clamp<int64_t>(n[l], 0, s.prim == Prim::Asr ? 63 : 64);
    const bool uniform =
        std::all_of(count.begin(), count.end(),
                    [&](int64_t k) { return k == count[0]; });
    // dst = from shifted by the counts.
    auto shift = [&](bool left, Vreg from) {
        if (uniform && count[0] == 0) {
            if (dst != from)
                a_.vmovdqa(dst, from);
        } else if (uniform) {
            const int k = static_cast<int>(count[0]);
            left ? a_.vpsllq(dst, from, k) : a_.vpsrlq(dst, from, k);
        } else {
            a_.vop(left ? VecOp::psllvq : VecOp::psrlvq, dst, from,
                   pool(count));
        }
    };
    if (s.prim == Prim::Shl) {
        shift(true, src);
        rewrap(dst);
        return;
    }
    if (s.prim == Prim::Lsr) {
        // Zero-fill down to the type's width (unless every value is
        // inside it already), shift, rewrap.
        Vreg from = src;
        const int64_t mask =
            w < 64 ? static_cast<int64_t>((uint64_t{1} << w) - 1) : -1;
        if (w < 64 && !v.range.within(0, mask)) {
            a_.vop(VecOp::pand, dst, src, splat(mask));
            from = dst;
        }
        shift(false, from);
        rewrap(dst);
        return;
    }
    // Arithmetic shift right, which AVX2 lacks for 64-bit lanes:
    // srl(v ^ m, n) - (m >> n) with m = 2^63. A count of 63 collapses
    // to the sign; rounding adds 1 << (n - 1) for 0 < n < 63 only.
    std::array<int64_t, kChunk> rnd{}, bias;
    const uint64_t m = uint64_t{1} << 63;
    for (int l = 0; l < kChunk; ++l) {
        if (s.round && n[l] > 0 && n[l] < 63)
            rnd[l] = static_cast<int64_t>(uint64_t{1} << (n[l] - 1));
        bias[l] = static_cast<int64_t>(m >> count[l]);
    }
    Vreg cur = src;
    if (rnd != std::array<int64_t, kChunk>{}) {
        a_.vop(VecOp::paddq, dst, cur, pool(rnd));
        cur = dst;
    }
    if (pre.lo >= 0) {
        // Every rounded value is non-negative: a logical shift.
        shift(false, cur);
        return;
    }
    a_.vop(VecOp::pxor, dst, cur, splat(static_cast<int64_t>(m)));
    shift(false, dst);
    a_.vop(VecOp::psubq, dst, dst, pool(bias));
}

int
Lowerer::avx_form(int i, const Step &s, const Opnd &a, const Opnd &b,
                  const Opnd &c)
{
    const int d = regs_.take();
    const Vreg dst = ymm(d);
    if (s.prim == Prim::Min || s.prim == Prim::Max) {
        if (const auto op = dword_form(s.prim, a.range, b.range)) {
            vop_any(*op, dst, as_ymm(a), b);
            return d;
        }
    }
    switch (s.prim) {
      case Prim::Arg:
        break;
      case Prim::Wrap:
        wrap_avx(dst, as_ymm(a), s.type);
        return d;
      case Prim::Sat:
        sat_avx(dst, as_ymm(a), s.type, a.range);
        return d;
      case Prim::Add:
        vop_any(VecOp::paddq, dst, as_ymm(a), b);
        return d;
      case Prim::Sub:
        vop_any(VecOp::psubq, dst, as_ymm(a), b);
        return d;
      case Prim::Mul:
        mul_avx(dst, a, b);
        return d;
      case Prim::And:
        vop_any(VecOp::pand, dst, as_ymm(a), b);
        return d;
      case Prim::Or:
        vop_any(VecOp::por, dst, as_ymm(a), b);
        return d;
      case Prim::Xor:
        vop_any(VecOp::pxor, dst, as_ymm(a), b);
        return d;
      case Prim::Avg:
      case Prim::Navg: {
        // (a +- b (+ 1)) >> 1, arithmetic (logical where no sum is
        // negative), then wrap unless every halved sum is in the type.
        vop_any(s.prim == Prim::Avg ? VecOp::paddq : VecOp::psubq, dst,
                as_ymm(a), b);
        if (s.round)
            a_.vop(VecOp::paddq, dst, dst, splat(1));
        if (pre_[i].lo >= 0) {
            a_.vpsrlq(dst, dst, 1);
        } else {
            const uint64_t m = uint64_t{1} << 63;
            a_.vop(VecOp::pxor, dst, dst, splat(static_cast<int64_t>(m)));
            a_.vpsrlq(dst, dst, 1);
            a_.vop(VecOp::psubq, dst, dst,
                   splat(static_cast<int64_t>(m >> 1)));
        }
        if (!pre_[i].within(of_type(s.type)))
            wrap_avx(dst, dst, s.type);
        return d;
      }
      case Prim::Absd: {
        const Vreg va = as_ymm(a);
        const Vreg vb = as_ymm(b);
        const Vreg gt = ymm(temp());
        const Vreg diff = ymm(temp());
        a_.vop(VecOp::pcmpgtq, gt, va, vb);
        a_.vop(VecOp::psubq, diff, va, vb);
        a_.vop(VecOp::psubq, dst, vb, va);
        a_.vpblendvb(dst, dst, diff, gt);
        return d;
      }
      case Prim::Min: {
        // a > b ? b : a
        const Vreg va = as_ymm(a);
        const Vreg gt = ymm(temp());
        vop_any(VecOp::pcmpgtq, gt, va, b);
        if (b.is_reg())
            a_.vpblendvb(dst, va, ymm(b.reg), gt);
        else
            a_.vpblendvb(dst, va, pool(b.lit), gt);
        return d;
      }
      case Prim::Max: {
        // a > b ? a : b
        const Vreg va = as_ymm(a);
        const Vreg vb = as_ymm(b);
        const Vreg gt = ymm(temp());
        a_.vop(VecOp::pcmpgtq, gt, va, vb);
        a_.vpblendvb(dst, vb, va, gt);
        return d;
      }
      case Prim::Gt:
      case Prim::Eq:
        // All-ones/zero masks become 1/0.
        vop_any(s.prim == Prim::Gt ? VecOp::pcmpgtq : VecOp::pcmpeqq, dst,
                as_ymm(a), b);
        a_.vpsrlq(dst, dst, 63);
        return d;
      case Prim::Select: {
        // cond == 0 ? else : then
        const Vreg zero = ymm(temp());
        a_.vop(VecOp::pcmpeqq, zero, as_ymm(a), splat(0));
        if (c.is_reg())
            a_.vpblendvb(dst, as_ymm(b), ymm(c.reg), zero);
        else
            a_.vpblendvb(dst, as_ymm(b), pool(c.lit), zero);
        return d;
      }
      case Prim::Not:
        a_.vop(VecOp::pxor, dst, as_ymm(a), splat(-1));
        return d;
      case Prim::Shl:
      case Prim::Asr:
      case Prim::Lsr:
        shift_avx(s, dst, a, b, pre_[i]);
        return d;
    }
    RAKE_UNREACHABLE("bad primitive");
}

// ------------------------------------------------------------------
// Gathers, lane groups, leaves
// ------------------------------------------------------------------

int
Lowerer::gather(int w, const int64_t *slots, int64_t stride)
{
    const int d = regs_.take();
    if (w == 1) {
        a_.load(gpr(d), kArena, slot_disp(slots[0]));
        return d;
    }
    auto at = [&](int64_t slot) {
        return iterate(Mem{kArena, slot_disp(slot)}, stride);
    };
    const Vreg dst = ymm(d);
    if (slots[1] == slots[0] + 1 && slots[2] == slots[0] + 2 &&
        slots[3] == slots[0] + 3) {
        a_.vmovdqu(dst, at(slots[0]));
        return d;
    }
    // Cover the lanes with 4-slot windows, each starting at the lowest
    // slot not yet covered. The arena's last group of padding keeps
    // every window inside it.
    struct Window {
        int64_t base;
        uint8_t perm = 0;  ///< vpermq fields for the lanes it covers
        uint8_t lanes = 0; ///< bit l: lane l comes from this window
    };
    Window windows[kChunk];
    int num_windows = 0;
    uint8_t covered = 0;
    while (covered != (1u << kChunk) - 1) {
        int64_t base = INT64_MAX;
        for (int l = 0; l < kChunk; ++l)
            if (!(covered & (1u << l)))
                base = std::min(base, slots[l]);
        Window win{base};
        for (int l = 0; l < kChunk; ++l) {
            if (slots[l] >= base && slots[l] < base + kChunk) {
                win.lanes |= static_cast<uint8_t>(1u << l);
                win.perm |= static_cast<uint8_t>((slots[l] - base) << (2 * l));
            }
        }
        covered |= win.lanes;
        windows[num_windows++] = win;
    }
    auto load = [&](Vreg r, const Window &win) {
        bool identity = true;
        for (int l = 0; l < kChunk; ++l)
            if ((win.lanes & (1u << l)) && slots[l] != win.base + l)
                identity = false;
        if (identity)
            a_.vmovdqu(r, at(win.base));
        else
            a_.vpermq(r, at(win.base), win.perm);
    };
    if (num_windows == 1) {
        load(dst, windows[0]);
    } else if (num_windows == 2) {
        const Vreg t = ymm(temp());
        load(dst, windows[0]);
        load(t, windows[1]);
        uint8_t dwords = 0;
        for (int l = 0; l < kChunk; ++l)
            if (windows[1].lanes & (1u << l))
                dwords |= static_cast<uint8_t>(3u << (2 * l));
        a_.vpblendd(dst, dst, t, dwords);
    } else {
        const Vreg t = ymm(temp());
        a_.vmovq(dst, at(slots[0]));
        a_.vpinsrq(dst, dst, at(slots[1]), 1);
        a_.vmovq(t, at(slots[2]));
        a_.vpinsrq(t, t, at(slots[3]), 1);
        a_.vinserti128(dst, dst, t, 1);
    }
    return d;
}

void
Lowerer::bound(const Tape *tapes)
{
    const Tape &t = tapes[0];
    // A literal operand's values over the group's lanes, or f of them.
    auto lanes = [&](int32_t r, auto f) {
        Range out = f(tapes[0].lits[~r]);
        for (int l = 1; l < kChunk; ++l)
            out = hull(out, f(tapes[l].lits[~r]));
        return out;
    };
    auto in = [&](int32_t r) {
        if (r >= 0)
            return range_[r];
        if (r == kNoOperand)
            return Range{};
        return lanes(r, point);
    };
    for (int i = 0; i < t.num_steps; ++i) {
        const Step &s = t.steps[i];
        const Range a = s.prim == Prim::Arg ? Range{} : in(s.a);
        const Range b = in(s.b);
        const int64_t r = s.round ? 1 : 0;
        Range out;
        rep_[i] = i;
        switch (s.prim) {
          case Prim::Arg: {
            // Every slot any iteration of the run reads.
            const int64_t stride = looped_ ? run_.stride[i] : 0;
            const int iters = stride != 0 ? run_.groups : 1;
            out = lanes(s.a, [&](int64_t slot) {
                Range u = of_type(slot_elem_[slot]);
                for (int j = 1; j < iters; ++j)
                    u = hull(u, of_type(slot_elem_[slot + j * stride]));
                return u;
            });
            break;
          }
          case Prim::Wrap:
            out = wrapped(s.type, a);
            if (s.a >= 0 && a.within(of_type(s.type)))
                rep_[i] = rep_[s.a];
            break;
          case Prim::Sat: {
            const int64_t lo = min_value(s.type);
            const int64_t hi = max_value(s.type);
            out = {std::clamp(a.lo, lo, hi), std::clamp(a.hi, lo, hi)};
            if (s.a >= 0 && a.within(lo, hi))
                rep_[i] = rep_[s.a];
            break;
          }
          case Prim::Add:
            out = exact(Wide{a.lo} + b.lo, Wide{a.hi} + b.hi);
            break;
          case Prim::Sub:
            out = exact(Wide{a.lo} - b.hi, Wide{a.hi} - b.lo);
            break;
          case Prim::Mul: {
            const Wide p[] = {Wide{a.lo} * b.lo, Wide{a.lo} * b.hi,
                              Wide{a.hi} * b.lo, Wide{a.hi} * b.hi};
            out = exact(*std::min_element(p, p + 4),
                        *std::max_element(p, p + 4));
            break;
          }
          case Prim::Avg:
          case Prim::Navg: {
            // The sum (difference) wraps in the carrier where it leaves
            // int64; the whole range then halves to a superset.
            const Range sum =
                s.prim == Prim::Avg
                    ? exact(Wide{a.lo} + b.lo + r, Wide{a.hi} + b.hi + r)
                    : exact(Wide{a.lo} - b.hi + r, Wide{a.hi} - b.lo + r);
            pre_[i] = {sum.lo >> 1, sum.hi >> 1};
            out = wrapped(s.type, pre_[i]);
            break;
          }
          case Prim::Absd: {
            const Wide lo = Wide{a.lo} - b.hi;
            const Wide hi = Wide{a.hi} - b.lo;
            out = exact(0, std::max(lo < 0 ? -lo : lo, hi < 0 ? -hi : hi));
            break;
          }
          case Prim::Min:
            out = {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
            break;
          case Prim::Max:
            out = {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
            break;
          case Prim::Gt:
          case Prim::Eq:
            out = {0, 1};
            break;
          case Prim::Select:
            out = hull(b, in(s.c));
            break;
          case Prim::And:
          case Prim::Or:
          case Prim::Xor:
            out = bitwise(s.prim, a, b);
            break;
          case Prim::Not:
            out = {~a.hi, ~a.lo};
            break;
          case Prim::Shl:
          case Prim::Asr:
          case Prim::Lsr: {
            if (s.b >= 0) // not a literal: emission refuses it
                break;
            const int w = bits(s.type);
            // Lsr zero-fills down to the type's width first (unless
            // every value is inside it already), whatever the amount.
            const int64_t mask = static_cast<int64_t>(
                w < 64 ? (uint64_t{1} << w) - 1 : ~uint64_t{0});
            const Range u = w == 64 || a.within(0, mask) ? a : Range{0, mask};
            out = lanes(s.b, [&](int64_t n) -> Range {
                if (s.prim == Prim::Shl) {
                    if (n <= 0)
                        return a;
                    if (n >= 64)
                        return point(0);
                    const Wide k = Wide{1} << n;
                    return exact(Wide{a.lo} * k, Wide{a.hi} * k);
                }
                if (s.prim == Prim::Lsr) {
                    if (n <= 0)
                        return u;
                    if (n >= w)
                        return point(0);
                    if (u.lo < 0) // a 64-bit pattern, read unsigned
                        return {0, static_cast<int64_t>(~uint64_t{0} >> n)};
                    return {u.lo >> n, u.hi >> n};
                }
                if (n <= 0)
                    return a;
                if (n >= 63)
                    return {a.lo < 0 ? -1 : 0, a.hi < 0 ? -1 : 0};
                const int64_t rnd = s.round ? int64_t{1} << (n - 1) : 0;
                const Range v = exact(Wide{a.lo} + rnd, Wide{a.hi} + rnd);
                return {v.lo >> n, v.hi >> n};
            });
            if (s.prim != Prim::Asr) {
                pre_[i] = out;
                out = wrapped(s.type, out);
            }
            break;
          }
        }
        range_[i] = out;
        if (s.prim != Prim::Avg && s.prim != Prim::Navg &&
            s.prim != Prim::Shl && s.prim != Prim::Lsr)
            pre_[i] = out;
    }
}

void
Lowerer::emit_group(int w, const Tape *tapes, const Val *results,
                    int lane0, Dest dest)
{
    const int num_steps = tapes[0].num_steps;
    const Step *steps = tapes[0].steps.data();
    regs_ = RegPool(w == 1 ? kScratchGprs : kAllYmms);
    if (w == kChunk) {
        bound(tapes);
    } else {
        for (int i = 0; i < num_steps; ++i)
            rep_[i] = i;
    }
    // Reads are counted on the step whose register holds the value.
    std::fill_n(uses_.begin(), num_steps, 0);
    for (int i = 0; i < num_steps; ++i)
        if (rep_[i] == i)
            for (int32_t r : {steps[i].a, steps[i].b, steps[i].c})
                if (r >= 0)
                    ++uses_[rep_[r]];
    if (!results[0].is_lit())
        ++uses_[rep_[results[0].step]];

    // An operand across the group: a register, or its literal lanes.
    auto opnd = [&](int32_t r) {
        Opnd o;
        if (r == kNoOperand)
            return o;
        if (r >= 0) {
            o.reg = loc_[rep_[r]];
            if (w == kChunk)
                o.range = range_[r];
            return o;
        }
        for (int l = 0; l < kChunk; ++l)
            o.lit[l] = tapes[l < w ? l : 0].lits[~r];
        o.range = {*std::min_element(o.lit.begin(), o.lit.end()),
                   *std::max_element(o.lit.begin(), o.lit.end())};
        return o;
    };
    auto release = [&](int32_t r) {
        if (r >= 0 && --uses_[rep_[r]] == 0)
            regs_.give(loc_[rep_[r]]);
    };

    for (int i = 0; i < num_steps; ++i) {
        const Step &s = steps[i];
        if (rep_[i] != i)
            continue; // a dropped wrap or sat: no code
        if (s.prim == Prim::Arg) {
            int64_t slots[kChunk];
            for (int l = 0; l < w; ++l)
                slots[l] = tapes[l].lits[~s.a];
            loc_[i] = gather(w, slots, looped_ ? run_.stride[i] : 0);
        } else {
            const Opnd a = opnd(s.a);
            const Opnd b = opnd(s.b);
            const Opnd c = opnd(s.c);
            loc_[i] =
                w == 1 ? gpr_form(s, a, b, c) : avx_form(i, s, a, b, c);
            release(s.a);
            release(s.b);
            release(s.c);
        }
        for (int t : temps_)
            regs_.give(t);
        temps_.clear();
        if (uses_[i] == 0)
            regs_.give(loc_[i]);
    }

    Opnd r;
    if (results[0].is_lit()) {
        for (int l = 0; l < kChunk; ++l)
            r.lit[l] = results[l < w ? l : 0].lit;
    } else {
        r.reg = loc_[rep_[results[0].step]];
    }
    if (w == 1)
        a_.store(dest.base, dest.lane(lane0).disp, as_gpr(r));
    else
        a_.vmovdqu(iterate(dest.lane(lane0), kChunk), as_ymm(r));
    temps_.clear();
}

bool
Lowerer::extends(int set)
{
    // The candidate is group j of the run: the same shape and literals,
    // each operand read j strides past the first group's.
    const Tape *first = tapes_[first_].data();
    const Tape *next = tapes_[set].data();
    const Val *first_res = results_[first_].data();
    const Val *next_res = results_[set].data();
    if (!same_shape(first[0], first_res[0], next[0], next_res[0]))
        return false;
    const int j = run_.groups;
    for (int i = 0; i < first[0].num_steps; ++i) {
        const Step &s = first[0].steps[i];
        if (s.prim != Prim::Arg) {
            for (int32_t r : {s.a, s.b, s.c})
                if (r < 0 && r != kNoOperand)
                    for (int l = 0; l < kChunk; ++l)
                        if (next[l].lits[~r] != first[l].lits[~r])
                            return false;
            continue;
        }
        const int64_t d = next[0].lits[~s.a] - first[0].lits[~s.a];
        for (int l = 1; l < kChunk; ++l)
            if (next[l].lits[~s.a] - first[l].lits[~s.a] != d)
                return false;
        if (j == 1) {
            if (d != 0 && d != 4 && d != 8 && d != 16 && d != 32)
                return false;
            run_.stride[i] = d;
        } else if (d != j * run_.stride[i]) {
            return false;
        }
    }
    if (first_res[0].is_lit())
        for (int l = 0; l < kChunk; ++l)
            if (next_res[l].lit != first_res[l].lit)
                return false;
    return true;
}

void
Lowerer::emit_run(Dest dest)
{
    const Tape *tapes = tapes_[first_].data();
    const Val *results = results_[first_].data();
    used_avx_ = true;
    if (run_.groups == 1) {
        emit_group(kChunk, tapes, results, run_.lane0, dest);
    } else {
        a_.xor_(kIndex, kIndex);
        const size_t top = a_.size();
        looped_ = true;
        emit_group(kChunk, tapes, results, run_.lane0, dest);
        looped_ = false;
        a_.add_imm32(kIndex, kGroupBytes);
        a_.cmp_imm32(kIndex, kGroupBytes * run_.groups);
        a_.jcc_back(Cond::l, top);
    }
    run_.groups = 0;
}

template <typename Lane>
void
Lowerer::emit_lanes(const Lane &lane, int lanes, Dest dest, int64_t *alias)
{
    // Record lanes i..i+n-1 into tape set k; true when they all have
    // lane i's shape.
    auto record = [&](int k, int i, int n) {
        bool uniform = true;
        for (int l = 0; l < n; ++l) {
            cur_ = &tapes_[k][l];
            cur_->clear();
            results_[k][l] = lane(i + l);
            uniform = uniform && same_shape(tapes_[k][0], results_[k][0],
                                            tapes_[k][l], results_[k][l]);
        }
        return uniform;
    };
    // A swizzle, every lane of which is one operand lane, gets no code:
    // its lanes alias the slots they read.
    if (alias != nullptr) {
        copies_.clear();
        for (int i = 0; i < lanes; ++i) {
            record(0, i, 1);
            const Tape &t = tapes_[0][0];
            if (t.num_steps != 1 || t.steps[0].prim != Prim::Arg ||
                results_[0][0].step != 0)
                break;
            copies_.push_back(t.lits[0]);
        }
        if (static_cast<int>(copies_.size()) == lanes) {
            std::copy(copies_.begin(), copies_.end(), alias);
            return;
        }
    }
    int i = 0;
    run_.groups = 0;
    for (; width_ > 1 && i + width_ <= lanes; i += width_) {
        // An open run keeps its first group in set first_.
        const int k = run_.groups > 0 ? 1 - first_ : first_;
        const bool uniform = record(k, i, width_);
        if (run_.groups > 0) {
            if (uniform && extends(k)) {
                ++run_.groups;
                continue;
            }
            emit_run(dest);
        }
        if (uniform) {
            first_ = k;
            run_.lane0 = i;
            run_.groups = 1;
            continue;
        }
        for (int l = 0; l < width_; ++l)
            emit_group(1, &tapes_[k][l], &results_[k][l], i + l, dest);
    }
    if (run_.groups > 0)
        emit_run(dest);
    for (; i < lanes; ++i) {
        record(0, i, 1);
        emit_group(1, tapes_[0].data(), results_[0].data(), i, dest);
    }
}

void
Lowerer::emit_node(const Instr &n, Dest dest, int64_t *alias)
{
    const int64_t *src[3] = {};
    int lanes[3] = {};
    for (int k = 0; k < n.num_args() && k < 3; ++k) {
        src[k] = &lane_slots_[slot_.at(n.arg(k).get()).lanes];
        lanes[k] = n.arg(k)->type().lanes;
    }
    const auto arg = [&](int k, int j) {
        RAKE_CHECK(k >= 0 && k < n.num_args() && j >= 0 && j < lanes[k],
                   "jit: lane " << j << " of operand " << k
                                << " out of range");
        return alg_.read(src[k][j]);
    };
    hvx::lane_semantics(alg_, n, arg, [&](const auto &lane) {
        emit_lanes(lane, n.type().lanes, dest, alias);
    });
}

void
Lowerer::emit_vread(const Instr &n, Dest dest)
{
    const hir::LoadRef &r = n.load_ref();
    const ScalarType s = n.type().elem;
    const int L = n.type().lanes;
    const int32_t dbase =
        buf_index_.at(r.buffer) * static_cast<int32_t>(sizeof(BufferDesc));

    a_.load(Reg::rsi, kBufs, dbase + 8);  // width
    a_.load(Reg::rdx, kBufs, dbase + 16); // height
    // iy = clamp(y + dy - y0, 0, height - 1)
    a_.mov(Reg::rax, kY);
    if (r.dy != 0)
        a_.add_imm32(Reg::rax, r.dy);
    a_.load(Reg::rcx, kBufs, dbase + 32); // y0
    a_.sub(Reg::rax, Reg::rcx);
    a_.xor_(Reg::rcx, Reg::rcx);
    a_.cmp(Reg::rax, Reg::rcx);
    a_.cmov(Cond::l, Reg::rax, Reg::rcx);
    a_.lea(Reg::rcx, Reg::rdx, -1);
    a_.cmp(Reg::rax, Reg::rcx);
    a_.cmov(Cond::g, Reg::rax, Reg::rcx);
    // r9 = data + iy * width * 8
    a_.imul(Reg::rax, Reg::rsi);
    a_.load(Reg::r9, kBufs, dbase + 0);
    a_.lea_index8(Reg::r9, Reg::r9, Reg::rax);
    // r10 = ix = x + dx - x0
    a_.mov(Reg::r10, kX);
    if (r.dx != 0)
        a_.add_imm32(Reg::r10, r.dx);
    a_.load(Reg::rcx, kBufs, dbase + 24); // x0
    a_.sub(Reg::r10, Reg::rcx);

    // Interior tile (0 <= ix and ix + L <= width): no per-lane clamp.
    a_.cmp_imm32(Reg::r10, 0);
    const size_t left_edge = a_.jcc_forward(Cond::l);
    a_.lea(Reg::rax, Reg::r10, L);
    a_.cmp(Reg::rax, Reg::rsi);
    const size_t right_edge = a_.jcc_forward(Cond::g);
    int i = 0;
    for (; width_ > 1 && i + width_ <= L; i += width_) {
        used_avx_ = true;
        a_.vmovdqu(Vreg::ymm0, Mem{Reg::r9, 8 * i, Reg::r10, 8});
        wrap_avx(Vreg::ymm0, Vreg::ymm0, s);
        a_.vmovdqu(dest.lane(i), Vreg::ymm0);
    }
    for (; i < L; ++i) {
        a_.load_index8(Reg::rax, Reg::r9, Reg::r10, 8 * i);
        wrap_gpr(Reg::rax, s);
        a_.store(dest.base, dest.lane(i).disp, Reg::rax);
    }
    const size_t done = a_.jmp_forward();

    // Edge tile: a loop over the lanes (rdx = lane) clamps each
    // column into the row.
    a_.land(left_edge);
    a_.land(right_edge);
    a_.lea(Reg::r8, Reg::rsi, -1); // r8 = width - 1; rcx = 0
    a_.xor_(Reg::rcx, Reg::rcx);
    a_.xor_(Reg::rdx, Reg::rdx);
    const size_t lane = a_.size();
    a_.mov(Reg::rax, Reg::r10);
    a_.add(Reg::rax, Reg::rdx);
    a_.cmp(Reg::rax, Reg::rcx);
    a_.cmov(Cond::l, Reg::rax, Reg::rcx);
    a_.cmp(Reg::rax, Reg::r8);
    a_.cmov(Cond::g, Reg::rax, Reg::r8);
    a_.load_index8(Reg::rax, Reg::r9, Reg::rax);
    wrap_gpr(Reg::rax, s);
    a_.store_index8(dest.base, Reg::rdx, dest.disp, Reg::rax);
    a_.add_imm32(Reg::rdx, 1);
    a_.cmp_imm32(Reg::rdx, L);
    a_.jcc_back(Cond::l, lane);
    a_.land(done);
}

std::unique_ptr<Program>
Lowerer::lower(const hvx::InstrPtr &root)
{
    collect(root);
    num_slots_ = (num_slots_ + kChunk - 1) / kChunk * kChunk;

    // Prologue: pin arena/bufs/dst/x/y in callee-saved registers. No
    // calls are made, so stack alignment past the pushes is moot.
    a_.push(Reg::rbx);
    a_.push(Reg::r12);
    a_.push(Reg::r13);
    a_.push(Reg::r14);
    a_.push(Reg::r15);
    a_.load(kArena, Reg::rdi, offsetof(Frame, arena));
    a_.load(kBufs, Reg::rdi, offsetof(Frame, bufs));
    a_.load(kDst, Reg::rdi, offsetof(Frame, dst));
    a_.load(kX, Reg::rdi, offsetof(Frame, x));
    a_.load(kY, Reg::rdi, offsetof(Frame, y));

    for (const Instr *n : order_) {
        const Slots &slots = slot_.at(n);
        const int64_t slot = slots.run;
        const bool is_root = n == order_.back();
        const Dest dest = is_root ? Dest{kDst, 0}
                                  : Dest{kArena, slot_disp(slot)};
        switch (n->op()) {
          case hvx::Opcode::VRead:
            emit_vread(*n, dest);
            break;
          case hvx::Opcode::VSplat:
            // Filled host-side at bind (loop-invariant); a root splat
            // is copied to the row like a swizzle of its slots.
            if (is_root)
                emit_lanes([&](int i) { return alg_.read(slot + i); },
                           n->type().lanes, dest, nullptr);
            break;
          default:
            emit_node(*n, dest,
                      is_root ? nullptr : &lane_slots_[slots.lanes]);
            break;
        }
    }

    if (used_avx_)
        a_.vzeroupper();
    a_.pop(Reg::r15);
    a_.pop(Reg::r14);
    a_.pop(Reg::r13);
    a_.pop(Reg::r12);
    a_.pop(Reg::rbx);
    a_.ret();

    // Slots, then the constant pool, then one group of padding that
    // keeps every gather window inside the arena.
    auto p = std::unique_ptr<Program>(new Program());
    p->arena_.assign(static_cast<size_t>(num_slots_) + pool_.size() + kChunk,
                     0);
    std::copy(pool_.begin(), pool_.end(), p->arena_.begin() + num_slots_);
    p->buf_ids_ = std::move(buf_ids_);
    p->splats_ = std::move(splats_);
    p->load_elems_ = std::move(load_elems_);
    p->out_type_ = root->type();
    p->simd_ = simd_;
    p->out_value_.reset(p->out_type_);
    p->code_.seal(a_.code());
    p->fn_ = reinterpret_cast<void (*)(Frame *)>(
        const_cast<void *>(p->code_.entry()));
    return p;
}

std::unique_ptr<Program>
Program::compile(const hvx::InstrPtr &code)
{
    RAKE_USER_CHECK(code != nullptr, "jit: null program");
    RAKE_USER_CHECK(available(),
                    "jit: native execution requires an x86-64 host "
                    "(use --execute interp here)");
    Lowerer lowerer(simd_level());
    return lowerer.lower(code);
}

} // namespace rake::jit
