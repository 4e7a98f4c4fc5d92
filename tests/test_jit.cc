/**
 * @file
 * Tests for the native x86-64 JIT execution tier: the encoder's bytes,
 * per-opcode differential checks against the HVX interpreter at both
 * tiers (on edge and interior tiles, lane groups with tails, gathers
 * across operands), whole-image execution over every flat benchmark
 * and the fused DAG suite (in several row bands too), the
 * RAKE_JIT_SIMD knob, structural slot sharing, concurrent runners,
 * and failure-mode gating.
 *
 * Everything is gated on jit::available(): on non-x86-64 hosts the
 * suite skips (and one test pins that compile() refuses cleanly).
 */
#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/halide_optimizer.h"
#include "hir/analysis.h"
#include "hir/builder.h"
#include "hvx/interp.h"
#include "hvx/sexpr.h"
#include "jit/encoder.h"
#include "jit/jit.h"
#include "pipeline/benchmarks.h"
#include "pipeline/dag.h"
#include "pipeline/executor.h"
#include "support/rng.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::pipeline;
using hvx::InstrPtr;
using hvx::Opcode;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType i8 = ScalarType::Int8;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr ScalarType i32 = ScalarType::Int32;
constexpr ScalarType u32 = ScalarType::UInt32;

#define SKIP_IF_NO_JIT()                                                   \
    do {                                                                   \
        if (!jit::available())                                             \
            GTEST_SKIP() << "jit unavailable on this host";                \
    } while (0)

/** Set (or clear, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::string old_;
    bool had_ = false;
};

InstrPtr
vread(int buf, ScalarType t, int lanes, int dx = 0, int dy = 0)
{
    return hvx::Instr::make_read(hir::LoadRef{buf, dx, dy},
                                 VecType(t, lanes));
}

void
collect_hvx_loads(const hir::ExprPtr &e, std::map<int, ScalarType> &out)
{
    if (!e)
        return;
    if (e->op() == hir::Op::Load)
        out.emplace(e->load_ref().buffer, e->type().elem);
    for (const hir::ExprPtr &a : e->args())
        collect_hvx_loads(a, out);
}

void
collect_hvx_loads(const InstrPtr &n, std::map<int, ScalarType> &out,
                  std::set<const hvx::Instr *> &seen)
{
    if (!n || !seen.insert(n.get()).second)
        return;
    if (n->op() == Opcode::VRead)
        out.emplace(n->load_ref().buffer, n->type().elem);
    if (n->op() == Opcode::VSplat)
        collect_hvx_loads(n->splat_value(), out);
    for (const InstrPtr &a : n->args())
        collect_hvx_loads(a, out, seen);
}

/** Full-range random image (negative lanes too, unlike synthetic). */
Image
random_image(ScalarType elem, int w, int h, uint64_t seed)
{
    Image img(elem, w, h);
    Rng rng(seed);
    for (int64_t &p : img.pixels)
        p = wrap(elem, static_cast<int64_t>(rng.next()));
    return img;
}

/**
 * A full-range image about half of whose pixels are the type's
 * extremes and their neighbours, or the 32-bit ones (wrapped into the
 * type): where an exact narrow form would first part from the general
 * one.
 */
Image
boundary_image(ScalarType elem, int w, int h, uint64_t seed)
{
    Image img = random_image(elem, w, h, seed);
    const int64_t lo = min_value(elem);
    const int64_t hi = max_value(elem);
    const int64_t picks[] = {lo,        lo + 1,    -1,         0,
                             1,         hi - 1,    hi,         INT32_MIN,
                             INT32_MAX, UINT32_MAX, INT64_MIN, INT64_MAX};
    Rng rng(seed * 31 + 7);
    for (int64_t &p : img.pixels)
        if (rng.chance(1, 2))
            p = wrap(elem, picks[rng.next() % std::size(picks)]);
    return img;
}

/** Every tier this host can run: scalar, and avx2 if present. */
std::vector<const char *>
simd_tiers()
{
    std::vector<const char *> tiers = {"scalar"};
    ScopedEnv clear("RAKE_JIT_SIMD", nullptr);
    if (jit::simd_level() == jit::SimdLevel::Avx2)
        tiers.push_back("avx2");
    return tiers;
}

/**
 * The invariant the AVX2 tier's range analysis rests on
 * (jit/lower.cc): an HVX node's lanes lie in its element type when it
 * is narrower than 64 bits, and a compare's are 0 or 1.
 */
void
expect_in_type(const InstrPtr &prog, const Image &img)
{
    const ScalarType t = prog->type().elem;
    if (bits(t) == 64)
        return;
    const bool compare =
        prog->op() == Opcode::VCmpGt || prog->op() == Opcode::VCmpEq;
    const int64_t lo = compare ? 0 : min_value(t);
    const int64_t hi = compare ? 1 : max_value(t);
    const auto out =
        std::find_if(img.pixels.begin(), img.pixels.end(),
                     [&](int64_t v) { return v < lo || v > hi; });
    EXPECT_TRUE(out == img.pixels.end())
        << *out << " outside " << to_string(t) << " [" << lo << ", " << hi
        << "]";
}

/**
 * Run `prog` over full-range images (random_image, or `make`) via the
 * interpreter and via the JIT (per-tile validation armed) at every
 * tier, on images two and eight tiles wide (the wider one has interior
 * tiles, whose loads are packed), and require bit-identical output
 * images, whose lanes lie in the program's type.
 */
void
expect_jit_matches_interp(const InstrPtr &prog,
                          const std::map<std::string, int64_t> &scalars
                          = {},
                          uint64_t seed = 11,
                          Image (*make)(ScalarType, int, int,
                                        uint64_t) = random_image)
{
    std::map<int, ScalarType> loads;
    std::set<const hvx::Instr *> seen;
    collect_hvx_loads(prog, loads, seen);
    const int lanes = prog->type().lanes;
    for (int tiles : {2, 8}) {
        SCOPED_TRACE(std::to_string(tiles) + " tiles wide");
        std::map<int, Image> inputs;
        for (const auto &[id, elem] : loads)
            inputs.emplace(id, make(elem, tiles * lanes, 3, seed + id));
        const Image want = run_tiles(prog, inputs, scalars);
        expect_in_type(prog, want);
        for (const char *tier : simd_tiers()) {
            SCOPED_TRACE(tier);
            ScopedEnv force("RAKE_JIT_SIMD", tier);
            const Image got = run_tiles_jit(prog, inputs, scalars);
            EXPECT_EQ(count_mismatches(want, got), 0);
        }
    }
}

/**
 * A buffer of random 64-bit cells, most past the range of `elem`:
 * every load wraps what it reads, as the interpreter's does.
 */
Buffer
random_image_buffer(ScalarType elem, int w, int h, uint64_t seed,
                    int x0 = 0, int y0 = 0)
{
    Buffer buf(elem, w, h, x0, y0);
    Rng rng(seed);
    for (int64_t &c : buf.data)
        c = static_cast<int64_t>(rng.next());
    return buf;
}

/** Scalar value 5 for every variable `e` reads. */
std::map<std::string, int64_t>
scalars_for(const hir::ExprPtr &e)
{
    std::map<std::string, int64_t> scalars;
    for (const std::string &v : hir::collect_vars(e))
        scalars.emplace(v, 5);
    return scalars;
}

TEST(Jit, AvailabilityAndSimdLevel)
{
    SKIP_IF_NO_JIT();
#if defined(__x86_64__)
    EXPECT_TRUE(jit::available());
    // Two tiers: AVX2 wherever the CPU has it, scalar otherwise.
    ScopedEnv clear("RAKE_JIT_SIMD", nullptr);
    EXPECT_EQ(jit::simd_level(), __builtin_cpu_supports("avx2")
                                     ? jit::SimdLevel::Avx2
                                     : jit::SimdLevel::Scalar);
#endif
    EXPECT_EQ(to_string(jit::SimdLevel::Scalar), "scalar");
    EXPECT_EQ(to_string(jit::SimdLevel::Avx2), "avx2");
    ScopedEnv force("RAKE_JIT_SIMD", "scalar");
    EXPECT_EQ(jit::simd_level(), jit::SimdLevel::Scalar);
    EXPECT_EQ(jit::Program::compile(vread(0, u8, 8))->simd(),
              jit::SimdLevel::Scalar);
}

TEST(Jit, RejectsBadSimdKnob)
{
    SKIP_IF_NO_JIT();
    // The tiers are scalar and avx2; the error names both.
    for (const char *bad : {"sse9", "sse2"}) {
        SCOPED_TRACE(bad);
        ScopedEnv force("RAKE_JIT_SIMD", bad);
        try {
            jit::simd_level();
            ADD_FAILURE() << "no UserError";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find("scalar|avx2"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(jit::Program::compile(vread(0, u8, 8)), UserError);
    }
}

// Every vector, jump and indexed encoder form the lowerer uses,
// against bytes taken once from objdump's disassembly of this output
// (the test itself needs no tool).
TEST(Jit, EncoderEmitsKnownBytes)
{
    using jit::Assembler;
    using jit::Cond;
    using jit::Mem;
    using jit::Reg;
    using jit::VecOp;
    using jit::Vreg;
    const auto bytes = [](const auto &emit) {
        Assembler a;
        emit(a);
        static const char digits[] = "0123456789abcdef";
        std::string hex;
        for (uint8_t b : a.code()) {
            if (!hex.empty())
                hex += ' ';
            hex += digits[b >> 4];
            hex += digits[b & 15];
        }
        return hex;
    };
    const Reg rbx = Reg::rbx;
    const std::vector<std::pair<std::string, std::string>> cases = {
        // setg al; sete sil; setl r9b
        {bytes([](Assembler &a) { a.setcc(Cond::g, Reg::rax); }), "0f 9f c0"},
        {bytes([](Assembler &a) { a.setcc(Cond::e, Reg::rsi); }),
         "40 0f 94 c6"},
        {bytes([](Assembler &a) { a.setcc(Cond::l, Reg::r9); }),
         "41 0f 9c c1"},
        // cmp r10, 0x80
        {bytes([](Assembler &a) { a.cmp_imm32(Reg::r10, 128); }),
         "49 81 fa 80 00 00 00"},
        // mov [r13 + rdx*8 + 0x10], rax; mov [rbx + r8*8 - 8], r11
        {bytes([](Assembler &a) {
             a.store_index8(Reg::r13, Reg::rdx, 16, Reg::rax);
         }),
         "49 89 84 d5 10 00 00 00"},
        {bytes([&](Assembler &a) {
             a.store_index8(rbx, Reg::r8, -8, Reg::r11);
         }),
         "4e 89 9c c3 f8 ff ff ff"},
        // vmovdqu ymm1, [rbx + 0x40]; ymm0, [r9 + r10*8 + 0x20];
        // ymm12, [r12 + 8]; [r13 + 0x60], ymm9
        {bytes([&](Assembler &a) { a.vmovdqu(Vreg::ymm1, Mem{rbx, 64}); }),
         "c4 e1 7e 6f 8b 40 00 00 00"},
        {bytes([](Assembler &a) {
             a.vmovdqu(Vreg::ymm0, Mem{Reg::r9, 32, Reg::r10, 8});
         }),
         "c4 81 7e 6f 84 d1 20 00 00 00"},
        {bytes([](Assembler &a) { a.vmovdqu(Vreg::ymm12, Mem{Reg::r12, 8}); }),
         "c4 41 7e 6f a4 24 08 00 00 00"},
        {bytes([](Assembler &a) { a.vmovdqu(Mem{Reg::r13, 96}, Vreg::ymm9); }),
         "c4 41 7e 7f 8d 60 00 00 00"},
        // vmovdqa ymm3, ymm14
        {bytes([](Assembler &a) { a.vmovdqa(Vreg::ymm3, Vreg::ymm14); }),
         "c4 c1 7d 6f de"},
        // vpaddq ymm2, ymm0, ymm1; vpsubq ymm10, ymm11, [rbx + 0x100];
        // vpand ymm4, ymm5, ymm6; vpor ymm7, ymm8, ymm15;
        // vpxor ymm0, ymm0, [rbx + 0x1000]; vpmuludq ymm1, ymm2, ymm3
        {bytes([](Assembler &a) {
             a.vop(VecOp::paddq, Vreg::ymm2, Vreg::ymm0, Vreg::ymm1);
         }),
         "c4 e1 7d d4 d1"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::psubq, Vreg::ymm10, Vreg::ymm11, Mem{rbx, 256});
         }),
         "c4 61 25 fb 93 00 01 00 00"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::pand, Vreg::ymm4, Vreg::ymm5, Vreg::ymm6);
         }),
         "c4 e1 55 db e6"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::por, Vreg::ymm7, Vreg::ymm8, Vreg::ymm15);
         }),
         "c4 c1 3d eb ff"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::pxor, Vreg::ymm0, Vreg::ymm0, Mem{rbx, 0x1000});
         }),
         "c4 e1 7d ef 83 00 10 00 00"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::pmuludq, Vreg::ymm1, Vreg::ymm2, Vreg::ymm3);
         }),
         "c4 e1 6d f4 cb"},
        // vpmuldq ymm1, ymm2, ymm3; vpminsd ymm4, ymm5, [rbx + 0x40];
        // vpmaxsd ymm9, ymm10, ymm11; vpminud ymm0, ymm12, [rbx + 0x100];
        // vpmaxud ymm14, ymm1, ymm15
        {bytes([](Assembler &a) {
             a.vop(VecOp::pmuldq, Vreg::ymm1, Vreg::ymm2, Vreg::ymm3);
         }),
         "c4 e2 6d 28 cb"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::pminsd, Vreg::ymm4, Vreg::ymm5, Mem{rbx, 64});
         }),
         "c4 e2 55 39 a3 40 00 00 00"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::pmaxsd, Vreg::ymm9, Vreg::ymm10, Vreg::ymm11);
         }),
         "c4 42 2d 3d cb"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::pminud, Vreg::ymm0, Vreg::ymm12, Mem{rbx, 256});
         }),
         "c4 e2 1d 3b 83 00 01 00 00"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::pmaxud, Vreg::ymm14, Vreg::ymm1, Vreg::ymm15);
         }),
         "c4 42 75 3f f7"},
        // A run's loop body scales its index (r11) by each stride:
        // vmovdqu ymm2, [rbx + r11*1 + 0x40];
        // vpermq ymm3, [rbx + r11*2 + 0x18], 0x39;
        // vpaddq ymm4, ymm4, [rbx + r11*4 + 8];
        // vmovq xmm11, [rbx + r11*8 + 0x28];
        // vmovdqu [r13 + r11*1 + 0x60], ymm9;
        // vmovdqu [r13 + r11*8 - 0x20], ymm0
        {bytes([&](Assembler &a) {
             a.vmovdqu(Vreg::ymm2, Mem{rbx, 64, Reg::r11, 1});
         }),
         "c4 a1 7e 6f 94 1b 40 00 00 00"},
        {bytes([&](Assembler &a) {
             a.vpermq(Vreg::ymm3, Mem{rbx, 24, Reg::r11, 2}, 0x39);
         }),
         "c4 a3 fd 00 9c 5b 18 00 00 00 39"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::paddq, Vreg::ymm4, Vreg::ymm4,
                   Mem{rbx, 8, Reg::r11, 4});
         }),
         "c4 a1 5d d4 a4 9b 08 00 00 00"},
        {bytes([&](Assembler &a) {
             a.vmovq(Vreg::ymm11, Mem{rbx, 40, Reg::r11, 8});
         }),
         "c4 21 7a 7e 9c db 28 00 00 00"},
        {bytes([](Assembler &a) {
             a.vmovdqu(Mem{Reg::r13, 96, Reg::r11, 1}, Vreg::ymm9);
         }),
         "c4 01 7e 7f 8c 1d 60 00 00 00"},
        {bytes([](Assembler &a) {
             a.vmovdqu(Mem{Reg::r13, -32, Reg::r11, 8}, Vreg::ymm0);
         }),
         "c4 81 7e 7f 84 dd e0 ff ff ff"},
        // vpcmpgtq ymm13, ymm1, ymm2; vpcmpeqq ymm2, ymm12, [rbx + 0x20]
        {bytes([](Assembler &a) {
             a.vop(VecOp::pcmpgtq, Vreg::ymm13, Vreg::ymm1, Vreg::ymm2);
         }),
         "c4 62 75 37 ea"},
        {bytes([&](Assembler &a) {
             a.vop(VecOp::pcmpeqq, Vreg::ymm2, Vreg::ymm12, Mem{rbx, 32});
         }),
         "c4 e2 1d 29 93 20 00 00 00"},
        // vpsllvq ymm0, ymm1, [rbx + 0x80]; vpsrlvq ymm8, ymm9, ymm10
        {bytes([&](Assembler &a) {
             a.vop(VecOp::psllvq, Vreg::ymm0, Vreg::ymm1, Mem{rbx, 128});
         }),
         "c4 e2 f5 47 83 80 00 00 00"},
        {bytes([](Assembler &a) {
             a.vop(VecOp::psrlvq, Vreg::ymm8, Vreg::ymm9, Vreg::ymm10);
         }),
         "c4 42 b5 45 c2"},
        // vpsllq ymm3, ymm11, 0x20; vpsrlq ymm12, ymm4, 0x3f
        {bytes([](Assembler &a) { a.vpsllq(Vreg::ymm3, Vreg::ymm11, 32); }),
         "c4 c1 65 73 f3 20"},
        {bytes([](Assembler &a) { a.vpsrlq(Vreg::ymm12, Vreg::ymm4, 63); }),
         "c4 e1 1d 73 d4 3f"},
        // vpblendvb ymm0, ymm1, ymm2, ymm3;
        // vpblendvb ymm9, ymm10, [rbx + 0x40], ymm15
        {bytes([](Assembler &a) {
             a.vpblendvb(Vreg::ymm0, Vreg::ymm1, Vreg::ymm2, Vreg::ymm3);
         }),
         "c4 e3 75 4c c2 30"},
        {bytes([&](Assembler &a) {
             a.vpblendvb(Vreg::ymm9, Vreg::ymm10, Mem{rbx, 64}, Vreg::ymm15);
         }),
         "c4 63 2d 4c 8b 40 00 00 00 f0"},
        // vpermq ymm5, [rbx + 0x18], 0x39; vpblendd ymm0, ymm0, ymm14, 0xf0
        {bytes([&](Assembler &a) { a.vpermq(Vreg::ymm5, Mem{rbx, 24}, 0x39); }),
         "c4 e3 fd 00 ab 18 00 00 00 39"},
        {bytes([](Assembler &a) {
             a.vpblendd(Vreg::ymm0, Vreg::ymm0, Vreg::ymm14, 0xF0);
         }),
         "c4 c3 7d 02 c6 f0"},
        // vinserti128 ymm0, ymm0, xmm8, 1; vmovq xmm11, [rbx + 0x28];
        // vpinsrq xmm1, xmm1, [rbx + 0x30], 1; vzeroupper
        {bytes([](Assembler &a) {
             a.vinserti128(Vreg::ymm0, Vreg::ymm0, Vreg::ymm8, 1);
         }),
         "c4 c3 7d 38 c0 01"},
        {bytes([&](Assembler &a) { a.vmovq(Vreg::ymm11, Mem{rbx, 40}); }),
         "c4 61 7a 7e 9b 28 00 00 00"},
        {bytes([&](Assembler &a) {
             a.vpinsrq(Vreg::ymm1, Vreg::ymm1, Mem{rbx, 48}, 1);
         }),
         "c4 e3 f1 22 8b 30 00 00 00 01"},
        {bytes([](Assembler &a) { a.vzeroupper(); }), "c5 f8 77"},
        // jl over a ret; jmp over two rets; ret, then jg back to it
        {bytes([](Assembler &a) {
             const size_t p = a.jcc_forward(Cond::l);
             a.ret();
             a.land(p);
         }),
         "0f 8c 01 00 00 00 c3"},
        {bytes([](Assembler &a) {
             const size_t p = a.jmp_forward();
             a.ret();
             a.ret();
             a.land(p);
         }),
         "e9 02 00 00 00 c3 c3"},
        {bytes([](Assembler &a) {
             const size_t top = a.size();
             a.ret();
             a.jcc_back(Cond::g, top);
         }),
         "c3 0f 8f f9 ff ff ff"},
    };
    for (const auto &[got, want] : cases)
        EXPECT_EQ(got, want);
}

TEST(Jit, RejectsSketchHoles)
{
    SKIP_IF_NO_JIT();
    InstrPtr hole = hvx::Instr::make_hole(0, VecType(u8, 8));
    EXPECT_THROW(jit::Program::compile(hole), UserError);
    EXPECT_THROW(jit::Program::compile(nullptr), UserError);
}

TEST(Jit, CompileProducesCodeAndRunsAfterBind)
{
    SKIP_IF_NO_JIT();
    InstrPtr prog =
        hvx::Instr::make(Opcode::VAdd,
                         {vread(0, u8, 8), vread(0, u8, 8, 1)});
    auto compiled = jit::Program::compile(prog);
    EXPECT_GT(compiled->code_size(), 0u);
    // code_size() counts the assembled bytes, not the pages they are
    // sealed into.
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        const size_t narrow =
            jit::Program::compile(hvx::parse_instr("(vmem u8x8 0 1 0)"))
                ->code_size();
        const size_t wide =
            jit::Program::compile(hvx::parse_instr("(vmem u8x128 0 1 0)"))
                ->code_size();
        EXPECT_NE(narrow, wide);
        EXPECT_NE(narrow, 4096u);
        EXPECT_NE(wide, 4096u);
    }
    EXPECT_EQ(compiled->out_type(), prog->type());
    ASSERT_EQ(compiled->load_elems().size(), 1u);
    EXPECT_EQ(compiled->load_elems().at(0), u8);

    Env env;
    env.buffers.emplace(0, Buffer(u8, 16, 2));
    compiled->bind(env);
    const Value &v = compiled->run(0, 0);
    EXPECT_EQ(v.type, prog->type());

    // The code stores the root's lanes straight to the row it is
    // given, and nothing past them, at either tier and for a lane
    // count with a tail.
    const InstrPtr six = hvx::Instr::make(
        Opcode::VAdd, {vread(0, u8, 6), vread(0, u8, 6, 1)});
    Env env6;
    env6.buffers.emplace(0, random_image_buffer(u8, 18, 2, 3));
    const Value want = hvx::evaluate(six, env6);
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        const auto p = jit::Program::compile(six);
        jit::Runner runner(*p, env6);
        std::vector<int64_t> row(6 + 8, -7);
        runner.run(0, 0, row.data());
        EXPECT_TRUE(std::equal(want.lanes.begin(), want.lanes.end(),
                               row.begin()));
        EXPECT_TRUE(std::all_of(row.begin() + 6, row.end(),
                                [](int64_t c) { return c == -7; }));
    }
}

// An interior tile's load is a packed (at the scalar tier, a plain)
// load per lane group, with no per-lane column clamp: only edge tiles
// run the clamping loop, whose code does not grow with the lanes.
TEST(Jit, InteriorLoadsHaveNoPerLaneClamp)
{
    SKIP_IF_NO_JIT();
    const InstrPtr wide = vread(0, u8, 512, 1);
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        const size_t per_lane = std::string(tier) == "avx2" ? 16 : 32;
        EXPECT_LE(jit::Program::compile(wide)->code_size(), per_lane * 512);
    }
}

TEST(Jit, RepeatedWholeImagePassesRebindCleanly)
{
    // The regression this pins: run_tiles_jit_with used pointer
    // identity to skip rebinding, and the per-pass Env is a stack
    // local — the second pass's Env reused the first one's address,
    // the rebind was skipped, and the program ran over the dead
    // pass's freed buffer descriptors (a segfault in the benchmark
    // drivers' best-of-3 timing loop). Every pass must rebind and
    // see its own buffers.
    SKIP_IF_NO_JIT();
    InstrPtr prog =
        hvx::Instr::make(Opcode::VAdd,
                         {vread(0, u8, 8), vread(0, u8, 8, 1)});
    auto compiled = jit::Program::compile(prog);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const std::map<int, Image> inputs =
            synthetic_inputs_for(prog, 64, 8, seed);
        const Image native = run_tiles_jit_with(*compiled, inputs);
        const Image expected = run_tiles(prog, inputs);
        EXPECT_EQ(count_mismatches(expected, native), 0)
            << "pass with seed " << seed;
    }
}

TEST(Jit, BindRejectsMistypedBuffer)
{
    SKIP_IF_NO_JIT();
    auto compiled = jit::Program::compile(vread(0, u8, 8));
    Env env;
    env.buffers.emplace(0, Buffer(u16, 16, 2)); // wrong element type
    EXPECT_THROW(compiled->bind(env), UserError);
}

// One differential check per opcode family, over full-range random
// images (negative values, saturation boundaries, wrap-around). The
// emitted code must match the interpreter bit for bit.
TEST(Jit, EveryOpcodeMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    const InstrPtr a8 = vread(0, u8, 8);
    const InstrPtr b8 = vread(1, u8, 8, 1);
    const InstrPtr a8s = vread(0, i8, 8);
    const InstrPtr b8s = vread(1, i8, 8, -1);
    const InstrPtr a16 = vread(0, u16, 8);
    const InstrPtr b16 = vread(1, u16, 8, 2, 1);
    const InstrPtr a16s = vread(0, i16, 8);
    const InstrPtr b16s = vread(1, i16, 8, -2, -1);
    const InstrPtr a32s = vread(0, i32, 4);

    std::vector<std::pair<std::string, InstrPtr>> cases;
    auto add = [&](const std::string &label, InstrPtr p) {
        cases.emplace_back(label, std::move(p));
    };

    add("vread-offsets", vread(0, u8, 8, -3, 2));
    add("bitcast-narrow", Instr::make(Opcode::VBitcast, {a16}, {}, u8));
    add("bitcast-narrow-signed",
        Instr::make(Opcode::VBitcast, {a16s}, {}, i8));
    add("bitcast-widen",
        Instr::make(Opcode::VBitcast, {vread(0, u8, 16)}, {}, u16));
    add("bitcast-reinterpret",
        Instr::make(Opcode::VBitcast, {a16s}, {}, u16));
    const InstrPtr pair = Instr::make(Opcode::VCombine, {a8, b8});
    add("combine", pair);
    add("lo", Instr::make(Opcode::VLo, {pair}));
    add("hi", Instr::make(Opcode::VHi, {pair}));
    add("align", Instr::make(Opcode::VAlign, {a8, b8}, {3}));
    add("ror", Instr::make(Opcode::VRor, {a8}, {5}));
    add("shuff-vdd", Instr::make(Opcode::VShuffVdd, {pair}));
    add("deal-vdd", Instr::make(Opcode::VDealVdd, {pair}));
    const InstrPtr pred = Instr::make(Opcode::VCmpGt, {a8s, b8s});
    add("cmp-gt", pred);
    add("cmp-eq", Instr::make(Opcode::VCmpEq, {a8, b8}));
    add("mux", Instr::make(Opcode::VMux, {pred, a8s, b8s}));
    add("pack-e", Instr::make(Opcode::VPackE, {a16, b16}));
    add("pack-o", Instr::make(Opcode::VPackO, {a16s, b16s}));
    add("sat", Instr::make(Opcode::VSat, {a16s, b16s}, {}, i8));
    add("pack-sat", Instr::make(Opcode::VPackSat, {a16s, b16s}, {}, u8));
    add("zxt", Instr::make(Opcode::VZxt, {a8}));
    add("sxt", Instr::make(Opcode::VSxt, {a8s}));
    add("add", Instr::make(Opcode::VAdd, {a16, b16}));
    add("add-signed", Instr::make(Opcode::VAdd, {a16s, b16s}));
    add("add-sat", Instr::make(Opcode::VAddSat, {a16s, b16s}));
    add("sub", Instr::make(Opcode::VSub, {a8, b8}));
    add("sub-sat", Instr::make(Opcode::VSubSat, {a8, b8}));
    add("avg", Instr::make(Opcode::VAvg, {a16s, b16s}));
    add("avg-rnd", Instr::make(Opcode::VAvgRnd, {a8, b8}));
    add("navg", Instr::make(Opcode::VNavg, {a16s, b16s}));
    add("abs-diff", Instr::make(Opcode::VAbsDiff, {a16s, b16s}));
    add("max", Instr::make(Opcode::VMax, {a16s, b16s}));
    add("min", Instr::make(Opcode::VMin, {a8, b8}));
    add("and", Instr::make(Opcode::VAnd, {a16s, b16s}));
    add("or", Instr::make(Opcode::VOr, {a16, b16}));
    add("xor", Instr::make(Opcode::VXor, {a16s, b16s}));
    add("not", Instr::make(Opcode::VNot, {a16s}));
    add("asl", Instr::make(Opcode::VAsl, {a16s}, {3}));
    add("asr", Instr::make(Opcode::VAsr, {a16s}, {3}));
    add("asr-rnd", Instr::make(Opcode::VAsrRnd, {a16s}, {4}));
    add("asr-zero", Instr::make(Opcode::VAsr, {a16s}, {0}));
    add("lsr", Instr::make(Opcode::VLsr, {a16s}, {5}));
    add("asr-narrow", Instr::make(Opcode::VAsrNarrow, {a16s, b16s}, {3}));
    add("asr-narrow-sat",
        Instr::make(Opcode::VAsrNarrowSat, {a16s, b16s}, {2}, i8));
    add("asr-narrow-rnd-sat",
        Instr::make(Opcode::VAsrNarrowRndSat, {a16s, b16s}, {2}, u8));
    add("round-sat", Instr::make(Opcode::VRoundSat, {a16s, b16s}, {}, i8));
    const InstrPtr mpy = Instr::make(Opcode::VMpy, {a8, b8});
    add("mpy", mpy);
    add("mpy-signed", Instr::make(Opcode::VMpy, {a8s, b8s}));
    add("mpy-acc", Instr::make(Opcode::VMpyAcc, {vread(2, u16, 8), a8, b8}));
    add("mpyi", Instr::make(Opcode::VMpyi, {a16s, b16s}));
    add("mpyi-acc", Instr::make(Opcode::VMpyiAcc, {a16s, a16s, b16s}));
    add("mpa", Instr::make(Opcode::VMpa, {a8, b8}, {3, -2}));
    add("mpa-acc",
        Instr::make(Opcode::VMpaAcc, {vread(2, i16, 8), a8, b8},
                    {3, -2}));
    add("dmpy", Instr::make(Opcode::VDmpy, {a8, b8}, {2, -3}));
    add("dmpy-acc",
        Instr::make(Opcode::VDmpyAcc, {vread(2, i16, 8), a8, b8},
                    {2, -3}));
    add("tmpy", Instr::make(Opcode::VTmpy, {a8, b8}, {2, -1}));
    add("tmpy-acc",
        Instr::make(Opcode::VTmpyAcc, {vread(2, i16, 8), a8, b8},
                    {2, -1}));
    add("rmpy", Instr::make(Opcode::VRmpy, {a8, b8}, {1, -2, 3, -4}));
    add("rmpy-acc",
        Instr::make(Opcode::VRmpyAcc, {vread(2, i32, 8), a8, b8},
                    {1, -2, 3, -4}));
    add("dot-rmpy",
        Instr::make(Opcode::VDotRmpy, {vread(0, u8, 16), vread(1, u8, 16)}));
    add("dot-rmpy-signed",
        Instr::make(Opcode::VDotRmpy, {vread(0, i8, 16), vread(1, i8, 16)}));
    add("dot-rmpy-acc",
        Instr::make(Opcode::VDotRmpyAcc,
                    {vread(2, i32, 4), vread(0, i8, 16),
                     vread(1, i8, 16)}));
    add("mpy-ie",
        Instr::make(Opcode::VMpyIE, {a32s, vread(1, u16, 8)}));
    add("mpy-io",
        Instr::make(Opcode::VMpyIO, {a32s, vread(1, i16, 8)}));
    // A shared-subtree DAG: the jit must evaluate `mpy` once.
    add("shared-subtree",
        Instr::make(Opcode::VAdd,
                    {Instr::make(Opcode::VLo, {mpy}),
                     Instr::make(Opcode::VHi, {mpy})}));

    // Tiles wholly left and right of the image.
    add("vread-outside-left", vread(0, u8, 8, -(8 + 3)));
    add("vread-outside-right", vread(0, i16, 8, 8 + 3, 1));
    // Gathers across operands and lane-group edges.
    for (int r : {1, 3, 4, 5, 7})
        add("align-" + std::to_string(r),
            Instr::make(Opcode::VAlign, {a16s, b16s}, {r}));
    for (int r : {1, 4, 7})
        add("ror-" + std::to_string(r), Instr::make(Opcode::VRor, {a16}, {r}));
    // 6 and 12 lanes: one lane group and a tail of 2, two and none.
    const InstrPtr a6 = vread(0, i16, 6);
    const InstrPtr b6 = vread(1, i16, 6, 1);
    const InstrPtr u6 = vread(0, u16, 6, -1);
    add("add-6", Instr::make(Opcode::VAdd, {a6, b6}));
    add("sub-6",
        Instr::make(Opcode::VSub, {vread(0, u8, 6), vread(1, u8, 6)}));
    add("xor-6",
        Instr::make(Opcode::VXor, {vread(0, i32, 6), vread(1, i32, 6)}));
    add("not-6", Instr::make(Opcode::VNot, {a6}));
    add("and-6", Instr::make(Opcode::VAnd, {u6, vread(1, u16, 6)}));
    add("or-6", Instr::make(Opcode::VOr, {u6, vread(1, u16, 6)}));
    add("max-6", Instr::make(Opcode::VMax, {a6, b6}));
    add("avg-rnd-6", Instr::make(Opcode::VAvgRnd, {a6, b6}));
    add("mpyi-acc-6", Instr::make(Opcode::VMpyiAcc, {a6, a6, b6}));
    add("asr-rnd-6", Instr::make(Opcode::VAsrRnd, {a6}, {5}));
    const InstrPtr pair12 = Instr::make(Opcode::VCombine, {a6, b6});
    add("combine-12", pair12);
    add("shuff-vdd-12", Instr::make(Opcode::VShuffVdd, {pair12}));
    add("deal-vdd-12", Instr::make(Opcode::VDealVdd, {pair12}));
    add("align-11-12", Instr::make(Opcode::VAlign, {pair12, pair12}, {11}));
    add("mpy-12",
        Instr::make(Opcode::VMpy, {vread(0, i8, 12), vread(1, i8, 12, 1)}));
    add("pack-sat-12", Instr::make(Opcode::VPackSat, {a6, b6}, {}, u8));
    add("mux-12",
        Instr::make(Opcode::VMux,
                    {Instr::make(Opcode::VCmpEq,
                                 {vread(0, u8, 12), vread(1, u8, 12)}),
                     vread(2, i8, 12, 2), vread(3, i8, 12, -2)}));
    // 64-bit lanes keep every carrier bit: the full 64-bit product,
    // sums that wrap in the carrier, 64-bit compares and shifts.
    const ScalarType i64 = ScalarType::Int64;
    const ScalarType u64 = ScalarType::UInt64;
    const InstrPtr a64 = vread(0, i64, 8);
    const InstrPtr b64 = vread(1, i64, 8, 1);
    const InstrPtr c64 = vread(0, u64, 8, -1);
    const InstrPtr d64 = vread(1, u64, 8);
    add("mpyi-i64", Instr::make(Opcode::VMpyi, {a64, b64}));
    add("mpyi-acc-u64", Instr::make(Opcode::VMpyiAcc, {c64, c64, d64}));
    add("mpy-i32-i64", Instr::make(Opcode::VMpy, {vread(0, i32, 8),
                                                  vread(1, i32, 8, 2)}));
    add("mpa-i32-i64",
        Instr::make(Opcode::VMpa, {vread(0, i32, 8), vread(1, i32, 8)},
                    {-5, 1LL << 33}));
    add("abs-diff-i64", Instr::make(Opcode::VAbsDiff, {a64, b64}));
    add("max-u64", Instr::make(Opcode::VMax, {c64, d64}));
    add("min-i64", Instr::make(Opcode::VMin, {a64, b64}));
    add("avg-rnd-i64", Instr::make(Opcode::VAvgRnd, {a64, b64}));
    add("navg-i64", Instr::make(Opcode::VNavg, {a64, b64}));
    add("add-sat-u64", Instr::make(Opcode::VAddSat, {c64, d64}));
    add("sub-sat-i64", Instr::make(Opcode::VSubSat, {a64, b64}));
    add("cmp-gt-i64", Instr::make(Opcode::VCmpGt, {a64, b64}));
    add("asr-63-i64", Instr::make(Opcode::VAsr, {a64}, {63}));
    add("asr-rnd-40-i64", Instr::make(Opcode::VAsrRnd, {a64}, {40}));
    add("lsr-33-u64", Instr::make(Opcode::VLsr, {c64}, {33}));
    add("asl-40-i64", Instr::make(Opcode::VAsl, {a64}, {40}));
    // Narrowing bitcasts shift each lane by its own amount.
    add("bitcast-narrow-4",
        Instr::make(Opcode::VBitcast, {vread(0, i32, 6)}, {}, u8));
    add("bitcast-narrow-2",
        Instr::make(Opcode::VBitcast, {vread(0, u32, 6)}, {}, i16));
    add("bitcast-widen-4",
        Instr::make(Opcode::VBitcast, {vread(0, u8, 24)}, {}, i32));

    // Each case's interpreter image is also checked to lie in its type
    // (expect_in_type), so the cases must cover every computing opcode.
    std::set<Opcode> covered;
    for (const auto &[label, prog] : cases) {
        SCOPED_TRACE(label);
        covered.insert(prog->op());
        for (uint64_t seed : {11u, 77u})
            expect_jit_matches_interp(prog, {}, seed);
    }
    for (int k = 0; k < hvx::kNumOpcodes; ++k) {
        const Opcode op = static_cast<Opcode>(k);
        if (op != Opcode::VRead && op != Opcode::VSplat &&
            op != Opcode::Hole) {
            EXPECT_TRUE(covered.count(op)) << to_string(op) << " has no case";
        }
    }

    // Loads from buffers whose origin is not (0, 0), as the fuzz
    // oracle's example environments have, at tiles inside, across the
    // edges of, and outside the buffer.
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        for (const auto &[label, prog] : cases) {
            SCOPED_TRACE(label);
            std::map<int, ScalarType> loads;
            std::set<const hvx::Instr *> seen;
            collect_hvx_loads(prog, loads, seen);
            Env env;
            for (const auto &[id, elem] : loads)
                env.buffers.emplace(
                    id, random_image_buffer(elem, 40, 5, 5 + id, -9 + id, 3));
            const auto compiled = jit::Program::compile(prog);
            compiled->bind(env);
            for (int y : {1, 3, 6, 9}) {
                for (int x : {-40, -12, -9, 0, 7, 20, 31, 60}) {
                    env.x = x;
                    env.y = y;
                    EXPECT_EQ(compiled->run(x, y), hvx::evaluate(prog, env))
                        << "tile (" << x << ", " << y << ")";
                }
            }
        }
    }
}

// The AVX2 tier's narrow forms (jit/lower.cc), each beside the
// general form it replaces, on images full of type and 32-bit
// extremes, at every tier and over interior and edge tiles. 16 lanes:
// every node is a loop of four groups, whose ranges cover all of them.
TEST(Jit, NarrowFormsMatchInterpreterAtBoundaries)
{
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    const ScalarType i64 = ScalarType::Int64;
    const ScalarType u64 = ScalarType::UInt64;
    const auto pair = [](ScalarType t, int lanes = 16) {
        return std::pair{vread(0, t, lanes), vread(1, t, lanes, 1)};
    };
    const auto [u8a, u8b] = pair(u8);
    const auto [i16a, i16b] = pair(i16);
    const auto [u16a, u16b] = pair(u16);
    const auto [i32a, i32b] = pair(i32);
    const auto [u32a, u32b] = pair(u32);
    const auto [i64a, i64b] = pair(i64);
    const auto [u64a, u64b] = pair(u64);

    std::vector<std::pair<std::string, InstrPtr>> cases;
    auto add = [&](const std::string &label, InstrPtr p) {
        cases.emplace_back(label, std::move(p));
    };
    // Products: one dword multiply where both factors fit 32 bits
    // (UINT32_MAX^2 wraps in the carrier as vpmuludq's does), the full
    // form otherwise (u32 x i16, 64-bit factors, a 2^33 weight).
    add("mpyi-u32", Instr::make(Opcode::VMpyi, {u32a, u32b}));
    add("mpyi-i32", Instr::make(Opcode::VMpyi, {i32a, i32b}));
    add("mpy-i32", Instr::make(Opcode::VMpy, {i32a, i32b}));
    add("mpy-u32", Instr::make(Opcode::VMpy, {u32a, u32b}));
    add("mpyie-i32", Instr::make(Opcode::VMpyIE, {i32a, vread(1, u16, 32)}));
    add("mpyie-u32", Instr::make(Opcode::VMpyIE, {u32a, vread(1, u16, 32)}));
    add("mpyio-i32", Instr::make(Opcode::VMpyIO, {i32a, vread(1, i16, 32)}));
    add("mpyio-u32-i16",
        Instr::make(Opcode::VMpyIO, {u32a, vread(1, i16, 32)}));
    add("mpyio-u32-u16",
        Instr::make(Opcode::VMpyIO, {u32a, vread(1, u16, 32)}));
    add("mpyi-i64", Instr::make(Opcode::VMpyi, {i64a, i64b}));
    add("mpyi-u64", Instr::make(Opcode::VMpyi, {u64a, u64b}));
    add("mpa-i32-wide-weight",
        Instr::make(Opcode::VMpa, {i32a, i32b}, {-5, 1LL << 33}));
    // min, max and saturation across INT32_MIN/INT32_MAX and
    // 0/UINT32_MAX, and at 64 bits.
    for (const auto &[name, x, y] :
         {std::tuple{"i32", i32a, i32b}, std::tuple{"u32", u32a, u32b},
          std::tuple{"i64", i64a, i64b}, std::tuple{"u64", u64a, u64b},
          std::tuple{"u8", u8a, u8b}}) {
        add(std::string("min-") + name, Instr::make(Opcode::VMin, {x, y}));
        add(std::string("max-") + name, Instr::make(Opcode::VMax, {x, y}));
        add(std::string("add-sat-") + name,
            Instr::make(Opcode::VAddSat, {x, y}));
        add(std::string("sub-sat-") + name,
            Instr::make(Opcode::VSubSat, {x, y}));
    }
    add("sat-i32-i16", Instr::make(Opcode::VSat, {i32a, i32b}, {}, i16));
    add("sat-i32-u16", Instr::make(Opcode::VSat, {i32a, i32b}, {}, u16));
    add("pack-sat-i64-u32",
        Instr::make(Opcode::VPackSat, {i64a, i64b}, {}, u32));
    add("sat-i64-i32", Instr::make(Opcode::VSat, {i64a, i64b}, {}, i32));
    add("sat-u32-u16", Instr::make(Opcode::VSat, {u32a, u32b}, {}, u16));
    add("asr-narrow-sat-i32",
        Instr::make(Opcode::VAsrNarrowSat, {i32a, i32b}, {3}, i16));
    add("asr-narrow-rnd-sat-i32",
        Instr::make(Opcode::VAsrNarrowRndSat, {i32a, i32b}, {3}, u16));
    add("round-sat-i32", Instr::make(Opcode::VRoundSat, {i32a, i32b}, {}, i16));
    // Averages: add-and-shift where no sum is negative, and no wrap
    // where every average is in the type.
    for (const auto &[name, x, y] :
         {std::tuple{"u8", u8a, u8b}, std::tuple{"i16", i16a, i16b},
          std::tuple{"u32", u32a, u32b}, std::tuple{"i64", i64a, i64b},
          std::tuple{"u64", u64a, u64b}}) {
        add(std::string("avg-") + name, Instr::make(Opcode::VAvg, {x, y}));
        add(std::string("avg-rnd-") + name,
            Instr::make(Opcode::VAvgRnd, {x, y}));
        add(std::string("navg-") + name, Instr::make(Opcode::VNavg, {x, y}));
    }
    // Shifts: asr of non-negative values is logical; carriers with the
    // top bit set (i16 negatives, u64 past 2^63) are not; asl of
    // non-negative lanes must not take asr's form; lsr skips the
    // zero-fill of values already inside the type.
    for (const auto &[name, x] :
         {std::pair{"i16", i16a}, std::pair{"u16", u16a},
          std::pair{"u32", u32a}, std::pair{"u64", u64a},
          std::pair{"i64", i64a}}) {
        for (int n : {1, 7, 15}) {
            const std::string by = std::string(name) + "-" + std::to_string(n);
            add("asr-" + by, Instr::make(Opcode::VAsr, {x}, {n}));
            add("asr-rnd-" + by, Instr::make(Opcode::VAsrRnd, {x}, {n}));
            add("asl-" + by, Instr::make(Opcode::VAsl, {x}, {n}));
            add("lsr-" + by, Instr::make(Opcode::VLsr, {x}, {n}));
        }
    }
    add("asl-u8-7", Instr::make(Opcode::VAsl, {u8a}, {7}));
    add("asr-rnd-u32-31", Instr::make(Opcode::VAsrRnd, {u32a}, {31}));
    add("asr-rnd-u64-63", Instr::make(Opcode::VAsrRnd, {u64a}, {63}));
    // Wraps that widening or bitwise ops cannot need.
    add("zxt-u32", Instr::make(Opcode::VZxt, {u32a}));
    add("and-i32", Instr::make(Opcode::VAnd, {i32a, i32b}));
    add("xor-u32", Instr::make(Opcode::VXor, {u32a, u32b}));
    add("not-u16", Instr::make(Opcode::VNot, {u16a}));

    for (const auto &[label, prog] : cases) {
        SCOPED_TRACE(label);
        for (uint64_t seed : {5u, 6u})
            expect_jit_matches_interp(prog, {}, seed, boundary_image);
    }
}

// At the AVX2 tier a computing node's groups form runs, each emitted
// once as a loop body: the node's code does not grow with its lanes,
// only its loads' (vmem stays unrolled).
TEST(Jit, NodeCodeDoesNotGrowWithLanes)
{
    SKIP_IF_NO_JIT();
    ScopedEnv clear("RAKE_JIT_SIMD", nullptr);
    if (jit::simd_level() != jit::SimdLevel::Avx2)
        GTEST_SKIP() << "no avx2 on this host";
    const auto size = [](const InstrPtr &p) {
        return jit::Program::compile(p)->code_size();
    };
    const auto loads = [&](int lanes) {
        return size(vread(0, u8, lanes)) + size(vread(1, u8, lanes, 1));
    };
    for (const Opcode op : {Opcode::VAdd, Opcode::VMpy}) {
        SCOPED_TRACE(to_string(op));
        const auto node = [&](int lanes) {
            return size(hvx::Instr::make(
                op, {vread(0, u8, lanes), vread(1, u8, lanes, 1)}));
        };
        EXPECT_LE(node(256) - node(128), loads(256) - loads(128));
    }
}

// Runs that break or change stride inside a node, at every tier:
// widening ops read stride-2 slots, one run per half; a node reads
// through a valign across its operands' boundary or through a vcombine
// of two vmems (whose runs are adjacent or padded apart); and lane
// counts of one group, a group and a tail, three groups, and 33.
TEST(Jit, RunsThatBreakOrChangeStrideMatchInterpreter)
{
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    std::vector<std::pair<std::string, InstrPtr>> cases;
    auto add = [&](const std::string &label, InstrPtr p) {
        cases.emplace_back(label, std::move(p));
    };
    for (int lanes : {4, 6, 12, 16, 132}) {
        const std::string at = "-" + std::to_string(lanes);
        const InstrPtr a = vread(0, u8, lanes);
        const InstrPtr b = vread(1, u8, lanes, 1);
        const InstrPtr c = vread(2, u8, lanes, -1);
        const InstrPtr as = vread(0, i16, lanes, 2);
        const InstrPtr bs = vread(1, i16, lanes, -2, 1);
        add("add" + at, Instr::make(Opcode::VAdd, {a, b}));
        add("zxt" + at, Instr::make(Opcode::VZxt, {a}));
        add("sxt" + at, Instr::make(Opcode::VSxt, {vread(0, i8, lanes)}));
        add("mpy" + at, Instr::make(Opcode::VMpy, {a, b}));
        add("mpa" + at, Instr::make(Opcode::VMpa, {a, b}, {3, -2}));
        add("avg-rnd" + at, Instr::make(Opcode::VAvgRnd, {a, b}));
        add("asr-rnd" + at, Instr::make(Opcode::VAsrRnd, {as}, {3}));
        add("pack-sat" + at, Instr::make(Opcode::VPackSat, {as, bs}, {}, u8));
        add("mpyi" + at, Instr::make(Opcode::VMpyi, {as, bs}));
        for (int r : {1, 4, 5}) {
            if (r >= lanes)
                continue;
            const std::string by = at + "-" + std::to_string(r);
            add("add-align" + by,
                Instr::make(Opcode::VAdd,
                            {Instr::make(Opcode::VAlign, {a, b}, {r}), c}));
            add("max-two-aligns" + by,
                Instr::make(Opcode::VMax,
                            {Instr::make(Opcode::VAlign, {a, b}, {r}),
                             Instr::make(Opcode::VAlign, {b, a}, {r})}));
        }
        const InstrPtr ab = Instr::make(Opcode::VCombine, {a, b});
        const InstrPtr ba = Instr::make(Opcode::VCombine, {b, a});
        add("sub-combines" + at, Instr::make(Opcode::VSub, {ab, ba}));
        add("add-combine-self" + at, Instr::make(Opcode::VAdd, {ab, ab}));
        add("mpy-combine" + at, Instr::make(Opcode::VMpy, {ab, ba}));
    }
    for (const auto &[label, prog] : cases) {
        SCOPED_TRACE(label);
        for (uint64_t seed : {3u, 4u})
            expect_jit_matches_interp(prog, {}, seed);
    }
}

TEST(Jit, SplatsRebindPerEnvironment)
{
    SKIP_IF_NO_JIT();
    using namespace rake::hir;
    InstrPtr splat =
        hvx::Instr::make_splat((var("bias", i16) * 2).ptr(), 8);
    InstrPtr prog = hvx::Instr::make(
        Opcode::VAdd, {vread(0, i16, 8), splat});
    expect_jit_matches_interp(prog, {{"bias", 100}});
    expect_jit_matches_interp(prog, {{"bias", -3000}});
    // Same compiled program across two binds (run_tiles_jit compiles
    // fresh, so exercise the rebind path directly).
    auto compiled = jit::Program::compile(prog);
    Env env1, env2;
    Buffer buf(i16, 8, 1);
    for (int i = 0; i < 8; ++i)
        buf.data[i] = i;
    env1.buffers.emplace(0, buf);
    env1.scalars.emplace("bias", int64_t{10});
    env2.buffers.emplace(0, buf);
    env2.scalars.emplace("bias", int64_t{20});
    compiled->bind(env1);
    const int64_t lane0_env1 = compiled->run(0, 0)[0];
    compiled->bind(env2);
    const int64_t lane0_env2 = compiled->run(0, 0)[0];
    EXPECT_EQ(lane0_env1, 0 + 20);
    EXPECT_EQ(lane0_env2, 0 + 40);

    // A splat as the whole program: its bound slots are copied to the
    // output row, a group and a tail.
    const InstrPtr bare =
        hvx::Instr::make_splat((var("bias", i16) * 2).ptr(), 6);
    for (const char *tier : simd_tiers()) {
        SCOPED_TRACE(tier);
        ScopedEnv force("RAKE_JIT_SIMD", tier);
        auto p = jit::Program::compile(bare);
        p->bind(env2);
        EXPECT_EQ(p->run(0, 0), hvx::evaluate(bare, env2));
    }
}

TEST(Jit, AllSimdTiersAgree)
{
    SKIP_IF_NO_JIT();
    using hvx::Instr;
    // Element-wise ops at a width that leaves a tail after one lane
    // group; the images are eight tiles wide, so interior tiles run
    // the packed loads too.
    std::vector<InstrPtr> progs = {
        Instr::make(Opcode::VAdd, {vread(0, i16, 6), vread(1, i16, 6)}),
        Instr::make(Opcode::VSub, {vread(0, u8, 6), vread(1, u8, 6)}),
        Instr::make(Opcode::VXor, {vread(0, i32, 6), vread(1, i32, 6)}),
        Instr::make(Opcode::VNot, {vread(0, i16, 6)}),
        Instr::make(Opcode::VAnd, {vread(0, u16, 6), vread(1, u16, 6)}),
        Instr::make(Opcode::VOr, {vread(0, u16, 6), vread(1, u16, 6)}),
    };
    const std::vector<const char *> tiers = simd_tiers();
    for (const InstrPtr &prog : progs) {
        std::map<int, ScalarType> loads;
        std::set<const hvx::Instr *> seen;
        collect_hvx_loads(prog, loads, seen);
        std::map<int, Image> inputs;
        for (const auto &[id, elem] : loads)
            inputs.emplace(id, random_image(elem, 8 * 6, 3, 5 + id));
        const Image want = run_tiles(prog, inputs);
        for (const char *tier : tiers) {
            SCOPED_TRACE(tier);
            ScopedEnv force("RAKE_JIT_SIMD", tier);
            auto compiled = jit::Program::compile(prog);
            EXPECT_EQ(to_string(compiled->simd()), tier);
            const Image got = run_tiles_jit(prog, inputs);
            EXPECT_EQ(count_mismatches(want, got), 0);
        }
    }
}

TEST(Jit, RandomBaselineProgramsMatchInterpreter)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    int checked = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        test::ExprGen gen(seed, 16);
        hir::ExprPtr e = gen.gen(4);
        InstrPtr code = baseline::select_instructions(e, target);
        ASSERT_NE(code, nullptr);
        std::map<int, ScalarType> loads;
        collect_hvx_loads(e, loads);
        std::map<int, Image> inputs;
        for (const auto &[id, elem] : loads)
            inputs.emplace(id, random_image(elem, 32, 3, seed * 7 + id));
        if (inputs.empty())
            continue; // constant expression; no image grid to run on
        std::map<std::string, int64_t> scalars;
        for (const std::string &v : hir::collect_vars(e))
            scalars.emplace(v, static_cast<int64_t>(seed) * 3 - 5);
        const Image want = run_tiles(code, inputs, scalars);
        const Image got = run_tiles_jit(code, inputs, scalars);
        EXPECT_EQ(count_mismatches(want, got), 0) << "seed " << seed;
        ++checked;
    }
    EXPECT_GT(checked, 20);
}

TEST(Jit, EveryFlatBenchmarkMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : benchmark_suite()) {
        SCOPED_TRACE(b.name);
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(k.name);
            InstrPtr code = baseline::select_instructions(k.expr, target);
            ASSERT_NE(code, nullptr);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(k.expr, loads);
            const int lanes = code->type().lanes;
            std::map<int, Image> inputs;
            uint64_t seed = 31;
            for (const auto &[id, elem] : loads)
                inputs.emplace(id,
                               random_image(elem, lanes * 2, 3, seed++));
            std::map<std::string, int64_t> scalars;
            for (const std::string &v : hir::collect_vars(k.expr))
                scalars.emplace(v, 5);
            const Image want = run_tiles(code, inputs, scalars);
            const Image got = run_tiles_jit(code, inputs, scalars);
            EXPECT_EQ(count_mismatches(want, got), 0);
        }
    }
}

TEST(Jit, RakeSelectedProgramMatchesInterpreter)
{
    SKIP_IF_NO_JIT();
    hir::ExprPtr sobel = sobel_expr();
    auto rk = synth::select_instructions(sobel);
    ASSERT_TRUE(rk.has_value());
    std::map<int, ScalarType> loads;
    collect_hvx_loads(sobel, loads);
    std::map<int, Image> inputs;
    for (const auto &[id, elem] : loads)
        inputs.emplace(id, Image::synthetic(elem, 256, 8, 21));
    const Image want = run_tiles(rk->instr, inputs);
    const Image got = run_tiles_jit(rk->instr, inputs);
    EXPECT_EQ(count_mismatches(want, got), 0);
}

TEST(Jit, FusedDagSuiteMatchesReference)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : fused_suite()) {
        SCOPED_TRACE(b.name);
        const PipelineDag dag = from_benchmark(b);
        std::vector<InstrPtr> programs;
        int lanes = 1;
        for (const DagStage &s : dag.stages) {
            programs.push_back(
                baseline::select_instructions(s.expr, target));
            ASSERT_NE(programs.back(), nullptr) << s.name;
            lanes = std::max(lanes, s.expr->type().lanes);
        }
        std::map<std::string, int64_t> scalars;
        std::map<int, Image> inputs;
        uint64_t seed = 7;
        for (const DagStage &s : dag.stages) {
            for (const std::string &v : hir::collect_vars(s.expr))
                scalars.emplace(v, 5);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(s.expr, loads);
            for (const StageInput &in : s.inputs) {
                if (in.external < 0 || inputs.count(in.external))
                    continue;
                inputs.emplace(in.external,
                               Image::synthetic(loads.at(in.slot),
                                                lanes, 4, seed++));
            }
        }
        const Image expected = run_dag(dag, programs, inputs, scalars);
        const Image actual = run_dag_jit(dag, programs, inputs, scalars);
        EXPECT_EQ(count_mismatches(expected, actual), 0);
        // The unvalidated (timing) path computes the same pixels.
        JitRunOptions fast;
        fast.validate = false;
        const Image timed =
            run_dag_jit(dag, programs, inputs, scalars, fast);
        EXPECT_EQ(count_mismatches(expected, timed), 0);
    }
}

TEST(Jit, StructurallyEqualNodesShareOneSlot)
{
    // A selection read back from a disk entry or a rule table is an
    // s-expression parse that shares no nodes. It must compile to the
    // same code as the DAG it was printed from, not to one copy of a
    // shared node per use.
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + "/" + k.name);
            const InstrPtr code =
                baseline::select_instructions(k.expr, target);
            ASSERT_NE(code, nullptr);
            const InstrPtr parsed = hvx::parse_instr(hvx::to_sexpr(code));
            const auto shared = jit::Program::compile(code);
            const auto unshared = jit::Program::compile(parsed);
            EXPECT_EQ(shared->code_size(), unshared->code_size());

            std::map<int, ScalarType> loads;
            collect_hvx_loads(k.expr, loads);
            std::map<int, Image> inputs;
            uint64_t seed = 41;
            for (const auto &[id, elem] : loads)
                inputs.emplace(id, random_image(elem, code->type().lanes * 2,
                                                3, seed++));
            const std::map<std::string, int64_t> scalars =
                scalars_for(k.expr);
            const Image want = run_tiles(code, inputs, scalars);
            EXPECT_EQ(count_mismatches(
                          want, run_tiles_jit_with(*shared, inputs, scalars)),
                      0);
            EXPECT_EQ(count_mismatches(want, run_tiles_jit_with(
                                                 *unshared, inputs, scalars)),
                      0);
        }
    }
}

TEST(Jit, MultiBandFlatImagesMatchReferenceAtEveryTier)
{
    // 131 rows of 4 tiles: several bands, with rows left over. Every
    // pass is handed recycled storage full of test::kDirtyCell, so a
    // pixel no band writes shows.
    SKIP_IF_NO_JIT();
    hvx::Target target;
    const std::vector<const char *> tiers = simd_tiers();
    for (const Benchmark &b : benchmark_suite()) {
        for (const KernelExpr &k : b.exprs) {
            SCOPED_TRACE(b.name + "/" + k.name);
            const InstrPtr code =
                baseline::select_instructions(k.expr, target);
            ASSERT_NE(code, nullptr);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(k.expr, loads);
            std::map<int, Image> inputs;
            uint64_t seed = 53;
            for (const auto &[id, elem] : loads)
                inputs.emplace(id, random_image(elem, 4 * code->type().lanes,
                                                131, seed++));
            const std::map<std::string, int64_t> scalars =
                scalars_for(k.expr);
            const size_t cells = inputs.begin()->second.pixels.size();
            test::free_dirty_cells(cells);
            const Image want = run_tiles_reference(k.expr, inputs, scalars);
            EXPECT_FALSE(test::has_dirty_cell(want.pixels));
            test::free_dirty_cells(cells);
            EXPECT_EQ(count_mismatches(want, run_tiles(code, inputs, scalars)),
                      0);
            for (const char *tier : tiers) {
                SCOPED_TRACE(tier);
                ScopedEnv force("RAKE_JIT_SIMD", tier);
                // Two blocks: the jit image, then the interpreter image
                // it is validated against.
                test::free_dirty_cells(cells, 2);
                EXPECT_EQ(count_mismatches(
                              want, run_tiles_jit(code, inputs, scalars)),
                          0);
            }
        }
    }
}

TEST(Jit, MultiBandDagImagesMatchReference)
{
    SKIP_IF_NO_JIT();
    hvx::Target target;
    for (const Benchmark &b : fused_suite()) {
        SCOPED_TRACE(b.name);
        const PipelineDag dag = from_benchmark(b);
        std::vector<InstrPtr> programs;
        int lanes = 1;
        for (const DagStage &s : dag.stages) {
            programs.push_back(
                baseline::select_instructions(s.expr, target));
            ASSERT_NE(programs.back(), nullptr) << s.name;
            lanes = std::max(lanes, s.expr->type().lanes);
        }
        std::map<std::string, int64_t> scalars;
        std::map<int, Image> inputs;
        uint64_t seed = 61;
        for (const DagStage &s : dag.stages) {
            for (const std::string &v : hir::collect_vars(s.expr))
                scalars.emplace(v, 5);
            std::map<int, ScalarType> loads;
            collect_hvx_loads(s.expr, loads);
            for (const StageInput &in : s.inputs) {
                if (in.external < 0 || inputs.count(in.external))
                    continue;
                inputs.emplace(in.external,
                               Image::synthetic(loads.at(in.slot),
                                                4 * lanes, 131, seed++));
            }
        }
        // Every stage image (and, validating, its interpreter image)
        // is handed recycled storage full of test::kDirtyCell.
        const size_t cells = inputs.begin()->second.pixels.size();
        const int stages = static_cast<int>(dag.stages.size());
        test::free_dirty_cells(cells, stages);
        const Image want = run_dag_reference(dag, inputs, scalars);
        EXPECT_FALSE(test::has_dirty_cell(want.pixels));
        test::free_dirty_cells(cells, stages);
        EXPECT_EQ(count_mismatches(want, run_dag(dag, programs, inputs,
                                                 scalars)),
                  0);
        test::free_dirty_cells(cells, 2 * stages);
        EXPECT_EQ(count_mismatches(want, run_dag_jit(dag, programs, inputs,
                                                     scalars)),
                  0);
    }
}

TEST(Jit, RunnersOfOneProgramRunConcurrently)
{
    // One compiled program, one Runner per thread, each bound to its
    // own env (a different splat value): no runner sees another's.
    SKIP_IF_NO_JIT();
    using namespace rake::hir;
    const InstrPtr prog = hvx::Instr::make(
        Opcode::VAdd,
        {vread(0, i16, 8), hvx::Instr::make_splat(var("bias", i16).ptr(), 8)});
    const auto compiled = jit::Program::compile(prog);
    const Image img = random_image(i16, 32, 16, 3);
    std::vector<Value> got(8), want(8);
    const auto run_one = [&](int t) {
        Env env;
        env.buffers.emplace(0, Buffer::view_of(i16, img.width, img.height,
                                               img.pixels.data()));
        env.scalars.emplace("bias", int64_t{100} * t);
        jit::Runner runner(*compiled, env);
        Value out = Value::zero(prog->type());
        for (int y = 0; y < img.height; ++y)
            for (int x = 0; x < img.width; x += 8)
                runner.run(x, y, out.lanes.data());
        got[t] = out;
        env.x = img.width - 8;
        env.y = img.height - 1;
        want[t] = hvx::evaluate(prog, env);
    };
    std::vector<std::thread> runners;
    for (int t = 0; t < 8; ++t)
        runners.emplace_back(run_one, t);
    for (std::thread &r : runners)
        r.join();
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(got[t], want[t]) << "runner " << t;
}

#if !defined(__x86_64__)
TEST(Jit, UnavailableHostsRefuseCleanly)
{
    EXPECT_FALSE(jit::available());
    EXPECT_THROW(jit::Program::compile(vread(0, u8, 8)), UserError);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 16, 2, 1));
    EXPECT_THROW(run_tiles_jit(vread(0, u8, 8), inputs), UserError);
}
#endif

} // namespace
} // namespace rake
