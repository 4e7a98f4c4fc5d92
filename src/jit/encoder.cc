#include "jit/encoder.h"

#include <bit>
#include <climits>

#include "support/error.h"

namespace rake::jit {

namespace {

uint8_t
num(Reg r)
{
    return static_cast<uint8_t>(r);
}

uint8_t
num(Vreg r)
{
    return static_cast<uint8_t>(r);
}

} // namespace

void
Assembler::dword(int32_t v)
{
    const uint32_t u = static_cast<uint32_t>(v);
    byte(static_cast<uint8_t>(u));
    byte(static_cast<uint8_t>(u >> 8));
    byte(static_cast<uint8_t>(u >> 16));
    byte(static_cast<uint8_t>(u >> 24));
}

void
Assembler::qword(int64_t v)
{
    const uint64_t u = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i)
        byte(static_cast<uint8_t>(u >> (8 * i)));
}

void
Assembler::rex(bool w, uint8_t reg, uint8_t index, uint8_t rm)
{
    const uint8_t b = 0x40 | (w ? 0x08 : 0) | ((reg & 8) ? 0x04 : 0) |
                      ((index & 8) ? 0x02 : 0) | ((rm & 8) ? 0x01 : 0);
    // A REX prefix is mandatory for 64-bit operands; otherwise only
    // when an extended register needs its high bit.
    if (w || b != 0x40)
        byte(b);
}

void
Assembler::modrm_reg(uint8_t reg, uint8_t rm)
{
    byte(0xC0 | ((reg & 7) << 3) | (rm & 7));
}

void
Assembler::modrm_mem(uint8_t reg, Reg base, int32_t disp)
{
    // mod=10 ([base + disp32]) always: uniform and never ambiguous.
    // rm=100 selects a SIB byte, so rsp/r12 bases must route through
    // one (index=100 means "no index").
    if ((num(base) & 7) == 4) {
        byte(0x84 | ((reg & 7) << 3));
        byte(0x24);
    } else {
        byte(0x80 | ((reg & 7) << 3) | (num(base) & 7));
    }
    dword(disp);
}

void
Assembler::modrm_sib(uint8_t reg, Reg base, Reg index, int scale,
                     int32_t disp)
{
    RAKE_CHECK(index != Reg::rsp, "rsp cannot be an index");
    RAKE_CHECK(scale == 1 || scale == 2 || scale == 4 || scale == 8,
               "bad scale " << scale);
    const int ss = std::countr_zero(static_cast<unsigned>(scale));
    byte(0x84 | ((reg & 7) << 3)); // mod=10, rm=100 (SIB follows)
    byte(static_cast<uint8_t>((ss << 6) | ((num(index) & 7) << 3) |
                              (num(base) & 7)));
    dword(disp);
}

void
Assembler::push(Reg r)
{
    if (num(r) & 8)
        byte(0x41);
    byte(0x50 + (num(r) & 7));
}

void
Assembler::pop(Reg r)
{
    if (num(r) & 8)
        byte(0x41);
    byte(0x58 + (num(r) & 7));
}

void
Assembler::ret()
{
    byte(0xC3);
}

void
Assembler::mov(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x8B);
    modrm_reg(num(dst), num(src));
}

void
Assembler::mov_imm64(Reg dst, int64_t imm)
{
    rex(true, 0, 0, num(dst));
    byte(0xB8 + (num(dst) & 7));
    qword(imm);
}

void
Assembler::load(Reg dst, Reg base, int32_t disp)
{
    rex(true, num(dst), 0, num(base));
    byte(0x8B);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::store(Reg base, int32_t disp, Reg src)
{
    rex(true, num(src), 0, num(base));
    byte(0x89);
    modrm_mem(num(src), base, disp);
}

void
Assembler::load_index8(Reg dst, Reg base, Reg index, int32_t disp)
{
    rex(true, num(dst), num(index), num(base));
    byte(0x8B);
    modrm_sib(num(dst), base, index, 8, disp);
}

void
Assembler::store_index8(Reg base, Reg index, int32_t disp, Reg src)
{
    rex(true, num(src), num(index), num(base));
    byte(0x89);
    modrm_sib(num(src), base, index, 8, disp);
}

void
Assembler::lea(Reg dst, Reg base, int32_t disp)
{
    rex(true, num(dst), 0, num(base));
    byte(0x8D);
    modrm_mem(num(dst), base, disp);
}

void
Assembler::lea_index8(Reg dst, Reg base, Reg index, int32_t disp)
{
    rex(true, num(dst), num(index), num(base));
    byte(0x8D);
    modrm_sib(num(dst), base, index, 8, disp);
}

namespace {

/** "r64, r/m64" ALU opcode bytes. */
constexpr uint8_t kAdd = 0x03, kSub = 0x2B, kAnd = 0x23, kOr = 0x0B,
                  kXor = 0x33, kCmp = 0x3B;

} // namespace

void
Assembler::add(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kAdd);
    modrm_reg(num(dst), num(src));
}

void
Assembler::sub(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kSub);
    modrm_reg(num(dst), num(src));
}

void
Assembler::and_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kAnd);
    modrm_reg(num(dst), num(src));
}

void
Assembler::or_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kOr);
    modrm_reg(num(dst), num(src));
}

void
Assembler::xor_(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(kXor);
    modrm_reg(num(dst), num(src));
}

void
Assembler::imul(Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x0F);
    byte(0xAF);
    modrm_reg(num(dst), num(src));
}

void
Assembler::cmp(Reg a, Reg b)
{
    rex(true, num(a), 0, num(b));
    byte(kCmp);
    modrm_reg(num(a), num(b));
}

void
Assembler::test(Reg a, Reg b)
{
    rex(true, num(b), 0, num(a));
    byte(0x85);
    modrm_reg(num(b), num(a));
}

void
Assembler::not_(Reg r)
{
    rex(true, 0, 0, num(r));
    byte(0xF7);
    modrm_reg(2, num(r));
}

void
Assembler::add_imm32(Reg dst, int32_t imm)
{
    rex(true, 0, 0, num(dst));
    byte(0x81);
    modrm_reg(0, num(dst));
    dword(imm);
}

void
Assembler::cmp_imm32(Reg a, int32_t imm)
{
    rex(true, 0, 0, num(a));
    byte(0x81);
    modrm_reg(7, num(a));
    dword(imm);
}

void
Assembler::shl_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(4, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::shr_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(5, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::sar_imm(Reg r, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    rex(true, 0, 0, num(r));
    byte(0xC1);
    modrm_reg(7, num(r));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::cmov(Cond cc, Reg dst, Reg src)
{
    rex(true, num(dst), 0, num(src));
    byte(0x0F);
    byte(0x40 | static_cast<uint8_t>(cc));
    modrm_reg(num(dst), num(src));
}

void
Assembler::setcc(Cond cc, Reg r)
{
    // A REX prefix selects spl/bpl/sil/dil (and r8b-r15b) instead of
    // ah/ch/dh/bh.
    if (num(r) >= 4)
        byte(0x40 | ((num(r) & 8) ? 0x01 : 0));
    byte(0x0F);
    byte(0x90 | static_cast<uint8_t>(cc));
    modrm_reg(0, num(r));
}

size_t
Assembler::jcc_forward(Cond cc)
{
    byte(0x0F);
    byte(0x80 | static_cast<uint8_t>(cc));
    const size_t at = size();
    dword(0);
    return at;
}

size_t
Assembler::jmp_forward()
{
    byte(0xE9);
    const size_t at = size();
    dword(0);
    return at;
}

void
Assembler::land(size_t patch)
{
    RAKE_CHECK(patch + 4 <= size(), "jump patched past the code");
    const int64_t rel = static_cast<int64_t>(size()) -
                        static_cast<int64_t>(patch + 4);
    RAKE_CHECK(rel >= 0 && rel <= INT32_MAX, "jump out of rel32 range");
    const uint32_t u = static_cast<uint32_t>(rel);
    for (int i = 0; i < 4; ++i)
        code_[patch + i] = static_cast<uint8_t>(u >> (8 * i));
}

void
Assembler::jcc_back(Cond cc, size_t target)
{
    RAKE_CHECK(target <= size(), "backward jump to a later position");
    byte(0x0F);
    byte(0x80 | static_cast<uint8_t>(cc));
    const int64_t rel = static_cast<int64_t>(target) -
                        static_cast<int64_t>(size() + 4);
    RAKE_CHECK(rel >= INT32_MIN, "jump out of rel32 range");
    dword(static_cast<int32_t>(rel));
}

void
Assembler::modrm(uint8_t reg, const Mem &m)
{
    if (m.index == Reg::rsp)
        modrm_mem(reg, m.base, m.disp);
    else
        modrm_sib(reg, m.base, m.index, m.scale, m.disp);
}

void
Assembler::vex(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t reg,
               uint8_t vvvv, uint8_t index, uint8_t rm)
{
    byte(0xC4);
    // Inverted R/X/B, then the opcode map.
    byte(static_cast<uint8_t>(((reg & 8) ? 0 : 0x80) |
                              ((index & 8) ? 0 : 0x40) |
                              ((rm & 8) ? 0 : 0x20) | map));
    // W, inverted vvvv, L, pp.
    byte(static_cast<uint8_t>((w ? 0x80 : 0) | ((~vvvv & 0xF) << 3) |
                              (l256 ? 4 : 0) | pp));
}

void
Assembler::vex_rr(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t op,
                  uint8_t reg, uint8_t vvvv, uint8_t rm)
{
    vex(map, pp, w, l256, reg, vvvv, 0, rm);
    byte(op);
    modrm_reg(reg, rm);
}

void
Assembler::vex_rm(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t op,
                  uint8_t reg, uint8_t vvvv, const Mem &m)
{
    const uint8_t index = m.index == Reg::rsp ? 0 : num(m.index);
    vex(map, pp, w, l256, reg, vvvv, index, num(m.base));
    byte(op);
    modrm(reg, m);
}

namespace {

// VEX prefixes: pp (implied 66/F3) and opcode maps.
constexpr uint8_t k66 = 1, kF3 = 2;
constexpr uint8_t k0F = 1, k0F38 = 2, k0F3A = 3;

struct VecOpCode {
    uint8_t map;
    uint8_t op;
    bool w;
};

VecOpCode
code_of(VecOp op)
{
    switch (op) {
      case VecOp::paddq:
        return {k0F, 0xD4, false};
      case VecOp::psubq:
        return {k0F, 0xFB, false};
      case VecOp::pand:
        return {k0F, 0xDB, false};
      case VecOp::por:
        return {k0F, 0xEB, false};
      case VecOp::pxor:
        return {k0F, 0xEF, false};
      case VecOp::pmuludq:
        return {k0F, 0xF4, false};
      case VecOp::pmuldq:
        return {k0F38, 0x28, false};
      case VecOp::pminsd:
        return {k0F38, 0x39, false};
      case VecOp::pmaxsd:
        return {k0F38, 0x3D, false};
      case VecOp::pminud:
        return {k0F38, 0x3B, false};
      case VecOp::pmaxud:
        return {k0F38, 0x3F, false};
      case VecOp::pcmpgtq:
        return {k0F38, 0x37, false};
      case VecOp::pcmpeqq:
        return {k0F38, 0x29, false};
      case VecOp::psllvq:
        return {k0F38, 0x47, true};
      case VecOp::psrlvq:
        return {k0F38, 0x45, true};
    }
    RAKE_UNREACHABLE("bad VecOp");
}

} // namespace

void
Assembler::vmovdqu(Vreg dst, const Mem &src)
{
    vex_rm(k0F, kF3, false, true, 0x6F, num(dst), 0, src);
}

void
Assembler::vmovdqu(const Mem &dst, Vreg src)
{
    vex_rm(k0F, kF3, false, true, 0x7F, num(src), 0, dst);
}

void
Assembler::vmovdqa(Vreg dst, Vreg src)
{
    vex_rr(k0F, k66, false, true, 0x6F, num(dst), 0, num(src));
}

void
Assembler::vop(VecOp op, Vreg dst, Vreg src1, Vreg src2)
{
    const VecOpCode c = code_of(op);
    vex_rr(c.map, k66, c.w, true, c.op, num(dst), num(src1), num(src2));
}

void
Assembler::vop(VecOp op, Vreg dst, Vreg src1, const Mem &src2)
{
    const VecOpCode c = code_of(op);
    vex_rm(c.map, k66, c.w, true, c.op, num(dst), num(src1), src2);
}

void
Assembler::vpsllq(Vreg dst, Vreg src, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    vex_rr(k0F, k66, false, true, 0x73, 6, num(dst), num(src));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::vpsrlq(Vreg dst, Vreg src, int n)
{
    RAKE_CHECK(n > 0 && n < 64, "bad shift " << n);
    vex_rr(k0F, k66, false, true, 0x73, 2, num(dst), num(src));
    byte(static_cast<uint8_t>(n));
}

void
Assembler::vpblendvb(Vreg dst, Vreg src1, Vreg src2, Vreg mask)
{
    vex_rr(k0F3A, k66, false, true, 0x4C, num(dst), num(src1), num(src2));
    byte(static_cast<uint8_t>(num(mask) << 4));
}

void
Assembler::vpblendvb(Vreg dst, Vreg src1, const Mem &src2, Vreg mask)
{
    vex_rm(k0F3A, k66, false, true, 0x4C, num(dst), num(src1), src2);
    byte(static_cast<uint8_t>(num(mask) << 4));
}

void
Assembler::vpermq(Vreg dst, const Mem &src, uint8_t imm)
{
    vex_rm(k0F3A, k66, true, true, 0x00, num(dst), 0, src);
    byte(imm);
}

void
Assembler::vpblendd(Vreg dst, Vreg src1, Vreg src2, uint8_t imm)
{
    vex_rr(k0F3A, k66, false, true, 0x02, num(dst), num(src1), num(src2));
    byte(imm);
}

void
Assembler::vinserti128(Vreg dst, Vreg src1, Vreg src, int half)
{
    RAKE_CHECK(half == 0 || half == 1, "bad half " << half);
    vex_rr(k0F3A, k66, false, true, 0x38, num(dst), num(src1), num(src));
    byte(static_cast<uint8_t>(half));
}

void
Assembler::vmovq(Vreg dst, const Mem &src)
{
    vex_rm(k0F, kF3, false, false, 0x7E, num(dst), 0, src);
}

void
Assembler::vpinsrq(Vreg dst, Vreg src1, const Mem &src, int lane)
{
    RAKE_CHECK(lane == 0 || lane == 1, "bad lane " << lane);
    vex_rm(k0F3A, k66, true, false, 0x22, num(dst), num(src1), src);
    byte(static_cast<uint8_t>(lane));
}

void
Assembler::vzeroupper()
{
    byte(0xC5);
    byte(0xF8);
    byte(0x77);
}

} // namespace rake::jit
