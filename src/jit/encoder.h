/**
 * @file
 * A small x86-64 assembler: just the encodings the HVX-to-host
 * lowerer emits, appended to a byte vector.
 *
 * The shape follows the classic IR → machine-IR → encoder JIT
 * pipeline: lower.cc is the machine-IR layer (it decides which
 * instructions to emit), and this class is the encoder proper — one
 * method per instruction form, each writing REX/VEX/ModRM/SIB/
 * immediate bytes. Memory operands are always [base + disp32] or
 * [base + index*scale + disp32] with a scale of 1, 2, 4 or 8: uniform
 * encodings keep the emitter simple. Vector forms are AVX2
 * (VEX-encoded, ymm0-ymm15, four int64 lanes) plus the few 128-bit
 * forms a lane-by-lane gather needs.
 *
 * Control flow: jcc_forward()/jmp_forward() emit a rel32 jump that
 * land() patches to the current position, and jcc_back() jumps to an
 * earlier position (the loops: an edge tile's lanes, and a run of
 * lane groups emitted once as a loop body).
 * Relative jumps inside one buffer are position-independent and
 * nothing else refers to an absolute address, so sealing into an
 * ExecBuffer is a plain copy.
 */
#ifndef RAKE_JIT_ENCODER_H
#define RAKE_JIT_ENCODER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rake::jit {

/** General-purpose registers; values are the hardware encodings. */
enum class Reg : uint8_t {
    rax = 0,
    rcx = 1,
    rdx = 2,
    rbx = 3,
    rsp = 4,
    rbp = 5,
    rsi = 6,
    rdi = 7,
    r8 = 8,
    r9 = 9,
    r10 = 10,
    r11 = 11,
    r12 = 12,
    r13 = 13,
    r14 = 14,
    r15 = 15,
};

/** AVX registers ymm0..ymm15 (xmm0..xmm15 in the 128-bit forms). */
enum class Vreg : uint8_t {
    ymm0 = 0,
    ymm1 = 1,
    ymm2 = 2,
    ymm3 = 3,
    ymm4 = 4,
    ymm5 = 5,
    ymm6 = 6,
    ymm7 = 7,
    ymm8 = 8,
    ymm9 = 9,
    ymm10 = 10,
    ymm11 = 11,
    ymm12 = 12,
    ymm13 = 13,
    ymm14 = 14,
    ymm15 = 15,
};

/**
 * A memory operand [base + index*scale + disp]; rsp as index means
 * none. The scale is 1, 2, 4 or 8.
 */
struct Mem {
    Reg base = Reg::rax;
    int32_t disp = 0;
    Reg index = Reg::rsp;
    uint8_t scale = 1;
};

/** Condition codes (the low nibble of the 0F 4x / 0F 8x / 0F 9x opcodes). */
enum class Cond : uint8_t {
    e = 0x4,  ///< equal
    ne = 0x5, ///< not equal
    l = 0xC,  ///< signed less
    ge = 0xD, ///< signed greater-or-equal
    le = 0xE, ///< signed less-or-equal
    g = 0xF,  ///< signed greater
};

/** Packed 64-bit AVX2 ops of the form `dst = src1 op src2`. */
enum class VecOp : uint8_t {
    paddq,
    psubq,
    pand,
    por,
    pxor,
    pmuludq, ///< low 32 x low 32 -> 64, unsigned
    pmuldq,  ///< low 32 x low 32 -> 64, signed
    pminsd,  ///< dword-wise signed min
    pmaxsd,  ///< dword-wise signed max
    pminud,  ///< dword-wise unsigned min
    pmaxud,  ///< dword-wise unsigned max
    pcmpgtq, ///< signed greater: all-ones or zero
    pcmpeqq,
    psllvq, ///< shift left by per-lane counts (>= 64 gives 0)
    psrlvq, ///< logical shift right by per-lane counts
};

class Assembler
{
  public:
    const std::vector<uint8_t> &code() const { return code_; }
    size_t size() const { return code_.size(); }

    // --- stack / control ---
    void push(Reg r);
    void pop(Reg r);
    void ret();
    /** jcc rel32 with a zero offset; returns the position land() takes. */
    size_t jcc_forward(Cond cc);
    /** jmp rel32 with a zero offset; returns the position land() takes. */
    size_t jmp_forward();
    /** Point the jump emitted at `patch` to the current position. */
    void land(size_t patch);
    /** jcc rel32 back to `target`, an earlier size(). */
    void jcc_back(Cond cc, size_t target);

    // --- 64-bit moves ---
    void mov(Reg dst, Reg src);
    void mov_imm64(Reg dst, int64_t imm);
    /** mov dst, [base + disp] */
    void load(Reg dst, Reg base, int32_t disp);
    /** mov [base + disp], src */
    void store(Reg base, int32_t disp, Reg src);
    /** mov dst, [base + index*8 + disp] */
    void load_index8(Reg dst, Reg base, Reg index, int32_t disp = 0);
    /** mov [base + index*8 + disp], src */
    void store_index8(Reg base, Reg index, int32_t disp, Reg src);
    /** lea dst, [base + disp] */
    void lea(Reg dst, Reg base, int32_t disp);
    /** lea dst, [base + index*8 + disp] */
    void lea_index8(Reg dst, Reg base, Reg index, int32_t disp = 0);

    // --- 64-bit ALU (dst op= src) ---
    void add(Reg dst, Reg src);
    void sub(Reg dst, Reg src);
    void and_(Reg dst, Reg src);
    void or_(Reg dst, Reg src);
    void xor_(Reg dst, Reg src);
    void imul(Reg dst, Reg src);
    void cmp(Reg a, Reg b);
    void test(Reg a, Reg b);
    void not_(Reg r);
    void add_imm32(Reg dst, int32_t imm);
    void cmp_imm32(Reg a, int32_t imm);

    // --- shifts by compile-time amounts ---
    void shl_imm(Reg r, int n);
    void shr_imm(Reg r, int n);
    void sar_imm(Reg r, int n);

    // --- conditionals ---
    void cmov(Cond cc, Reg dst, Reg src);
    /** setcc on the low byte of r; the caller zeroes r first. */
    void setcc(Cond cc, Reg r);

    // --- AVX2 (256-bit, four int64 lanes) ---
    void vmovdqu(Vreg dst, const Mem &src);
    void vmovdqu(const Mem &dst, Vreg src);
    void vmovdqa(Vreg dst, Vreg src);
    void vop(VecOp op, Vreg dst, Vreg src1, Vreg src2);
    void vop(VecOp op, Vreg dst, Vreg src1, const Mem &src2);
    /** vpsllq dst, src, n */
    void vpsllq(Vreg dst, Vreg src, int n);
    /** vpsrlq dst, src, n */
    void vpsrlq(Vreg dst, Vreg src, int n);
    /** dst = mask's byte sign bits ? src2 : src1, byte by byte. */
    void vpblendvb(Vreg dst, Vreg src1, Vreg src2, Vreg mask);
    void vpblendvb(Vreg dst, Vreg src1, const Mem &src2, Vreg mask);
    /** dst = src's qwords in the order of imm's four 2-bit fields. */
    void vpermq(Vreg dst, const Mem &src, uint8_t imm);
    /** dst dword i = imm bit i ? src2 : src1. */
    void vpblendd(Vreg dst, Vreg src1, Vreg src2, uint8_t imm);
    /** dst's 128-bit half `half` = src's low half, the other = src1's. */
    void vinserti128(Vreg dst, Vreg src1, Vreg src, int half);
    // 128-bit forms (they zero the register's upper half).
    /** vmovq xmm, m64 */
    void vmovq(Vreg dst, const Mem &src);
    /** vpinsrq xmm dst, xmm src1, m64, lane */
    void vpinsrq(Vreg dst, Vreg src1, const Mem &src, int lane);
    void vzeroupper();

  private:
    void byte(uint8_t b) { code_.push_back(b); }
    void dword(int32_t v);
    void qword(int64_t v);
    void rex(bool w, uint8_t reg, uint8_t index, uint8_t rm);
    /** ModRM mod=11 register-direct form. */
    void modrm_reg(uint8_t reg, uint8_t rm);
    /** ModRM mod=10 [base + disp32] form (SIB when base needs it). */
    void modrm_mem(uint8_t reg, Reg base, int32_t disp);
    /** ModRM [base + index*scale + disp32] form. */
    void modrm_sib(uint8_t reg, Reg base, Reg index, int scale,
                   int32_t disp);
    void modrm(uint8_t reg, const Mem &m);
    /** Three-byte VEX prefix. map: 1 = 0F, 2 = 0F38, 3 = 0F3A. */
    void vex(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t reg,
             uint8_t vvvv, uint8_t index, uint8_t rm);
    void vex_rr(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t op,
                uint8_t reg, uint8_t vvvv, uint8_t rm);
    void vex_rm(uint8_t map, uint8_t pp, bool w, bool l256, uint8_t op,
                uint8_t reg, uint8_t vvvv, const Mem &m);

    std::vector<uint8_t> code_;
};

} // namespace rake::jit

#endif // RAKE_JIT_ENCODER_H
