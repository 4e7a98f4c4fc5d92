/**
 * @file
 * Neon lane semantics, written once over a lane algebra (base/arith.h)
 * for the interpreter (int64) and the z3 prover (bit-vectors). Neon's
 * compute ops read their operands lane for lane; only the data
 * movement ops remap lanes.
 */
#ifndef RAKE_NEON_SEMANTICS_H
#define RAKE_NEON_SEMANTICS_H

#include "neon/instr.h"
#include "support/error.h"

namespace rake::neon {

/**
 * Dispatch on n's opcode once and hand `body` that opcode's lane
 * function lane(i), which reads lane j of operand k through
 * arg(k, j); see hir::lane_semantics. Ld1, Dup and Hole are leaves
 * each caller evaluates.
 */
template <typename Alg, typename Arg, typename Body>
decltype(auto)
lane_semantics(const Alg &alg, const NInstr &n, const Arg &arg, Body &&body)
{
    const ScalarType s = n.type().elem;
    const int L = n.type().lanes;
    const int64_t *im = n.imms().data();
    auto x = [=](int i) { return arg(0, i); };
    auto y = [=](int i) { return arg(1, i); };
    auto imm = [=](int k) { return alg.lit(im[k]); };

    switch (n.op()) {
      case NOp::Bitcast:
      case NOp::Movl:
      case NOp::Xtn:
        return body([=](int i) { return alg.wrap(s, x(i)); });
      case NOp::Qxtn:
        return body([=](int i) { return alg.sat(s, x(i)); });
      case NOp::Shrn:
        return body(
            [=](int i) { return alg.wrap(s, alg.asr(x(i), imm(0), false)); });
      case NOp::Qrshrn:
        return body(
            [=](int i) { return alg.sat(s, alg.asr(x(i), imm(0), true)); });
      case NOp::Add:
        return body([=](int i) { return alg.wrap(s, alg.add(x(i), y(i))); });
      case NOp::Qadd:
        return body([=](int i) { return alg.sat(s, alg.add(x(i), y(i))); });
      case NOp::Sub:
        return body([=](int i) { return alg.wrap(s, alg.sub(x(i), y(i))); });
      case NOp::Mul:
      case NOp::Mull:
        return body([=](int i) { return alg.wrap(s, alg.mul(x(i), y(i))); });
      case NOp::Mla:
      case NOp::Mlal:
        return body([=](int i) {
            return alg.wrap(s, alg.add(x(i), alg.mul(y(i), arg(2, i))));
        });
      case NOp::Abd:
        return body(
            [=](int i) { return alg.wrap(s, alg.absd(x(i), y(i))); });
      case NOp::Min:
        return body([=](int i) { return alg.min(x(i), y(i)); });
      case NOp::Max:
        return body([=](int i) { return alg.max(x(i), y(i)); });
      case NOp::Hadd:
        return body([=](int i) { return alg.avg(s, x(i), y(i), false); });
      case NOp::Rhadd:
        return body([=](int i) { return alg.avg(s, x(i), y(i), true); });
      case NOp::Shl:
        return body([=](int i) { return alg.shl(s, x(i), imm(0)); });
      case NOp::Sshr:
        return body(
            [=](int i) { return alg.wrap(s, alg.asr(x(i), imm(0), false)); });
      case NOp::Ushr:
        return body([=](int i) { return alg.lsr(s, x(i), imm(0)); });
      case NOp::Rshr:
        return body(
            [=](int i) { return alg.wrap(s, alg.asr(x(i), imm(0), true)); });
      case NOp::Cmgt:
        return body([=](int i) { return alg.gt(x(i), y(i)); });
      case NOp::Cmeq:
        return body([=](int i) { return alg.eq(x(i), y(i)); });
      case NOp::Bsl:
        return body([=](int i) { return alg.select(x(i), y(i), arg(2, i)); });
      case NOp::And:
        return body(
            [=](int i) { return alg.wrap(s, alg.and_(x(i), y(i))); });
      case NOp::Orr:
        return body([=](int i) { return alg.wrap(s, alg.or_(x(i), y(i))); });
      case NOp::Eor:
        return body(
            [=](int i) { return alg.wrap(s, alg.xor_(x(i), y(i))); });
      case NOp::Not:
        return body([=](int i) { return alg.wrap(s, alg.not_(x(i))); });
      case NOp::Lo:
        return body(x);
      case NOp::Hi:
        return body([=](int i) { return x(i + L); });
      case NOp::Combine:
        return body([=, la = n.arg(0)->type().lanes](int i) {
            return i < la ? x(i) : y(i - la);
        });
      case NOp::Ext:
        return body([=, r = static_cast<int>(im[0])](int i) {
            return i + r < L ? x(i + r) : y(i + r - L);
        });
      case NOp::Zip:
        return body([=](int i) {
            return i % 2 == 0 ? x(i / 2) : x(L / 2 + i / 2);
        });
      case NOp::Uzp:
        return body([=](int i) {
            const int h = L / 2;
            return i < h ? x(2 * i) : x(2 * (i - h) + 1);
        });
      case NOp::Rev:
        return body([=](int i) { return x(L - 1 - i); });
      case NOp::Tbl:
        // Out-of-range indices read as zero (vtbl semantics).
        return body([=, tl = n.arg(0)->type().lanes](int i) {
            const int64_t idx = im[i];
            return idx >= 0 && idx < tl ? x(static_cast<int>(idx))
                                        : alg.lit(0);
        });
      case NOp::Ld1:
      case NOp::Dup:
      case NOp::Hole:
        break;
    }
    RAKE_UNREACHABLE("Neon leaf " << to_string(n.op())
                                  << " has no lane function");
}

} // namespace rake::neon

#endif // RAKE_NEON_SEMANTICS_H
