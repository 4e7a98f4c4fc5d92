/**
 * @file
 * HVX lane semantics, written once over a lane algebra (base/arith.h)
 * for the interpreter (int64) and the z3 prover (bit-vectors). Each
 * opcode family's entry says which operand lanes an output lane reads
 * and how it combines them.
 */
#ifndef RAKE_HVX_SEMANTICS_H
#define RAKE_HVX_SEMANTICS_H

#include "hvx/instr.h"
#include "support/error.h"

namespace rake::hvx {

/**
 * Dispatch on n's opcode once and hand `body` that opcode's lane
 * function lane(i), which reads lane j of operand k through
 * arg(k, j); see hir::lane_semantics. VRead, VSplat and Hole are
 * leaves each caller evaluates.
 */
template <typename Alg, typename Arg, typename Body>
decltype(auto)
lane_semantics(const Alg &alg, const Instr &n, const Arg &arg, Body &&body)
{
    const ScalarType s = n.type().elem;
    const int L = n.type().lanes;
    const int64_t *im = n.imms().data();
    const int l0 = n.num_args() > 0 ? n.arg(0)->type().lanes : 0;
    const int l1 = n.num_args() > 1 ? n.arg(1)->type().lanes : 0;
    const ScalarType in = n.num_args() > 0 ? n.arg(0)->type().elem : s;
    auto x = [=](int i) { return arg(0, i); };
    auto y = [=](int i) { return arg(1, i); };
    auto imm = [=](int k) { return alg.lit(im[k]); };

    // Lane of the concatenation of operands 0 and 1 (and of 1 and 2,
    // for the accumulating sliding windows).
    auto cat = [=](int j) { return j < l0 ? x(j) : y(j - l0); };
    auto cat12 = [=](int j) { return j < l1 ? y(j) : arg(2, j - l1); };

    // HVX widening instructions write *deinterleaved* register pairs:
    // results of even input lanes land in the low register, odd lanes
    // in the high register (paper §5.1). deint(i) maps output lane i
    // to the input lane whose result it holds.
    auto deint = [L](int i) {
        if (L % 2 != 0)
            return i; // degenerate width; no pair structure
        const int h = L / 2;
        return i < h ? 2 * i : 2 * (i - h) + 1;
    };

    // Narrowing packs are the inverse: they *interleave* the lanes of
    // their two source registers, so narrow(widen(x)) round-trips
    // with no explicit shuffles when both halves stay deinterleaved.
    auto ileave = [=](int i) { return i % 2 == 0 ? x(i / 2) : y(i / 2); };

    // Sliding-window multiply-add: the sum of win(j + k) * w_k over
    // the first `taps` weights.
    auto dot = [=](auto win, int j, int taps) {
        auto acc = alg.mul(win(j), imm(0));
        for (int k = 1; k < taps; ++k)
            acc = alg.add(acc, alg.mul(win(j + k), imm(k)));
        return acc;
    };

    switch (n.op()) {
      case Opcode::VBitcast: {
        // Reinterpret the register's bytes, little-endian. Between
        // equal widths that only reinterprets the sign.
        const int in_w = bytes(in);
        const int out_w = bytes(s);
        if (out_w == in_w)
            return body([=](int i) { return alg.wrap(s, x(i)); });
        if (out_w > in_w) {
            // Each output lane concatenates k input lanes, lowest
            // first.
            const int k = out_w / in_w;
            const ScalarType in_u = to_unsigned(in);
            return body([=](int i) {
                auto u = alg.wrap(in_u, x(i * k));
                for (int j = 1; j < k; ++j)
                    u = alg.or_(u, alg.shl(ScalarType::UInt64,
                                           alg.wrap(in_u, x(i * k + j)),
                                           alg.lit(8 * in_w * j)));
                return alg.wrap(s, u);
            });
        }
        // Each input lane splits into k output lanes, lowest first.
        const int k = in_w / out_w;
        return body([=](int i) {
            return alg.wrap(s, alg.lsr(ScalarType::UInt64, x(i / k),
                                       alg.lit(8 * out_w * (i % k))));
        });
      }
      case Opcode::VCombine:
        return body(cat);
      case Opcode::VLo:
        return body(x);
      case Opcode::VHi:
        return body([=](int i) { return x(L + i); });
      case Opcode::VAlign:
        return body([=, r = static_cast<int>(im[0])](int i) {
            return i + r < L ? x(i + r) : y(i + r - L);
        });
      case Opcode::VRor:
        return body([=, r = static_cast<int>(im[0])](int i) {
            return x((i + r) % L);
        });
      case Opcode::VShuffVdd:
        return body([=](int i) {
            return i % 2 == 0 ? x(i / 2) : x(L / 2 + i / 2);
        });
      case Opcode::VDealVdd:
        return body([=](int i) {
            const int h = L / 2;
            return i < h ? x(2 * i) : x(2 * (i - h) + 1);
        });
      case Opcode::VMux:
        return body([=](int i) { return alg.select(x(i), y(i), arg(2, i)); });
      case Opcode::VPackE:
        return body([=](int i) { return alg.wrap(s, ileave(i)); });
      case Opcode::VPackO:
        return body([=, half = alg.lit(bits(in) / 2)](int i) {
            return alg.wrap(s, alg.lsr(in, ileave(i), half));
        });
      case Opcode::VSat:
      case Opcode::VPackSat:
        return body([=](int i) { return alg.sat(s, ileave(i)); });
      case Opcode::VZxt:
      case Opcode::VSxt:
        // Carriers are exact; extension preserves them. The result is
        // a deinterleaved pair.
        return body([=](int i) { return alg.wrap(s, x(deint(i))); });
      case Opcode::VAdd:
        return body([=](int i) { return alg.wrap(s, alg.add(x(i), y(i))); });
      case Opcode::VAddSat:
        return body([=](int i) { return alg.sat(s, alg.add(x(i), y(i))); });
      case Opcode::VSub:
        return body([=](int i) { return alg.wrap(s, alg.sub(x(i), y(i))); });
      case Opcode::VSubSat:
        return body([=](int i) { return alg.sat(s, alg.sub(x(i), y(i))); });
      case Opcode::VAvg:
        return body([=](int i) { return alg.avg(s, x(i), y(i), false); });
      case Opcode::VAvgRnd:
        return body([=](int i) { return alg.avg(s, x(i), y(i), true); });
      case Opcode::VNavg:
        return body([=](int i) { return alg.navg(s, x(i), y(i), false); });
      case Opcode::VAbsDiff:
        return body(
            [=](int i) { return alg.wrap(s, alg.absd(x(i), y(i))); });
      case Opcode::VMax:
        return body([=](int i) { return alg.max(x(i), y(i)); });
      case Opcode::VMin:
        return body([=](int i) { return alg.min(x(i), y(i)); });
      case Opcode::VAnd:
        return body(
            [=](int i) { return alg.wrap(s, alg.and_(x(i), y(i))); });
      case Opcode::VOr:
        return body([=](int i) { return alg.wrap(s, alg.or_(x(i), y(i))); });
      case Opcode::VXor:
        return body(
            [=](int i) { return alg.wrap(s, alg.xor_(x(i), y(i))); });
      case Opcode::VNot:
        return body([=](int i) { return alg.wrap(s, alg.not_(x(i))); });
      case Opcode::VCmpGt:
        return body([=](int i) { return alg.gt(x(i), y(i)); });
      case Opcode::VCmpEq:
        return body([=](int i) { return alg.eq(x(i), y(i)); });
      case Opcode::VAsl:
        return body([=](int i) { return alg.shl(s, x(i), imm(0)); });
      case Opcode::VAsr:
        return body(
            [=](int i) { return alg.wrap(s, alg.asr(x(i), imm(0), false)); });
      case Opcode::VAsrRnd:
        return body(
            [=](int i) { return alg.wrap(s, alg.asr(x(i), imm(0), true)); });
      case Opcode::VLsr:
        return body([=](int i) { return alg.lsr(s, x(i), imm(0)); });
      case Opcode::VAsrNarrow:
        return body([=](int i) {
            return alg.wrap(s, alg.asr(ileave(i), imm(0), false));
        });
      case Opcode::VAsrNarrowSat:
        return body([=](int i) {
            return alg.sat(s, alg.asr(ileave(i), imm(0), false));
        });
      case Opcode::VAsrNarrowRndSat:
        return body([=](int i) {
            return alg.sat(s, alg.asr(ileave(i), imm(0), true));
        });
      case Opcode::VRoundSat:
        return body([=, half = alg.lit(bits(in) / 2)](int i) {
            return alg.sat(s, alg.asr(ileave(i), half, true));
        });
      case Opcode::VMpy:
        return body([=](int i) {
            return alg.wrap(s, alg.mul(x(deint(i)), y(deint(i))));
        });
      case Opcode::VMpyAcc:
        return body([=](int i) {
            return alg.wrap(s, alg.add(x(i), alg.mul(y(deint(i)),
                                                     arg(2, deint(i)))));
        });
      case Opcode::VMpyi:
        return body([=](int i) { return alg.wrap(s, alg.mul(x(i), y(i))); });
      case Opcode::VMpyiAcc:
        return body([=](int i) {
            return alg.wrap(s, alg.add(x(i), alg.mul(y(i), arg(2, i))));
        });
      case Opcode::VMpa:
        return body([=](int i) {
            return alg.wrap(s, alg.add(alg.mul(x(deint(i)), imm(0)),
                                       alg.mul(y(deint(i)), imm(1))));
        });
      case Opcode::VMpaAcc:
        return body([=](int i) {
            return alg.wrap(
                s, alg.add(alg.add(x(i), alg.mul(y(deint(i)), imm(0))),
                           alg.mul(arg(2, deint(i)), imm(1))));
        });
      case Opcode::VDmpy:
        return body(
            [=](int i) { return alg.wrap(s, dot(cat, deint(i), 2)); });
      case Opcode::VDmpyAcc:
        return body([=](int i) {
            return alg.wrap(s, alg.add(x(i), dot(cat12, deint(i), 2)));
        });
      case Opcode::VTmpy:
        // Weights (w0 w1 1): the third tap is added unscaled.
        return body([=](int i) {
            const int j = deint(i);
            return alg.wrap(s, alg.add(dot(cat, j, 2), cat(j + 2)));
        });
      case Opcode::VTmpyAcc:
        return body([=](int i) {
            const int j = deint(i);
            return alg.wrap(s, alg.add(alg.add(x(i), dot(cat12, j, 2)),
                                       cat12(j + 2)));
        });
      case Opcode::VRmpy:
        return body(
            [=](int i) { return alg.wrap(s, dot(cat, deint(i), 4)); });
      case Opcode::VRmpyAcc:
        return body([=](int i) {
            return alg.wrap(s, alg.add(x(i), dot(cat12, deint(i), 4)));
        });
      case Opcode::VDotRmpy:
        return body([=](int i) {
            auto acc = alg.mul(x(4 * i), y(4 * i));
            for (int k = 1; k < 4; ++k)
                acc = alg.add(acc, alg.mul(x(4 * i + k), y(4 * i + k)));
            return alg.wrap(s, acc);
        });
      case Opcode::VDotRmpyAcc:
        return body([=](int i) {
            auto acc = x(i);
            for (int k = 0; k < 4; ++k)
                acc = alg.add(acc,
                              alg.mul(y(4 * i + k), arg(2, 4 * i + k)));
            return alg.wrap(s, acc);
        });
      case Opcode::VMpyIE:
        return body(
            [=](int i) { return alg.wrap(s, alg.mul(x(i), y(2 * i))); });
      case Opcode::VMpyIO:
        return body([=](int i) {
            return alg.wrap(s, alg.mul(x(i), y(2 * i + 1)));
        });
      case Opcode::VRead:
      case Opcode::VSplat:
      case Opcode::Hole:
        break;
    }
    RAKE_UNREACHABLE("HVX leaf " << to_string(n.op())
                                 << " has no lane function");
}

} // namespace rake::hvx

#endif // RAKE_HVX_SEMANTICS_H
