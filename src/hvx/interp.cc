#include "hvx/interp.h"

#include "base/arith.h"
#include "support/error.h"

namespace rake::hvx {

namespace {

/**
 * Reinterpret `in`'s bytes (little-endian) as `out`'s type, which must
 * span as many bytes; writes `out`'s lanes in place.
 */
void
bitcast_into(const Value &in, Value &out)
{
    const int in_w = bytes(in.type.elem);
    const int out_w = bytes(out.type.elem);
    RAKE_CHECK(in.type.total_bytes() == out.type.total_bytes(),
               "bitcast size mismatch");
    const ScalarType t = out.type.elem;
    if (out_w >= in_w) {
        // Each output lane concatenates k input lanes, lowest first.
        const int k = out_w / in_w;
        const uint64_t in_mask =
            in_w == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * in_w)) - 1;
        for (int i = 0; i < out.type.lanes; ++i) {
            uint64_t u = 0;
            for (int j = 0; j < k; ++j)
                u |= (static_cast<uint64_t>(in.lanes[i * k + j]) & in_mask)
                     << (8 * in_w * j);
            out.lanes[i] = wrap(t, static_cast<int64_t>(u));
        }
        return;
    }
    // Each input lane splits into k output lanes, lowest first.
    const int k = in_w / out_w;
    for (int i = 0; i < out.type.lanes; ++i) {
        const uint64_t u = static_cast<uint64_t>(in.lanes[i / k]);
        out.lanes[i] =
            wrap(t, static_cast<int64_t>(u >> (8 * out_w * (i % k))));
    }
}

} // namespace

Value &
Interpreter::slot(VecType t)
{
    if (used_ == slots_.size())
        slots_.emplace_back();
    Value &v = slots_[used_++];
    v.reset(t);
    return v;
}

const Value &
Interpreter::eval(const InstrPtr &n)
{
    RAKE_CHECK(n != nullptr, "eval of null instruction");
    RAKE_CHECK(env_ != nullptr, "eval before reset()");
    auto it = memo_.find(n.get());
    if (it != memo_.end())
        return *it->second;
    const Value &v = eval_impl(*n);
    RAKE_CHECK(v.type == n->type(), "interpreter produced "
                                        << to_string(v.type) << " for "
                                        << to_string(n->op()) << " typed "
                                        << to_string(n->type()));
    memo_.emplace(n.get(), &v);
    return v;
}

const Value &
Interpreter::eval_impl(const Instr &n)
{
    const VecType t = n.type();
    const ScalarType s = t.elem;
    const Env &env = *env_;

    switch (n.op()) {
      case Opcode::VRead: {
        const hir::LoadRef &r = n.load_ref();
        const Buffer &buf = env.buffer(r.buffer);
        RAKE_CHECK(buf.elem == s, "vmem elem type mismatch");
        Value &v = slot(t);
        buf.load_window(env.x + r.dx, env.y + r.dy, v);
        return v;
      }
      case Opcode::VSplat: {
        const int64_t x = hir_.eval(n.splat_value()).as_scalar();
        Value &v = slot(t);
        const int64_t c = wrap(s, x);
        for (int i = 0; i < t.lanes; ++i)
            v[i] = c;
        return v;
      }
      case Opcode::Hole: {
        RAKE_CHECK(oracle_ != nullptr,
                   "evaluating a sketch hole without an oracle");
        Value hv = oracle_(n.hole_id(), env);
        Value &v = slot(hv.type);
        v.lanes = std::move(hv.lanes);
        return v;
      }
      default:
        break;
    }

    // Argument view: at most 3 operands, evaluated into interpreter
    // slots (deque addresses are stable until reset()).
    struct Args {
        const Value *p[3];
        const Value &operator[](int i) const { return *p[i]; }
    } a{};
    RAKE_CHECK(n.num_args() <= 3, "instruction with " << n.num_args()
                                                      << " args");
    for (int i = 0; i < n.num_args(); ++i)
        a.p[i] = &eval(n.arg(i));
    const std::vector<int64_t> &im = n.imms();

    Value &v = slot(t);
    const int L = t.lanes;

    // Lane of the element-wise concatenation of the first two args.
    auto cat = [&](int i) -> int64_t {
        const int l0 = a[0].type.lanes;
        return i < l0 ? a[0][i] : a[1][i - l0];
    };

    // HVX widening instructions write *deinterleaved* register pairs:
    // results of even input lanes land in the low register, odd lanes
    // in the high register (paper §5.1). deint(i) maps output lane i
    // to the input lane whose result it holds.
    auto deint = [&](int i) -> int {
        if (L % 2 != 0)
            return i; // degenerate width; no pair structure
        const int h = L / 2;
        return i < h ? 2 * i : 2 * (i - h) + 1;
    };

    // Narrowing packs are the inverse: they *interleave* the lanes of
    // their two source registers, so narrow(widen(x)) round-trips
    // with no explicit shuffles when both halves stay deinterleaved.
    auto ileave = [&](int i) -> int64_t {
        return i % 2 == 0 ? a[0][i / 2] : a[1][i / 2];
    };

    switch (n.op()) {
      case Opcode::VBitcast:
        bitcast_into(a[0], v);
        return v;
      case Opcode::VCombine:
        for (int i = 0; i < L; ++i)
            v[i] = cat(i);
        return v;
      case Opcode::VLo:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][i];
        return v;
      case Opcode::VHi:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][L + i];
        return v;
      case Opcode::VAlign:
        for (int i = 0; i < L; ++i) {
            const int j = i + static_cast<int>(im[0]);
            v[i] = j < L ? a[0][j] : a[1][j - L];
        }
        return v;
      case Opcode::VRor:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][(i + static_cast<int>(im[0])) % L];
        return v;
      case Opcode::VShuffVdd: {
        const int h = L / 2;
        for (int i = 0; i < h; ++i) {
            v[2 * i] = a[0][i];
            v[2 * i + 1] = a[0][h + i];
        }
        return v;
      }
      case Opcode::VDealVdd: {
        const int h = L / 2;
        for (int i = 0; i < h; ++i) {
            v[i] = a[0][2 * i];
            v[h + i] = a[0][2 * i + 1];
        }
        return v;
      }
      case Opcode::VMux:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][i] != 0 ? a[1][i] : a[2][i];
        return v;
      case Opcode::VPackE:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, ileave(i));
        return v;
      case Opcode::VPackO: {
        const int half = bits(a[0].type.elem) / 2;
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, logical_shift_right(a[0].type.elem, ileave(i),
                                               half));
        return v;
      }
      case Opcode::VSat:
      case Opcode::VPackSat:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, ileave(i));
        return v;
      case Opcode::VZxt:
      case Opcode::VSxt:
        // Carrier values are exact; extension preserves them. Output
        // is a deinterleaved pair.
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][deint(i)]);
        return v;
      case Opcode::VAdd:
        for (int i = 0; i < L; ++i)
            v[i] = add_wrap(s, a[0][i], a[1][i]);
        return v;
      case Opcode::VAddSat:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, a[0][i] + a[1][i]);
        return v;
      case Opcode::VSub:
        for (int i = 0; i < L; ++i)
            v[i] = sub_wrap(s, a[0][i], a[1][i]);
        return v;
      case Opcode::VSubSat:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, a[0][i] - a[1][i]);
        return v;
      case Opcode::VAvg:
        for (int i = 0; i < L; ++i)
            v[i] = average(s, a[0][i], a[1][i], false);
        return v;
      case Opcode::VAvgRnd:
        for (int i = 0; i < L; ++i)
            v[i] = average(s, a[0][i], a[1][i], true);
        return v;
      case Opcode::VNavg:
        for (int i = 0; i < L; ++i)
            v[i] = neg_average(s, a[0][i], a[1][i], false);
        return v;
      case Opcode::VAbsDiff:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, abs_diff(a[0][i], a[1][i]));
        return v;
      case Opcode::VMax:
        for (int i = 0; i < L; ++i)
            v[i] = std::max(a[0][i], a[1][i]);
        return v;
      case Opcode::VMin:
        for (int i = 0; i < L; ++i)
            v[i] = std::min(a[0][i], a[1][i]);
        return v;
      case Opcode::VAnd:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][i] & a[1][i]);
        return v;
      case Opcode::VOr:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][i] | a[1][i]);
        return v;
      case Opcode::VXor:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][i] ^ a[1][i]);
        return v;
      case Opcode::VNot:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, ~a[0][i]);
        return v;
      case Opcode::VCmpGt:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][i] > a[1][i] ? 1 : 0;
        return v;
      case Opcode::VCmpEq:
        for (int i = 0; i < L; ++i)
            v[i] = a[0][i] == a[1][i] ? 1 : 0;
        return v;
      case Opcode::VAsl:
        for (int i = 0; i < L; ++i)
            v[i] = shift_left(s, a[0][i], static_cast<int>(im[0]));
        return v;
      case Opcode::VAsr:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, shift_right(a[0][i],
                                       static_cast<int>(im[0])));
        return v;
      case Opcode::VAsrRnd:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, shift_right(a[0][i], static_cast<int>(im[0]),
                                       true));
        return v;
      case Opcode::VLsr:
        for (int i = 0; i < L; ++i)
            v[i] = logical_shift_right(s, a[0][i],
                                       static_cast<int>(im[0]));
        return v;
      case Opcode::VAsrNarrow:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s,
                        shift_right(ileave(i), static_cast<int>(im[0])));
        return v;
      case Opcode::VAsrNarrowSat:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(
                s, shift_right(ileave(i), static_cast<int>(im[0])));
        return v;
      case Opcode::VAsrNarrowRndSat:
        for (int i = 0; i < L; ++i)
            v[i] = saturate(
                s, shift_right(ileave(i), static_cast<int>(im[0]), true));
        return v;
      case Opcode::VRoundSat: {
        const int half = bits(a[0].type.elem) / 2;
        for (int i = 0; i < L; ++i)
            v[i] = saturate(s, shift_right(ileave(i), half, true));
        return v;
      }
      case Opcode::VMpy:
        for (int i = 0; i < L; ++i)
            v[i] = mul_wrap(s, a[0][deint(i)], a[1][deint(i)]);
        return v;
      case Opcode::VMpyAcc:
        for (int i = 0; i < L; ++i)
            v[i] = add_wrap(
                s, a[0][i], mul_wrap(s, a[1][deint(i)], a[2][deint(i)]));
        return v;
      case Opcode::VMpyi:
        for (int i = 0; i < L; ++i)
            v[i] = mul_wrap(s, a[0][i], a[1][i]);
        return v;
      case Opcode::VMpyiAcc:
        for (int i = 0; i < L; ++i)
            v[i] = add_wrap(s, a[0][i], mul_wrap(s, a[1][i], a[2][i]));
        return v;
      case Opcode::VMpa:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][deint(i)] * im[0] +
                               a[1][deint(i)] * im[1]);
        return v;
      case Opcode::VMpaAcc:
        for (int i = 0; i < L; ++i)
            v[i] = wrap(s, a[0][i] + a[1][deint(i)] * im[0] +
                               a[2][deint(i)] * im[1]);
        return v;
      case Opcode::VDmpy:
        for (int i = 0; i < L; ++i) {
            const int j = deint(i);
            v[i] = wrap(s, cat(j) * im[0] + cat(j + 1) * im[1]);
        }
        return v;
      case Opcode::VDmpyAcc:
        for (int i = 0; i < L; ++i) {
            const int l1 = a[1].type.lanes;
            auto c = [&](int k) {
                return k < l1 ? a[1][k] : a[2][k - l1];
            };
            const int j = deint(i);
            v[i] = wrap(s, a[0][i] + c(j) * im[0] + c(j + 1) * im[1]);
        }
        return v;
      case Opcode::VTmpy:
        for (int i = 0; i < L; ++i) {
            const int j = deint(i);
            v[i] = wrap(s, cat(j) * im[0] + cat(j + 1) * im[1] +
                               cat(j + 2));
        }
        return v;
      case Opcode::VTmpyAcc:
        for (int i = 0; i < L; ++i) {
            const int l1 = a[1].type.lanes;
            auto c = [&](int k) {
                return k < l1 ? a[1][k] : a[2][k - l1];
            };
            const int j = deint(i);
            v[i] = wrap(s, a[0][i] + c(j) * im[0] + c(j + 1) * im[1] +
                               c(j + 2));
        }
        return v;
      case Opcode::VRmpy:
        for (int i = 0; i < L; ++i) {
            const int j = deint(i);
            int64_t acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += cat(j + k) * im[k];
            v[i] = wrap(s, acc);
        }
        return v;
      case Opcode::VRmpyAcc:
        for (int i = 0; i < L; ++i) {
            const int l1 = a[1].type.lanes;
            auto c = [&](int k) {
                return k < l1 ? a[1][k] : a[2][k - l1];
            };
            const int j = deint(i);
            int64_t acc = a[0][i];
            for (int k = 0; k < 4; ++k)
                acc += c(j + k) * im[k];
            v[i] = wrap(s, acc);
        }
        return v;
      case Opcode::VDotRmpy:
        for (int i = 0; i < L; ++i) {
            int64_t acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += a[0][4 * i + k] * a[1][4 * i + k];
            v[i] = wrap(s, acc);
        }
        return v;
      case Opcode::VDotRmpyAcc:
        for (int i = 0; i < L; ++i) {
            int64_t acc = a[0][i];
            for (int k = 0; k < 4; ++k)
                acc += a[1][4 * i + k] * a[2][4 * i + k];
            v[i] = wrap(s, acc);
        }
        return v;
      case Opcode::VMpyIE:
        for (int i = 0; i < L; ++i)
            v[i] = mul_wrap(s, a[0][i], a[1][2 * i]);
        return v;
      case Opcode::VMpyIO:
        for (int i = 0; i < L; ++i)
            v[i] = mul_wrap(s, a[0][i], a[1][2 * i + 1]);
        return v;
      case Opcode::VRead:
      case Opcode::VSplat:
      case Opcode::Hole:
        RAKE_UNREACHABLE("handled above");
    }
    RAKE_UNREACHABLE("unhandled opcode");
}

Value
evaluate(const InstrPtr &n, const Env &env)
{
    Interpreter interp(env);
    return interp.eval(n);
}

} // namespace rake::hvx
