#include "synth/z3_verify.h"

#include <map>
#include <tuple>

#include <z3++.h>

#include "backend/target_isa.h"
#include "base/arith.h"
#include "hvx/sexpr.h"
#include "support/error.h"

namespace rake::synth {

namespace {

/**
 * Lane-wise encoder of HIR / UIR / HVX expressions into 64-bit
 * bit-vector terms.
 *
 * Invariant: every encoded lane term is *normalized* for its element
 * type — i.e. equal to wrap(elem, value) — exactly mirroring the
 * concrete interpreters, so proofs transfer.
 */
class LaneEncoder
{
  public:
    explicit LaneEncoder(z3::context &ctx) : ctx_(ctx) {}

    /** Symbolic buffer cell (absolute element coordinates). */
    z3::expr
    cell(int buffer, int dy, int x, ScalarType elem)
    {
        auto key = std::make_tuple(buffer, dy, x);
        auto it = cells_.find(key);
        if (it != cells_.end())
            return it->second;
        const std::string name = "b" + std::to_string(buffer) + "_y" +
                                 std::to_string(dy) + "_x" +
                                 std::to_string(x);
        z3::expr raw = ctx_.bv_const(name.c_str(), bits(elem));
        z3::expr v = extend(raw, elem);
        cells_.emplace(key, v);
        cell_types_.emplace(key, elem);
        return v;
    }

    /** Symbolic scalar parameter. */
    z3::expr
    scalar(const std::string &name, ScalarType elem)
    {
        auto it = scalars_.find(name);
        if (it != scalars_.end())
            return it->second;
        z3::expr raw = ctx_.bv_const(("s_" + name).c_str(), bits(elem));
        z3::expr v = extend(raw, elem);
        scalars_.emplace(name, v);
        scalar_types_.emplace(name, elem);
        return v;
    }

    // --- lane encodings -------------------------------------------------

    z3::expr
    lane(const hir::ExprPtr &e, int i)
    {
        auto key = std::make_pair(static_cast<const void *>(e.get()), i);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        z3::expr v = hir_lane(e, i);
        memo_.emplace(key, v);
        return v;
    }

    z3::expr
    lane(const uir::UExprPtr &e, int i)
    {
        auto key = std::make_pair(static_cast<const void *>(e.get()), i);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        z3::expr v = uir_lane(e, i);
        memo_.emplace(key, v);
        return v;
    }

    z3::expr
    lane(const hvx::InstrPtr &e, int i)
    {
        auto key = std::make_pair(static_cast<const void *>(e.get()), i);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        z3::expr v = hvx_lane(e, i);
        memo_.emplace(key, v);
        return v;
    }

    /** Convert a model into a concrete Env (cells + scalars). */
    Env
    model_to_env(const z3::model &m, const Spec &spec)
    {
        Env env = [&] {
            auto geo = buffer_geometry(spec);
            Rng rng(7);
            return make_example_env(geo, spec.var_elem, 5, rng);
        }();
        for (const auto &[key, expr] : cells_) {
            const auto [buffer, dy, x] = key;
            const ScalarType t = cell_types_.at(key);
            const int64_t v = model_value(m, expr, t);
            auto it = env.buffers.find(buffer);
            if (it == env.buffers.end())
                continue;
            Buffer &buf = it->second;
            const int ix = x - buf.x0;
            const int iy = dy - buf.y0;
            if (ix >= 0 && ix < buf.width && iy >= 0 && iy < buf.height)
                buf.data[static_cast<size_t>(iy) * buf.width + ix] =
                    wrap(t, v);
        }
        for (const auto &[name, expr] : scalars_) {
            env.scalars[name] =
                model_value(m, expr, scalar_types_.at(name));
        }
        return env;
    }

  private:
    // --- helpers --------------------------------------------------------

    z3::expr
    bv(int64_t v)
    {
        return ctx_.bv_val(v, 64);
    }

    /** Normalize a BV64 term to element type t (== arith.h wrap()). */
    z3::expr
    norm(ScalarType t, const z3::expr &v)
    {
        const int b = bits(t);
        if (b == 64)
            return v;
        z3::expr low = v.extract(b - 1, 0);
        return extend(low, t);
    }

    /** Extend a BV(bits(t)) to BV64 per the signedness of t. */
    z3::expr
    extend(const z3::expr &low, ScalarType t)
    {
        const int b = low.get_sort().bv_size();
        if (b == 64)
            return low;
        return is_signed(t) ? z3::sext(low, 64 - b)
                            : z3::zext(low, 64 - b);
    }

    z3::expr
    smin(const z3::expr &a, const z3::expr &b)
    {
        return z3::ite(z3::slt(a, b), a, b);
    }

    z3::expr
    smax(const z3::expr &a, const z3::expr &b)
    {
        return z3::ite(z3::sgt(a, b), a, b);
    }

    z3::expr
    absd(const z3::expr &a, const z3::expr &b)
    {
        return z3::ite(z3::sgt(a, b), a - b, b - a);
    }

    z3::expr
    sat(ScalarType t, const z3::expr &v)
    {
        z3::expr lo = bv(min_value(t));
        z3::expr hi = bv(max_value(t));
        return z3::ite(z3::slt(v, lo), lo,
                       z3::ite(z3::sgt(v, hi), hi, v));
    }

    /** shift_right with optional rounding (constant amount). */
    z3::expr
    shr(const z3::expr &v, int n, bool round)
    {
        if (n <= 0)
            return v;
        z3::expr x = round ? v + bv(int64_t{1} << (n - 1)) : v;
        return z3::ashr(x, bv(n));
    }

    /** Variable-amount shifts, matching the interpreter helpers. */
    z3::expr
    shl_wrap(ScalarType t, const z3::expr &v, const z3::expr &n)
    {
        return norm(t, z3::shl(v, n));
    }

    z3::expr
    lshr_typed(ScalarType t, const z3::expr &v, const z3::expr &n)
    {
        // Mask to the type width first (values of unsigned types are
        // already non-negative after normalization; signed values
        // need the mask).
        const int b = bits(t);
        z3::expr masked =
            b == 64 ? v
                    : (v & bv(static_cast<int64_t>(
                          (~uint64_t{0}) >> (64 - b))));
        return norm(t, z3::lshr(masked, n));
    }

    int64_t
    model_value(const z3::model &m, const z3::expr &e, ScalarType t)
    {
        z3::expr v = m.eval(e, true);
        int64_t out = 0;
        if (v.is_numeral_i64(out))
            return wrap(t, out);
        // Fall back through uint64 for large unsigned numerals.
        uint64_t u = 0;
        if (v.is_numeral_u64(u))
            return wrap(t, static_cast<int64_t>(u));
        return 0;
    }

    // --- HIR --------------------------------------------------------

    z3::expr
    hir_lane(const hir::ExprPtr &e, int i)
    {
        using hir::Op;
        const ScalarType s = e->type().elem;
        switch (e->op()) {
          case Op::Load: {
            const hir::LoadRef &r = e->load_ref();
            return cell(r.buffer, r.dy, r.dx + i, s);
          }
          case Op::Const:
            return bv(e->const_value());
          case Op::Var:
            return scalar(e->var_name(), s);
          case Op::Broadcast:
            return lane(e->arg(0), 0);
          case Op::Cast:
            return norm(s, lane(e->arg(0), i));
          case Op::Not:
            return norm(s, ~lane(e->arg(0), i));
          case Op::Select:
            return z3::ite(lane(e->arg(0), i) != bv(0),
                           lane(e->arg(1), i), lane(e->arg(2), i));
          default:
            break;
        }
        z3::expr a = lane(e->arg(0), i);
        z3::expr b = lane(e->arg(1), i);
        switch (e->op()) {
          case Op::Add:
            return norm(s, a + b);
          case Op::Sub:
            return norm(s, a - b);
          case Op::Mul:
            return norm(s, a * b);
          case Op::Min:
            return smin(a, b);
          case Op::Max:
            return smax(a, b);
          case Op::AbsDiff:
            return norm(s, absd(a, b));
          case Op::ShiftLeft:
            return shl_wrap(s, a, b);
          case Op::ShiftRight:
            return is_signed(s) ? norm(s, z3::ashr(a, b))
                                : lshr_typed(s, a, b);
          case Op::And:
            return norm(s, a & b);
          case Op::Or:
            return norm(s, a | b);
          case Op::Xor:
            return norm(s, a ^ b);
          case Op::Lt:
            return z3::ite(z3::slt(a, b), bv(1), bv(0));
          case Op::Le:
            return z3::ite(z3::sle(a, b), bv(1), bv(0));
          case Op::Eq:
            return z3::ite(a == b, bv(1), bv(0));
          default:
            RAKE_UNREACHABLE("unhandled HIR op in z3 encoder");
        }
    }

    // --- UIR --------------------------------------------------------

    z3::expr
    uir_lane(const uir::UExprPtr &e, int i)
    {
        using uir::UOp;
        const ScalarType s = e->type().elem;
        const uir::UParams &p = e->params();
        switch (e->op()) {
          case UOp::HirLeaf:
            return lane(e->leaf(), i);
          case UOp::Widen:
            return norm(s, lane(e->arg(0), i));
          case UOp::Narrow: {
            z3::expr x = shr(lane(e->arg(0), i), p.shift, p.round);
            return p.saturate ? sat(s, x) : norm(s, x);
          }
          case UOp::VsMpyAdd: {
            z3::expr acc = bv(0);
            for (int k = 0; k < e->num_args(); ++k)
                acc = acc + lane(e->arg(k), i) * bv(p.kernel[k]);
            return p.saturate ? sat(s, acc) : norm(s, acc);
          }
          case UOp::VvMpyAdd: {
            z3::expr acc = bv(0);
            for (int k = 0; k + 1 < e->num_args(); k += 2)
                acc = acc + lane(e->arg(k), i) * lane(e->arg(k + 1), i);
            return p.saturate ? sat(s, acc) : norm(s, acc);
          }
          case UOp::AbsDiff:
            return norm(s, absd(lane(e->arg(0), i), lane(e->arg(1), i)));
          case UOp::Min:
            return smin(lane(e->arg(0), i), lane(e->arg(1), i));
          case UOp::Max:
            return smax(lane(e->arg(0), i), lane(e->arg(1), i));
          case UOp::Average:
            return norm(s, z3::ashr(lane(e->arg(0), i) +
                                        lane(e->arg(1), i) +
                                        bv(p.round ? 1 : 0),
                                    bv(1)));
          case UOp::ShiftLeft:
            return shl_wrap(s, lane(e->arg(0), i), lane(e->arg(1), i));
          case UOp::ShiftRight: {
            z3::expr a = lane(e->arg(0), i);
            z3::expr n = lane(e->arg(1), i);
            if (p.round) {
                // (a + (1 << (n-1))) >> n, arithmetically.
                z3::expr rnd =
                    z3::ite(n == bv(0), a,
                            a + z3::shl(bv(1), n - bv(1)));
                return norm(s, z3::ashr(rnd, n));
            }
            return is_signed(s) ? norm(s, z3::ashr(a, n))
                                : lshr_typed(s, a, n);
          }
          case UOp::And:
            return norm(s, lane(e->arg(0), i) & lane(e->arg(1), i));
          case UOp::Or:
            return norm(s, lane(e->arg(0), i) | lane(e->arg(1), i));
          case UOp::Xor:
            return norm(s, lane(e->arg(0), i) ^ lane(e->arg(1), i));
          case UOp::Not:
            return norm(s, ~lane(e->arg(0), i));
          case UOp::Lt:
            return z3::ite(z3::slt(lane(e->arg(0), i),
                                   lane(e->arg(1), i)),
                           bv(1), bv(0));
          case UOp::Le:
            return z3::ite(z3::sle(lane(e->arg(0), i),
                                   lane(e->arg(1), i)),
                           bv(1), bv(0));
          case UOp::Eq:
            return z3::ite(lane(e->arg(0), i) == lane(e->arg(1), i),
                           bv(1), bv(0));
          case UOp::Select:
            return z3::ite(lane(e->arg(0), i) != bv(0),
                           lane(e->arg(1), i), lane(e->arg(2), i));
        }
        RAKE_UNREACHABLE("unhandled UIR op in z3 encoder");
    }

    // --- HVX --------------------------------------------------------

    z3::expr
    hvx_lane(const hvx::InstrPtr &e, int i)
    {
        using hvx::Opcode;
        const ScalarType s = e->type().elem;
        const int L = e->type().lanes;
        const std::vector<int64_t> &im = e->imms();

        // Lane-index helpers mirroring hvx/interp.cc exactly.
        auto deint = [&](int j) {
            if (L % 2 != 0)
                return j;
            const int h = L / 2;
            return j < h ? 2 * j : 2 * (j - h) + 1;
        };
        auto cat = [&](int j) {
            const int l0 = e->arg(0)->type().lanes;
            return j < l0 ? lane(e->arg(0), j)
                          : lane(e->arg(1), j - l0);
        };
        auto ileave = [&](int j) {
            return j % 2 == 0 ? lane(e->arg(0), j / 2)
                              : lane(e->arg(1), j / 2);
        };

        switch (e->op()) {
          case Opcode::VRead: {
            const hir::LoadRef &r = e->load_ref();
            return cell(r.buffer, r.dy, r.dx + i, s);
          }
          case Opcode::VSplat:
            return lane(e->splat_value(), 0);
          case Opcode::VBitcast: {
            // Reassemble the output lane from the bytes of the input
            // lanes (little-endian), mirroring hvx::bitcast.
            const ScalarType in_t = e->arg(0)->type().elem;
            const int in_b = bits(in_t);
            const int out_b = bits(s);
            z3::expr_vector parts(ctx_);
            // Collect out_b bits starting at global bit i*out_b,
            // most-significant first for z3::concat.
            for (int byte = out_b / 8 - 1; byte >= 0; --byte) {
                const int gbit = i * out_b + byte * 8;
                const int in_lane = gbit / in_b;
                const int in_off = gbit % in_b;
                z3::expr src = lane(e->arg(0), in_lane);
                parts.push_back(src.extract(in_off + 7, in_off));
            }
            z3::expr low = z3::concat(parts);
            return extend(low, s);
          }
          case Opcode::VCombine:
            return cat(i);
          case Opcode::VLo:
            return lane(e->arg(0), i);
          case Opcode::VHi:
            return lane(e->arg(0), L + i);
          case Opcode::VAlign: {
            const int j = i + static_cast<int>(im[0]);
            return j < L ? lane(e->arg(0), j) : lane(e->arg(1), j - L);
          }
          case Opcode::VRor:
            return lane(e->arg(0), (i + static_cast<int>(im[0])) % L);
          case Opcode::VShuffVdd: {
            const int h = L / 2;
            return i % 2 == 0 ? lane(e->arg(0), i / 2)
                              : lane(e->arg(0), h + i / 2);
          }
          case Opcode::VDealVdd: {
            const int h = L / 2;
            return i < h ? lane(e->arg(0), 2 * i)
                         : lane(e->arg(0), 2 * (i - h) + 1);
          }
          case Opcode::VMux:
            return z3::ite(lane(e->arg(0), i) != bv(0),
                           lane(e->arg(1), i), lane(e->arg(2), i));
          case Opcode::VPackE:
            return norm(s, ileave(i));
          case Opcode::VPackO: {
            const ScalarType in_t = e->arg(0)->type().elem;
            const int half = bits(in_t) / 2;
            return norm(s, lshr_typed(in_t, ileave(i), bv(half)));
          }
          case Opcode::VSat:
          case Opcode::VPackSat:
            return sat(s, ileave(i));
          case Opcode::VZxt:
          case Opcode::VSxt:
            return norm(s, lane(e->arg(0), deint(i)));
          case Opcode::VAdd:
            return norm(s, lane(e->arg(0), i) + lane(e->arg(1), i));
          case Opcode::VAddSat:
            return sat(s, lane(e->arg(0), i) + lane(e->arg(1), i));
          case Opcode::VSub:
            return norm(s, lane(e->arg(0), i) - lane(e->arg(1), i));
          case Opcode::VSubSat:
            return sat(s, lane(e->arg(0), i) - lane(e->arg(1), i));
          case Opcode::VAvg:
            return norm(s, z3::ashr(lane(e->arg(0), i) +
                                        lane(e->arg(1), i),
                                    bv(1)));
          case Opcode::VAvgRnd:
            return norm(s, z3::ashr(lane(e->arg(0), i) +
                                        lane(e->arg(1), i) + bv(1),
                                    bv(1)));
          case Opcode::VNavg:
            return norm(s, z3::ashr(lane(e->arg(0), i) -
                                        lane(e->arg(1), i),
                                    bv(1)));
          case Opcode::VAbsDiff:
            return norm(s, absd(lane(e->arg(0), i), lane(e->arg(1), i)));
          case Opcode::VMax:
            return smax(lane(e->arg(0), i), lane(e->arg(1), i));
          case Opcode::VMin:
            return smin(lane(e->arg(0), i), lane(e->arg(1), i));
          case Opcode::VAnd:
            return norm(s, lane(e->arg(0), i) & lane(e->arg(1), i));
          case Opcode::VOr:
            return norm(s, lane(e->arg(0), i) | lane(e->arg(1), i));
          case Opcode::VXor:
            return norm(s, lane(e->arg(0), i) ^ lane(e->arg(1), i));
          case Opcode::VNot:
            return norm(s, ~lane(e->arg(0), i));
          case Opcode::VCmpGt:
            return z3::ite(z3::sgt(lane(e->arg(0), i),
                                   lane(e->arg(1), i)),
                           bv(1), bv(0));
          case Opcode::VCmpEq:
            return z3::ite(lane(e->arg(0), i) == lane(e->arg(1), i),
                           bv(1), bv(0));
          case Opcode::VAsl:
            return shl_wrap(s, lane(e->arg(0), i),
                            bv(static_cast<int>(im[0])));
          case Opcode::VAsr:
            return norm(s, shr(lane(e->arg(0), i),
                               static_cast<int>(im[0]), false));
          case Opcode::VAsrRnd:
            return norm(s, shr(lane(e->arg(0), i),
                               static_cast<int>(im[0]), true));
          case Opcode::VLsr:
            return lshr_typed(s, lane(e->arg(0), i),
                              bv(static_cast<int>(im[0])));
          case Opcode::VAsrNarrow:
            return norm(s,
                        shr(ileave(i), static_cast<int>(im[0]), false));
          case Opcode::VAsrNarrowSat:
            return sat(s,
                       shr(ileave(i), static_cast<int>(im[0]), false));
          case Opcode::VAsrNarrowRndSat:
            return sat(s, shr(ileave(i), static_cast<int>(im[0]), true));
          case Opcode::VRoundSat: {
            const int half = bits(e->arg(0)->type().elem) / 2;
            return sat(s, shr(ileave(i), half, true));
          }
          case Opcode::VMpy:
            return norm(s, lane(e->arg(0), deint(i)) *
                               lane(e->arg(1), deint(i)));
          case Opcode::VMpyAcc:
            return norm(s, lane(e->arg(0), i) +
                               lane(e->arg(1), deint(i)) *
                                   lane(e->arg(2), deint(i)));
          case Opcode::VMpyi:
            return norm(s, lane(e->arg(0), i) * lane(e->arg(1), i));
          case Opcode::VMpyiAcc:
            return norm(s, lane(e->arg(0), i) +
                               lane(e->arg(1), i) * lane(e->arg(2), i));
          case Opcode::VMpa:
            return norm(s, lane(e->arg(0), deint(i)) * bv(im[0]) +
                               lane(e->arg(1), deint(i)) * bv(im[1]));
          case Opcode::VMpaAcc:
            return norm(s, lane(e->arg(0), i) +
                               lane(e->arg(1), deint(i)) * bv(im[0]) +
                               lane(e->arg(2), deint(i)) * bv(im[1]));
          case Opcode::VDmpy: {
            const int j = deint(i);
            return norm(s, cat(j) * bv(im[0]) + cat(j + 1) * bv(im[1]));
          }
          case Opcode::VDmpyAcc: {
            const int l1 = e->arg(1)->type().lanes;
            auto c = [&](int k) {
                return k < l1 ? lane(e->arg(1), k)
                              : lane(e->arg(2), k - l1);
            };
            const int j = deint(i);
            return norm(s, lane(e->arg(0), i) + c(j) * bv(im[0]) +
                               c(j + 1) * bv(im[1]));
          }
          case Opcode::VTmpy: {
            const int j = deint(i);
            return norm(s, cat(j) * bv(im[0]) + cat(j + 1) * bv(im[1]) +
                               cat(j + 2));
          }
          case Opcode::VTmpyAcc: {
            const int l1 = e->arg(1)->type().lanes;
            auto c = [&](int k) {
                return k < l1 ? lane(e->arg(1), k)
                              : lane(e->arg(2), k - l1);
            };
            const int j = deint(i);
            return norm(s, lane(e->arg(0), i) + c(j) * bv(im[0]) +
                               c(j + 1) * bv(im[1]) + c(j + 2));
          }
          case Opcode::VRmpy: {
            const int j = deint(i);
            z3::expr acc = bv(0);
            for (int k = 0; k < 4; ++k)
                acc = acc + cat(j + k) * bv(im[k]);
            return norm(s, acc);
          }
          case Opcode::VRmpyAcc: {
            const int l1 = e->arg(1)->type().lanes;
            auto c = [&](int k) {
                return k < l1 ? lane(e->arg(1), k)
                              : lane(e->arg(2), k - l1);
            };
            const int j = deint(i);
            z3::expr acc = lane(e->arg(0), i);
            for (int k = 0; k < 4; ++k)
                acc = acc + c(j + k) * bv(im[k]);
            return norm(s, acc);
          }
          case Opcode::VDotRmpy: {
            z3::expr acc = bv(0);
            for (int k = 0; k < 4; ++k)
                acc = acc + lane(e->arg(0), 4 * i + k) *
                                lane(e->arg(1), 4 * i + k);
            return norm(s, acc);
          }
          case Opcode::VDotRmpyAcc: {
            z3::expr acc = lane(e->arg(0), i);
            for (int k = 0; k < 4; ++k)
                acc = acc + lane(e->arg(1), 4 * i + k) *
                                lane(e->arg(2), 4 * i + k);
            return norm(s, acc);
          }
          case Opcode::VMpyIE:
            return norm(s, lane(e->arg(0), i) * lane(e->arg(1), 2 * i));
          case Opcode::VMpyIO:
            return norm(s, lane(e->arg(0), i) *
                               lane(e->arg(1), 2 * i + 1));
          case Opcode::Hole:
            RAKE_UNREACHABLE("sketch hole reached the z3 encoder");
        }
        RAKE_UNREACHABLE("unhandled HVX opcode in z3 encoder");
    }

    z3::context &ctx_;
    std::map<std::tuple<int, int, int>, z3::expr> cells_;
    std::map<std::tuple<int, int, int>, ScalarType> cell_types_;
    std::map<std::string, z3::expr> scalars_;
    std::map<std::string, ScalarType> scalar_types_;
    std::map<std::pair<const void *, int>, z3::expr> memo_;
};

std::vector<int>
select_lanes(const Z3Options &opts, int lanes)
{
    if (!opts.lanes.empty())
        return opts.lanes;
    std::vector<int> out = {0};
    if (lanes > 1)
        out.push_back(1);
    if (lanes > 4)
        out.push_back(lanes / 2);
    if (lanes > 2)
        out.push_back(lanes - 1);
    return out;
}

template <typename ImplPtr>
ProofOutcome
run_check(const hir::ExprPtr &ref, const ImplPtr &impl, const Spec &spec,
          const Z3Options &opts, int out_lanes)
{
    z3::context ctx;
    z3::solver solver(ctx);
    z3::params params(ctx);
    params.set("timeout", opts.timeout_ms);
    solver.set(params);

    LaneEncoder enc(ctx);
    z3::expr_vector diffs(ctx);
    for (int i : select_lanes(opts, out_lanes)) {
        RAKE_USER_CHECK(i >= 0 && i < out_lanes,
                        "lane " << i << " out of range");
        diffs.push_back(enc.lane(ref, i) != enc.lane(impl, i));
    }
    solver.add(z3::mk_or(diffs));

    ProofOutcome outcome;
    switch (solver.check()) {
      case z3::unsat:
        outcome.result = ProofResult::Proved;
        break;
      case z3::sat:
        outcome.result = ProofResult::Refuted;
        outcome.counterexample = enc.model_to_env(solver.get_model(),
                                                  spec);
        break;
      default:
        outcome.result = ProofResult::Unknown;
        break;
    }
    return outcome;
}

} // namespace

ProofOutcome
z3_check(const hir::ExprPtr &ref, const hvx::InstrPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    RAKE_USER_CHECK(ref->type().lanes == impl->type().lanes,
                    "lane count mismatch in z3_check");
    return run_check(ref, impl, spec, opts, ref->type().lanes);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const uir::UExprPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    RAKE_USER_CHECK(ref->type().lanes == impl->type().lanes,
                    "lane count mismatch in z3_check");
    return run_check(ref, impl, spec, opts, ref->type().lanes);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const hir::ExprPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    RAKE_USER_CHECK(ref->type().lanes == impl->type().lanes,
                    "lane count mismatch in z3_check");
    return run_check(ref, impl, spec, opts, ref->type().lanes);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const backend::TargetISA &isa,
         const backend::InstrHandle &impl, const Spec &spec,
         const Z3Options &opts)
{
    RAKE_USER_CHECK(impl != nullptr, "null implementation in z3_check");
    if (isa.name() == "hvx") {
        // Recover the concrete DAG through the backend's own sexpr
        // round-trip instead of assuming the handle's layout; the
        // instruction set is tiny next to solver time, so the extra
        // parse is noise.
        const std::string text = isa.instr_to_sexpr(impl);
        if (!text.empty())
            return z3_check(ref, hvx::parse_instr(text), spec, opts);
    }
    // No lane encoding for this backend: Unknown, never Refuted, so
    // callers fall back to exhaustive evaluation.
    return {};
}

} // namespace rake::synth
