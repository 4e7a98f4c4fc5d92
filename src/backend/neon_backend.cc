#include "backend/neon_backend.h"

#include <algorithm>
#include <unordered_map>

#include "backend/isa_backend.h"
#include "backend/leaf_util.h"
#include "hir/interp.h"
#include "hir/simplify.h"
#include "neon/interp.h"
#include "support/error.h"
#include "synth/lift.h"
#include "synth/spec.h"
#include "synth/verify.h"

namespace rake::backend {

namespace {

using neon::NInstr;
using neon::NInstrPtr;
using neon::NOp;
using uir::UExpr;
using uir::UExprPtr;
using uir::UOp;
using uir::UParams;

using synth::Arrangement;
using synth::Cell;
using synth::Layout;
using synth::window_cells;

NInstrPtr
ncast(const InstrHandle &h)
{
    return std::static_pointer_cast<const NInstr>(h);
}

/**
 * Neon's moves for the shared swizzle search (synth::SwizzleSolver):
 * vld1 for windows, vdup, the free vget_low/high and vcombine renames,
 * vzip/vuzp for (de)interleaves, plus the vext, vrev and vtbl rules.
 * Costs are in issue slots: a 64-lane logical vector spans several Q
 * registers, so one permute issues regs_for() times, and the budget —
 * handed out in whole-logical-vector movement ops — is scaled to match.
 */
struct NeonMoves {
    using Node = NInstr;

    const neon::Target &target;

    int
    budget_scale(const VecType &hole) const
    {
        return std::max(1, target.regs_for(hole));
    }

    int
    permute_cost(const VecType &type) const
    {
        return target.regs_for(type);
    }

    int concat_cost() const { return 0; }

    int
    issues(const NInstrPtr &n) const
    {
        return neon::issue_count(*n, target);
    }

    NInstrPtr
    zero(ScalarType elem, int lanes) const
    {
        return NInstr::make_splat(hir::Expr::make_const(0, VecType(elem, 1)),
                                  lanes);
    }

    NInstrPtr
    read(const hir::LoadRef &ref, VecType type) const
    {
        return NInstr::make_read(ref, type);
    }

    NInstrPtr
    half(const NInstrPtr &source, bool hi) const
    {
        return NInstr::make(hi ? NOp::Hi : NOp::Lo, {source});
    }

    NInstrPtr
    interleave(NInstrPtr v) const
    {
        return NInstr::make(NOp::Zip, {std::move(v)});
    }

    NInstrPtr
    deinterleave(NInstrPtr v) const
    {
        return NInstr::make(NOp::Uzp, {std::move(v)});
    }

    NInstrPtr
    concat(NInstrPtr lo, NInstrPtr hi) const
    {
        return NInstr::make(NOp::Combine, {std::move(lo), std::move(hi)});
    }

    template <typename Search, typename Consider>
    void
    isa_rules(const Arrangement &arr, ScalarType elem,
              const std::vector<NInstrPtr> &sources, int budget,
              Search &search, Consider &consider) const
    {
        const int n = static_cast<int>(arr.size());
        const VecType type(elem, n);

        // Rule: funnel extract across a source pair (vext). Covers
        // both rotations (s == t) and windows sliding across two
        // already-lowered registers.
        if (budget >= 1) {
            const int ns = static_cast<int>(sources.size());
            for (int s = 0; s < ns; ++s) {
                if (sources[s]->type() != type)
                    continue;
                for (int t = 0; t < ns; ++t) {
                    if (sources[t]->type() != type)
                        continue;
                    for (int r = 1; r < n; ++r) {
                        bool match = true;
                        for (int i = 0; i < n && match; ++i) {
                            const Cell want =
                                i + r < n ? Cell::src(s, i + r)
                                          : Cell::src(t, i + r - n);
                            match = arr[i] == want;
                        }
                        if (!match)
                            continue;
                        NInstrPtr e = NInstr::make(
                            NOp::Ext, {sources[s], sources[t]},
                            {static_cast<int64_t>(r)});
                        consider(e, issues(e));
                    }
                }
            }
        }

        // Rule: reversal of a solvable arrangement (vrev). The
        // active-goal guard breaks the rev(rev(x)) = x cycle.
        if (budget >= 1) {
            Arrangement rev(arr.rbegin(), arr.rend());
            if (!(rev == arr)) {
                const int step = target.regs_for(type);
                if (auto sub = search(rev, budget - step))
                    consider(NInstr::make(NOp::Rev, {sub->first}),
                             sub->second + step);
            }
        }

        // Rule: static table lookup over one source (vtbl). The
        // costly last resort: arbitrary per-lane gathers, priced at
        // two issues per result register (index materialization +
        // lookup).
        const int cost = 2 * target.regs_for(type);
        if (cost > budget || sources.empty())
            return;
        int s = -1;
        bool ok = true;
        std::vector<int64_t> idx(n, -1);
        for (int i = 0; i < n && ok; ++i) {
            const Cell &c = arr[i];
            if (c.kind == Cell::Kind::Zero)
                continue; // out-of-range index reads as zero
            if (c.kind != Cell::Kind::Src)
                ok = false;
            else if (s == -1)
                s = c.source;
            else if (c.source != s)
                ok = false;
            if (ok && c.kind == Cell::Kind::Src)
                idx[i] = c.lane;
        }
        if (ok && s >= 0 && s < static_cast<int>(sources.size()) &&
            sources[s]->type().elem == elem) {
            consider(NInstr::make(NOp::Tbl, {sources[s]}, std::move(idx)),
                     cost);
        }
    }
};

using SketchBuilder = synth::SketchBuilder<NInstr>;

/**
 * The Neon sketch grammar. Alternative templates per uber-op compete
 * on cost under CEGIS. The public value builders also build the
 * greedy mapper's programs (NeonGreedy below), which takes the first
 * template that applies, so everything it selects is reachable here.
 */
class NeonGrammar
{
  public:
    explicit NeonGrammar(LowerDriver &driver) : driver_(driver) {}

    void
    candidates(const UExprPtr &u, Layout layout,
               std::vector<Sketch> &out)
    {
        // Neon compute instructions never reorder lanes; only the
        // linear layout exists for this target (§5.1 degenerates).
        if (layout != Layout::Linear)
            return;
        try {
            switch (u->op()) {
              case UOp::HirLeaf:
                leaf_templates(u, out);
                break;
              case UOp::Widen:
                widen_templates(u, out);
                break;
              case UOp::Narrow:
                narrow_templates(u, out);
                break;
              case UOp::VsMpyAdd:
                vs_mpy_add_templates(u, out);
                break;
              case UOp::VvMpyAdd:
                vv_mpy_add_templates(u, out);
                break;
              default:
                lanewise_templates(u, out);
                break;
            }
        } catch (const UserError &) {
            // A template built an ill-typed instruction; whatever was
            // emitted before the failure is still usable.
        }
    }

    // ---------------------------------------------------------------
    // Value builders (shared with NeonGreedy)
    // ---------------------------------------------------------------

    /** Recursive lowering through the driver. */
    NInstrPtr
    child(const UExprPtr &c)
    {
        auto h = driver_.lowered(c, Layout::Linear);
        if (!h)
            return nullptr;
        return ncast(*h);
    }

    static NInstrPtr
    dup_const(int64_t v, ScalarType t, int lanes)
    {
        return NInstr::make_splat(
            hir::Expr::make_const(v, VecType(t, 1)), lanes);
    }

    /** Same-width signedness adjustment (free vreinterpret). */
    static NInstrPtr
    coerce(NInstrPtr v, ScalarType want)
    {
        if (!v || v->type().elem == want)
            return v;
        if (bits(v->type().elem) != bits(want))
            return nullptr;
        return NInstr::make(NOp::Bitcast, {v}, {}, want);
    }

    /** Widen by one or two vmovl hops to the target width. */
    static NInstrPtr
    widen_to(NInstrPtr v, ScalarType want)
    {
        while (v && bits(v->type().elem) < bits(want))
            v = NInstr::make(NOp::Movl, {v});
        return coerce(v, want);
    }

    /**
     * `v` shifted right by p.shift, rounding if p.round, else
     * arithmetic or logical by the signedness of `elem`; `v` itself
     * when p.shift is 0.
     */
    static NInstrPtr
    shift_right(NInstrPtr v, const UParams &p, ScalarType elem)
    {
        if (p.shift <= 0)
            return v;
        return NInstr::make(p.round            ? NOp::Rshr
                            : is_signed(elem) ? NOp::Sshr
                                              : NOp::Ushr,
                            {std::move(v)}, {p.shift});
    }

    /**
     * Neon's fused shift-and-narrow of `x` to half its width for p:
     * vqrshrn (rounding, saturating) or vshrn (neither); null when
     * neither applies.
     */
    static NInstrPtr
    fused_narrow(const NInstrPtr &x, const UParams &p, ScalarType out)
    {
        if (p.shift > 0 && p.round && p.saturate)
            return NInstr::make(NOp::Qrshrn, {x}, {p.shift}, out);
        if (p.shift > 0 && !p.round && !p.saturate)
            return NInstr::make(NOp::Shrn, {x}, {p.shift});
        return nullptr;
    }

    /**
     * The decomposed narrow of `x` (element type `elem`) to half its
     * width: shift_right, then vqmovn to `out` or vmovn.
     */
    static NInstrPtr
    decomposed_narrow(const NInstrPtr &x, const UParams &p,
                      ScalarType elem, ScalarType out)
    {
        NInstrPtr v = shift_right(x, p, elem);
        return p.saturate ? NInstr::make(NOp::Qxtn, {v}, {}, out)
                          : NInstr::make(NOp::Xtn, {v});
    }

    /**
     * A 4:1 narrow as two 2:1 hops through a synthetic middle-width
     * UIR node: shift, round and saturation in the first hop, the
     * final clamp in the second. The verifier rejects unsound
     * compositions.
     */
    UExprPtr
    two_hop_narrow(const UExprPtr &u)
    {
        const UParams &p = u->params();
        UParams p1;
        p1.out_elem = narrow(u->arg(0)->type().elem);
        p1.shift = p.shift;
        p1.round = p.round;
        p1.saturate = p.saturate;
        UParams p2;
        p2.out_elem = u->type().elem;
        p2.saturate = p.saturate;
        return pin(UExpr::make(
            UOp::Narrow, {pin(UExpr::make(UOp::Narrow, {u->arg(0)}, p1))},
            p2));
    }

    /**
     * The widening multiply-accumulate chain: vmull + vmlal for
     * half-width terms, flat vmla for full-width ones. The greedy
     * mapper's one shape for a VsMpyAdd.
     */
    NInstrPtr
    mull_chain_value(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        NInstrPtr acc;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr x = child(u->arg(i));
            if (!x)
                return nullptr;
            const int64_t w = p.kernel[i];
            const bool narrow_term =
                bits(x->type().elem) * 2 == bits(t.elem);
            if (narrow_term) {
                NInstrPtr ws =
                    dup_const(w, x->type().elem, x->type().lanes);
                NInstrPtr v =
                    acc ? NInstr::make(
                              NOp::Mlal,
                              {coerce(acc, widen(x->type().elem)), x,
                               ws})
                        : NInstr::make(NOp::Mull, {x, ws});
                acc = coerce(v, t.elem);
            } else {
                NInstrPtr xw = widen_to(x, t.elem);
                if (!xw)
                    return nullptr;
                if (w == 1 && acc) {
                    acc = NInstr::make(NOp::Add, {acc, xw});
                } else if (w == 1) {
                    acc = xw;
                } else {
                    NInstrPtr ws = dup_const(w, t.elem, t.lanes);
                    acc = acc ? NInstr::make(NOp::Mla, {acc, xw, ws})
                              : NInstr::make(NOp::Mul, {xw, ws});
                }
            }
            if (!acc)
                return nullptr;
        }
        return acc;
    }

    /**
     * A VvMpyAdd with both operands of each pair widened to the
     * output width and multiplied flat (vmul, then vmla).
     */
    NInstrPtr
    vv_flat_value(const UExprPtr &u)
    {
        const ScalarType want = u->type().elem;
        NInstrPtr acc;
        for (int i = 0; i + 1 < u->num_args(); i += 2) {
            NInstrPtr a = child(u->arg(i));
            NInstrPtr c = child(u->arg(i + 1));
            if (!a || !c)
                return nullptr;
            NInstrPtr aw = widen_to(a, want);
            NInstrPtr cw = widen_to(c, want);
            if (!aw || !cw)
                return nullptr;
            acc = acc ? NInstr::make(NOp::Mla, {acc, aw, cw})
                      : NInstr::make(NOp::Mul, {aw, cw});
        }
        return acc;
    }

    /**
     * The lane-wise uber-ops' one instruction each (Le is vcgt | vceq),
     * over the lowered operands; null for any other op, a shift by
     * other than a constant, or an operand that does not lower.
     */
    NInstrPtr
    lanewise_value(const UExprPtr &u)
    {
        std::vector<NInstrPtr> cs;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr c = child(u->arg(i));
            if (!c)
                return nullptr;
            cs.push_back(std::move(c));
        }
        switch (u->op()) {
          case UOp::AbsDiff:
            return NInstr::make(NOp::Abd, {cs[0], cs[1]});
          case UOp::Min:
            return NInstr::make(NOp::Min, {cs[0], cs[1]});
          case UOp::Max:
            return NInstr::make(NOp::Max, {cs[0], cs[1]});
          case UOp::Average:
            return NInstr::make(u->params().round ? NOp::Rhadd
                                                  : NOp::Hadd,
                                {cs[0], cs[1]});
          case UOp::And:
            return NInstr::make(NOp::And, {cs[0], cs[1]});
          case UOp::Or:
            return NInstr::make(NOp::Orr, {cs[0], cs[1]});
          case UOp::Xor:
            return NInstr::make(NOp::Eor, {cs[0], cs[1]});
          case UOp::Not:
            return NInstr::make(NOp::Not, {cs[0]});
          case UOp::Lt:
            return NInstr::make(NOp::Cmgt, {cs[1], cs[0]});
          case UOp::Le:
            return NInstr::make(
                NOp::Orr, {NInstr::make(NOp::Cmgt, {cs[1], cs[0]}),
                           NInstr::make(NOp::Cmeq, {cs[0], cs[1]})});
          case UOp::Eq:
            return NInstr::make(NOp::Cmeq, {cs[0], cs[1]});
          case UOp::Select:
            return NInstr::make(NOp::Bsl, {cs[0], cs[1], cs[2]});
          case UOp::ShiftLeft:
          case UOp::ShiftRight: {
            int64_t sh = 0;
            if (u->arg(1)->op() != UOp::HirLeaf ||
                !hir::as_const(u->arg(1)->leaf(), &sh))
                return nullptr;
            if (u->op() == UOp::ShiftLeft)
                return NInstr::make(NOp::Shl, {cs[0]}, {sh});
            if (u->params().round)
                return NInstr::make(NOp::Rshr, {cs[0]}, {sh});
            return NInstr::make(is_signed(u->type().elem) ? NOp::Sshr
                                                          : NOp::Ushr,
                                {cs[0]}, {sh});
          }
          default:
            return nullptr;
        }
    }

  private:
    UExprPtr
    pin(UExprPtr u)
    {
        return driver_.pin(std::move(u));
    }

    void
    emit(std::vector<Sketch> &out, SketchBuilder &b, NInstrPtr root,
         const VecType &want, const char *note)
    {
        root = coerce(std::move(root), want.elem);
        if (!root || !(root->type() == want))
            return;
        Sketch sk;
        sk.root = std::move(root);
        sk.holes = b.take();
        sk.note = note;
        out.push_back(std::move(sk));
    }

    /** A fully-lowered candidate coming back out of the driver. */
    void
    emit_lowered(std::vector<Sketch> &out, const UExprPtr &u,
                 const char *note)
    {
        auto h = driver_.lowered(u, Layout::Linear);
        if (!h)
            return;
        Sketch sk;
        sk.root = *h;
        sk.note = note;
        out.push_back(std::move(sk));
    }

    void
    leaf_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType t = u->type();
        hir::LoadRef ref;
        if (is_load_leaf(u, &ref)) {
            SketchBuilder b;
            NInstrPtr h = b.hole(
                t, window_cells(ref.buffer, ref.dy, ref.dx, t.lanes));
            emit(out, b, h, t, "load");
            return;
        }
        if (is_splat_leaf(u)) {
            SketchBuilder b;
            emit(out, b, NInstr::make_splat(splat_scalar(u), t.lanes), t,
                 "splat");
        }
    }

    void
    widen_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        NInstrPtr cx = child(u->arg(0));
        if (!cx)
            return;
        SketchBuilder b;
        emit(out, b, widen_to(cx, want.elem), want, "widen.vmovl");
    }

    void
    narrow_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        const ScalarType in_elem = u->arg(0)->type().elem;
        const int ratio = bits(in_elem) / bits(want.elem);

        if (ratio == 1) {
            same_width_narrow_templates(u, out);
            return;
        }
        if (ratio == 4) {
            emit_lowered(out, two_hop_narrow(u), "narrow.twohop");
            return;
        }
        if (ratio != 2)
            return;

        NInstrPtr cx = child(u->arg(0));
        if (!cx)
            return;

        // Fused families first (the shapes the greedy mapper picks).
        if (NInstrPtr fused = fused_narrow(cx, p, want.elem)) {
            SketchBuilder b;
            emit(out, b, fused, want,
                 p.saturate ? "narrow.vqrshrn" : "narrow.vshrn");
        }
        {
            SketchBuilder b;
            emit(out, b, decomposed_narrow(cx, p, in_elem, want.elem),
                 want, "narrow.decomposed");
        }
    }

    void
    same_width_narrow_templates(const UExprPtr &u,
                                std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();
        const ScalarType in_elem = u->arg(0)->type().elem;
        NInstrPtr cx = child(u->arg(0));
        if (!cx)
            return;
        SketchBuilder b;
        NInstrPtr v = shift_right(cx, p, in_elem);
        if (p.saturate) {
            // Same-width saturation only changes signedness; clamp to
            // the overlapping range with vmax/vmin (the greedy mapper
            // declines it).
            if (is_signed(in_elem) && !is_signed(want.elem)) {
                v = NInstr::make(NOp::Max,
                                 {v, dup_const(0, in_elem, want.lanes)});
            } else if (!is_signed(in_elem) && is_signed(want.elem)) {
                v = NInstr::make(NOp::Min,
                                 {v, dup_const(max_value(want.elem),
                                               in_elem, want.lanes)});
            }
        }
        emit(out, b, v, want, "narrow.samewidth");
    }

    /** Everything widened to the output width, multiplied flat. */
    NInstrPtr
    flat_chain_value(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        NInstrPtr acc;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr x = child(u->arg(i));
            if (!x)
                return nullptr;
            NInstrPtr xw = widen_to(x, t.elem);
            if (!xw)
                return nullptr;
            const int64_t w = p.kernel[i];
            if (w == 1 && acc) {
                acc = NInstr::make(NOp::Add, {acc, xw});
            } else if (w == 1) {
                acc = xw;
            } else {
                NInstrPtr ws = dup_const(w, t.elem, t.lanes);
                acc = acc ? NInstr::make(NOp::Mla, {acc, xw, ws})
                          : NInstr::make(NOp::Mul, {xw, ws});
            }
        }
        return acc;
    }

    /**
     * A saturating multiply-add computed exactly at double width, then
     * saturating-narrowed back; null when the output is already
     * 64-bit. CEGIS kills whichever shape mismatches the
     * uber-instruction's saturation semantics.
     */
    UExprPtr
    wide_then_narrow(const UExprPtr &u)
    {
        const ScalarType want = u->type().elem;
        const ScalarType wide = widen(want);
        if (wide == want)
            return nullptr;
        UParams wp = u->params();
        wp.saturate = false;
        wp.out_elem = wide;
        UParams np;
        np.out_elem = want;
        np.saturate = true;
        return pin(UExpr::make(
            UOp::Narrow, {pin(UExpr::make(u->op(), u->args(), wp))}, np));
    }

    void
    vs_mpy_add_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const UParams &p = u->params();

        if (p.saturate) {
            // (a) Products saturating-accumulated with vqadd.
            {
                SketchBuilder b;
                NInstrPtr acc;
                for (int i = 0; i < u->num_args(); ++i) {
                    NInstrPtr x = child(u->arg(i));
                    if (!x) {
                        acc = nullptr;
                        break;
                    }
                    const int64_t w = p.kernel[i];
                    NInstrPtr term;
                    if (bits(x->type().elem) * 2 == bits(want.elem)) {
                        term = coerce(
                            NInstr::make(
                                NOp::Mull,
                                {x, dup_const(w, x->type().elem,
                                              x->type().lanes)}),
                            want.elem);
                    } else {
                        NInstrPtr xw = widen_to(x, want.elem);
                        if (!xw)
                            break;
                        term = w == 1
                                   ? xw
                                   : NInstr::make(
                                         NOp::Mul,
                                         {xw, dup_const(w, want.elem,
                                                        want.lanes)});
                    }
                    if (!term) {
                        acc = nullptr;
                        break;
                    }
                    acc = acc ? NInstr::make(NOp::Qadd, {acc, term})
                              : term;
                }
                if (acc)
                    emit(out, b, acc, want, "vsmpy.qadd");
            }
            // (b) Exactly at double width, then narrowed.
            if (UExprPtr two = wide_then_narrow(u))
                emit_lowered(out, two, "vsmpy.sat.widen");
            return;
        }

        {
            SketchBuilder b;
            NInstrPtr acc = mull_chain_value(u);
            if (acc)
                emit(out, b, acc, want, "vsmpy.mull.chain");
        }
        {
            SketchBuilder b;
            NInstrPtr acc = flat_chain_value(u);
            if (acc)
                emit(out, b, acc, want, "vsmpy.flat");
        }
    }

    void
    vv_mpy_add_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        const VecType want = u->type();
        const int k = u->num_args();

        if (u->params().saturate) {
            if (UExprPtr two = wide_then_narrow(u))
                emit_lowered(out, two, "vvmpy.sat.widen");
            return;
        }

        // (i) Flat: widen both operands, multiply at output width.
        {
            SketchBuilder b;
            NInstrPtr acc = vv_flat_value(u);
            if (acc)
                emit(out, b, acc, want, "vvmpy.flat");
        }
        // (ii) Widening multiplies when both pair operands sit at
        // half the output width (vmull / vmlal).
        {
            SketchBuilder b;
            NInstrPtr acc;
            bool ok = true;
            for (int i = 0; i + 1 < k && ok; i += 2) {
                NInstrPtr a = child(u->arg(i));
                NInstrPtr c = child(u->arg(i + 1));
                if (!a || !c ||
                    bits(a->type().elem) * 2 != bits(want.elem) ||
                    a->type().elem != c->type().elem) {
                    ok = false;
                    break;
                }
                NInstrPtr v =
                    acc ? NInstr::make(
                              NOp::Mlal,
                              {coerce(acc, widen(a->type().elem)), a,
                               c})
                        : NInstr::make(NOp::Mull, {a, c});
                acc = coerce(v, want.elem);
                if (!acc)
                    ok = false;
            }
            if (ok && acc)
                emit(out, b, acc, want, "vvmpy.mull.chain");
        }
    }

    void
    lanewise_templates(const UExprPtr &u, std::vector<Sketch> &out)
    {
        SketchBuilder b;
        emit(out, b, lanewise_value(u), u->type(), "lanewise");
    }

    LowerDriver &driver_;
};

/**
 * Neon's greedy mapper: what `--greedy` runs and what a timed-out
 * Neon query degrades to. It lowers each uber-op by the first grammar
 * template that applies, built by NeonGrammar's value builders over
 * this mapper's own memoized lowering of the operands (it is their
 * LowerDriver), and declines the shapes only the search handles:
 * saturating multiply-adds and same-width saturation. A load is a
 * plain vld1; there is no search and no deadline.
 */
class NeonGreedy final : public LowerDriver
{
  public:
    std::optional<InstrHandle>
    lowered(const UExprPtr &u, Layout) override
    {
        auto it = memo_.find(u.get());
        if (it == memo_.end())
            it = memo_.emplace(u.get(), map(u)).first;
        if (!it->second)
            return std::nullopt;
        return it->second;
    }

    /** Keeps two-hop narrows alive: the memo keys on node addresses. */
    UExprPtr
    pin(UExprPtr u) override
    {
        pinned_.push_back(u);
        return u;
    }

    bool layouts_enabled() const override { return false; }

  private:
    NInstrPtr
    map(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        switch (u->op()) {
          case UOp::HirLeaf: {
            hir::LoadRef ref;
            if (is_load_leaf(u, &ref))
                return NInstr::make_read(ref, t);
            return NInstr::make_splat(splat_scalar(u), t.lanes);
          }
          case UOp::Widen:
            return NeonGrammar::widen_to(grammar_.child(u->arg(0)), t.elem);
          case UOp::Narrow:
            return narrow_value(u);
          case UOp::VsMpyAdd:
            return p.saturate ? nullptr : grammar_.mull_chain_value(u);
          case UOp::VvMpyAdd:
            return p.saturate ? nullptr : grammar_.vv_flat_value(u);
          default:
            return grammar_.lanewise_value(u);
        }
    }

    NInstrPtr
    narrow_value(const UExprPtr &u)
    {
        const ScalarType out = u->type().elem;
        const UParams &p = u->params();
        NInstrPtr x = grammar_.child(u->arg(0));
        if (!x)
            return nullptr;
        const ScalarType elem = x->type().elem;
        switch (bits(u->arg(0)->type().elem) / bits(out)) {
          case 1:
            if (p.saturate)
                return nullptr;
            return NeonGrammar::coerce(NeonGrammar::shift_right(x, p, elem),
                                       out);
          case 4:
            return grammar_.child(grammar_.two_hop_narrow(u));
          default: {
            NInstrPtr v = NeonGrammar::fused_narrow(x, p, out);
            if (!v)
                v = NeonGrammar::decomposed_narrow(x, p, elem, out);
            return NeonGrammar::coerce(v, out);
          }
        }
    }

    NeonGrammar grammar_{*this};
    std::unordered_map<const UExpr *, NInstrPtr> memo_;
    std::vector<UExprPtr> pinned_;
};

/** Neon's repertoire for the shared backend (backend/isa_backend.h). */
struct NeonRepertoire {
    using Traits = neon::Traits;
    using Target = neon::Target;
    using Grammar = NeonGrammar;
    using Moves = NeonMoves;

    static constexpr const char *kName = "neon";
    /** 2: scalar examples take their variable type's extremes (see
     *  synth::kHvxGrammarVersion). */
    static constexpr int kGrammarVersion = 2;
    /** 2: structurally equal nodes count once; vmovl's latency is 3. */
    static constexpr int kCostModelVersion = 2;

    static Cost
    cost(const NInstrPtr &instr, const neon::Target &target)
    {
        const neon::Cost c = neon::cost_of(instr, target);
        return Cost{c.scalar(), c.total_instructions, c.total_latency};
    }

    /**
     * NeonGreedy over the shared lift, checked against the reference
     * on the example pool's first 12 examples; null when the lift or
     * the mapper declines or the check fails.
     */
    static NInstrPtr
    greedy(const hir::ExprPtr &expr, const neon::Target &)
    {
        const hir::ExprPtr normalized = hir::simplify(expr);
        const synth::Spec spec = synth::Spec::from_expr(normalized);
        synth::ExamplePool pool(spec, 1);
        synth::Verifier verifier(spec, pool);
        const synth::LiftResult lifted = synth::lift_to_uir(verifier);
        if (!lifted.expr)
            return nullptr;
        NInstrPtr n;
        try {
            NeonGreedy mapper;
            auto h = mapper.lowered(lifted.expr, Layout::Linear);
            if (!h)
                return nullptr;
            n = ncast(*h);
        } catch (const UserError &) {
            return nullptr;
        }
        for (int i = 0; i < 12; ++i) {
            const Env &env = pool.at(i);
            if (!(hir::evaluate(normalized, env) == neon::evaluate(n, env)))
                return nullptr;
        }
        return n;
    }
};

} // namespace

std::unique_ptr<TargetISA>
make_neon_backend(const neon::Target &target)
{
    return std::make_unique<IsaBackend<NeonRepertoire>>(target);
}

} // namespace rake::backend
