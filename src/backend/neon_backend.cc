#include "backend/neon_backend.h"

#include <algorithm>

#include "backend/leaf_util.h"
#include "neon/interp.h"
#include "neon/select.h"
#include "neon/sexpr.h"
#include "support/error.h"
#include "synth/sketch.h"
#include "synth/swizzle.h"

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
 * on cost under CEGIS, replacing the old single greedy mapping; the
 * greedy chain shape survives as one template among several, so
 * everything the preliminary port could select is still reachable.
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

  private:
    /** Recursive lowering through the core (the memoized search). */
    NInstrPtr
    child(const UExprPtr &c)
    {
        auto h = driver_.lowered(c, Layout::Linear);
        if (!h)
            return nullptr;
        return ncast(*h);
    }

    UExprPtr
    pin(UExprPtr u)
    {
        return driver_.pin(std::move(u));
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
        const UExprPtr &x = u->arg(0);
        const UParams &p = u->params();
        const ScalarType in_elem = x->type().elem;
        const int ratio = bits(in_elem) / bits(want.elem);

        if (ratio == 1) {
            same_width_narrow_templates(u, out);
            return;
        }
        if (ratio == 4) {
            // Narrow in two hops via a synthetic middle-width UIR
            // node (shift+round+sat in the first hop, final clamp in
            // the second); the verifier rejects unsound compositions.
            UParams p1;
            p1.out_elem = narrow(in_elem);
            p1.shift = p.shift;
            p1.round = p.round;
            p1.saturate = p.saturate;
            UParams p2;
            p2.out_elem = want.elem;
            p2.saturate = p.saturate;
            const UExprPtr two = pin(UExpr::make(
                UOp::Narrow,
                {pin(UExpr::make(UOp::Narrow, {x}, p1))}, p2));
            emit_lowered(out, two, "narrow.twohop");
            return;
        }
        if (ratio != 2)
            return;

        NInstrPtr cx = child(x);
        if (!cx)
            return;

        // Fused families first (the shapes the greedy port picked).
        if (p.shift > 0 && p.round && p.saturate) {
            SketchBuilder b;
            emit(out, b,
                 NInstr::make(NOp::Qrshrn, {cx}, {p.shift}, want.elem),
                 want, "narrow.vqrshrn");
        }
        if (p.shift > 0 && !p.round && !p.saturate) {
            SketchBuilder b;
            emit(out, b, NInstr::make(NOp::Shrn, {cx}, {p.shift}), want,
                 "narrow.vshrn");
        }
        // Decomposed: optional shift, then a (saturating) narrow.
        {
            SketchBuilder b;
            NInstrPtr v = cx;
            if (p.shift > 0)
                v = NInstr::make(p.round            ? NOp::Rshr
                                 : is_signed(in_elem) ? NOp::Sshr
                                                      : NOp::Ushr,
                                 {v}, {p.shift});
            v = p.saturate
                    ? NInstr::make(NOp::Qxtn, {v}, {}, want.elem)
                    : NInstr::make(NOp::Xtn, {v});
            emit(out, b, v, want, "narrow.decomposed");
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
        NInstrPtr v = cx;
        if (p.shift > 0)
            v = NInstr::make(p.round            ? NOp::Rshr
                             : is_signed(in_elem) ? NOp::Sshr
                                                  : NOp::Ushr,
                             {v}, {p.shift});
        if (p.saturate) {
            // Same-width saturation only changes signedness; clamp to
            // the overlapping range with vmax/vmin (previously
            // unmapped in the greedy port).
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

    /**
     * The widening multiply-accumulate chain (vmull + vmlal for
     * half-width terms, flat vmla for full-width ones) — exactly the
     * shape the greedy port built, kept as the leading template so
     * its selections are reproduced whenever it is sound.
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
            // (b) Compute exactly at double width, then saturating-
            // narrow back; CEGIS kills whichever shape mismatches the
            // uber-instruction's saturation semantics.
            const ScalarType wide_elem = widen(want.elem);
            if (wide_elem != want.elem) {
                UParams wp = p;
                wp.saturate = false;
                wp.out_elem = wide_elem;
                UParams np;
                np.out_elem = want.elem;
                np.saturate = true;
                const UExprPtr two = pin(UExpr::make(
                    UOp::Narrow,
                    {pin(UExpr::make(UOp::VsMpyAdd, u->args(), wp))},
                    np));
                emit_lowered(out, two, "vsmpy.sat.widen");
            }
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
        const UParams &p = u->params();
        const int k = u->num_args();

        if (p.saturate) {
            const ScalarType wide_elem = widen(want.elem);
            if (wide_elem == want.elem)
                return;
            UParams wp = p;
            wp.saturate = false;
            wp.out_elem = wide_elem;
            UParams np;
            np.out_elem = want.elem;
            np.saturate = true;
            const UExprPtr two = pin(UExpr::make(
                UOp::Narrow,
                {pin(UExpr::make(UOp::VvMpyAdd, u->args(), wp))}, np));
            emit_lowered(out, two, "vvmpy.sat.widen");
            return;
        }

        // (i) Flat: widen both operands, multiply at output width.
        {
            SketchBuilder b;
            NInstrPtr acc;
            bool ok = true;
            for (int i = 0; i + 1 < k && ok; i += 2) {
                NInstrPtr a = child(u->arg(i));
                NInstrPtr c = child(u->arg(i + 1));
                if (!a || !c) {
                    ok = false;
                    break;
                }
                NInstrPtr aw = widen_to(a, want.elem);
                NInstrPtr cw = widen_to(c, want.elem);
                if (!aw || !cw) {
                    ok = false;
                    break;
                }
                acc = acc ? NInstr::make(NOp::Mla, {acc, aw, cw})
                          : NInstr::make(NOp::Mul, {aw, cw});
            }
            if (ok && acc)
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
        const VecType want = u->type();
        const UParams &p = u->params();
        std::vector<NInstrPtr> cs;
        for (int i = 0; i < u->num_args(); ++i) {
            NInstrPtr c = child(u->arg(i));
            if (!c)
                return;
            cs.push_back(std::move(c));
        }
        SketchBuilder b;
        NInstrPtr root;
        switch (u->op()) {
          case UOp::AbsDiff:
            root = NInstr::make(NOp::Abd, {cs[0], cs[1]});
            break;
          case UOp::Min:
            root = NInstr::make(NOp::Min, {cs[0], cs[1]});
            break;
          case UOp::Max:
            root = NInstr::make(NOp::Max, {cs[0], cs[1]});
            break;
          case UOp::Average:
            root = NInstr::make(p.round ? NOp::Rhadd : NOp::Hadd,
                                {cs[0], cs[1]});
            break;
          case UOp::And:
            root = NInstr::make(NOp::And, {cs[0], cs[1]});
            break;
          case UOp::Or:
            root = NInstr::make(NOp::Orr, {cs[0], cs[1]});
            break;
          case UOp::Xor:
            root = NInstr::make(NOp::Eor, {cs[0], cs[1]});
            break;
          case UOp::Not:
            root = NInstr::make(NOp::Not, {cs[0]});
            break;
          case UOp::Lt:
            root = NInstr::make(NOp::Cmgt, {cs[1], cs[0]});
            break;
          case UOp::Le:
            root = NInstr::make(
                NOp::Orr, {NInstr::make(NOp::Cmgt, {cs[1], cs[0]}),
                           NInstr::make(NOp::Cmeq, {cs[0], cs[1]})});
            break;
          case UOp::Eq:
            root = NInstr::make(NOp::Cmeq, {cs[0], cs[1]});
            break;
          case UOp::Select:
            root = NInstr::make(NOp::Bsl, {cs[0], cs[1], cs[2]});
            break;
          case UOp::ShiftLeft:
          case UOp::ShiftRight: {
            int64_t sh = 0;
            if (u->arg(1)->op() != UOp::HirLeaf ||
                !hir::as_const(u->arg(1)->leaf(), &sh))
                return;
            if (u->op() == UOp::ShiftLeft)
                root = NInstr::make(NOp::Shl, {cs[0]}, {sh});
            else if (p.round)
                root = NInstr::make(NOp::Rshr, {cs[0]}, {sh});
            else
                root = NInstr::make(is_signed(want.elem) ? NOp::Sshr
                                                         : NOp::Ushr,
                                    {cs[0]}, {sh});
            break;
          }
          default:
            return;
        }
        emit(out, b, root, want, "lanewise");
    }

    LowerDriver &driver_;
};

class NeonBackend final : public TargetISA
{
  public:
    explicit NeonBackend(const neon::Target &target) : target_(target)
    {
    }

    std::string name() const override { return "neon"; }

    void
    candidates(const UExprPtr &u, Layout layout, LowerDriver &driver,
               std::vector<Sketch> &out) override
    {
        NeonGrammar grammar(driver);
        grammar.candidates(u, layout, out);
    }

    int
    instruction_count(const InstrHandle &instr) const override
    {
        return ncast(instr)->instruction_count();
    }

    InstrHandle
    substitute_holes(
        const InstrHandle &root,
        const std::vector<InstrHandle> &solutions) const override
    {
        return synth::substitute_holes<NInstr>(root, solutions);
    }

    std::optional<InstrHandle>
    solve_hole(const synth::Hole &hole, int budget,
               synth::SwizzleStats &stats) override
    {
        return synth::solve_hole_in_run(solver_, NeonMoves{target_}, hole,
                                        budget, stats, deadline_);
    }

    Cost
    cost_of(const InstrHandle &instr) const override
    {
        const neon::Cost c = neon::cost_of(ncast(instr), target_);
        return Cost{c.scalar(), c.total_instructions, c.total_latency};
    }

    std::unique_ptr<Evaluator>
    make_evaluator() const override
    {
        return std::make_unique<synth::InterpEvaluator<NInstr>>();
    }

    Value
    hole_value(const synth::Hole &hole, const Env &env,
               const isa::HoleOracle &oracle) const override
    {
        return synth::arrangement_value<NInstr>(hole, env, oracle);
    }

    void
    set_deadline(const Deadline &deadline) override
    {
        deadline_ = deadline;
    }

    std::optional<InstrHandle>
    greedy_select(const hir::ExprPtr &expr) const override
    {
        // The PR 3 greedy one-template mapping, run deadline-free (it
        // is bounded: one template per uber-op, no search). It can
        // still return nullopt for uber-ops outside the greedy
        // repertoire, in which case degradation yields no program.
        neon::SelectOptions opts;
        opts.greedy = true;
        auto r = neon::select_instructions(expr, opts);
        if (!r)
            return std::nullopt;
        return InstrHandle(std::move(*r));
    }

    std::string
    instr_to_sexpr(const InstrHandle &instr) const override
    {
        return neon::to_sexpr(ncast(instr));
    }

    InstrHandle
    instr_from_sexpr(const std::string &text) const override
    {
        return neon::parse_instr(text);
    }

    int
    grammar_version() const override
    {
        // 2: scalar examples take their variable type's extremes
        // (see kHvxGrammarVersion).
        return 2;
    }

    int
    cost_model_version() const override
    {
        // 2: structurally equal nodes count once; vmovl's latency is 3.
        return 2;
    }

  private:
    neon::Target target_;
    std::optional<synth::SwizzleSolver<NeonMoves>> solver_;
    Deadline deadline_;
};

} // namespace

std::unique_ptr<TargetISA>
make_neon_backend(const neon::Target &target)
{
    return std::make_unique<NeonBackend>(target);
}

} // namespace rake::backend
