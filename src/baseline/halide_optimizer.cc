#include "baseline/halide_optimizer.h"

#include <unordered_map>

#include "base/arith.h"
#include "hir/analysis.h"
#include "hir/simplify.h"
#include "support/error.h"

namespace rake::baseline {

namespace {

using hir::ExprPtr;
using hir::Op;
using hvx::Instr;
using hvx::InstrPtr;
using hvx::Opcode;

/** value = cast<wide>(src) * weight — one widening multiply term. */
struct WTerm {
    ExprPtr src;     ///< narrow source expression
    int64_t weight;
};

/** value = cast<wide>(a) * cast<wide>(b) — a widening vv multiply. */
struct VVTerm {
    ExprPtr a, b;
};

/** A flattened additive term with its sign. */
struct Term {
    ExprPtr expr;
    int64_t sign;
};

void
collect_terms(const ExprPtr &e, int64_t sign, std::vector<Term> &out)
{
    if (e->op() == Op::Add) {
        collect_terms(e->arg(0), sign, out);
        collect_terms(e->arg(1), sign, out);
        return;
    }
    if (e->op() == Op::Sub) {
        collect_terms(e->arg(0), sign, out);
        collect_terms(e->arg(1), -sign, out);
        return;
    }
    out.push_back({e, sign});
}

/** Is `e` a widening cast from exactly half the element width? */
bool
as_widening_cast(const ExprPtr &e, ScalarType wide, ExprPtr *src)
{
    if (e->op() != Op::Cast || e->type().elem != wide)
        return false;
    if (bits(e->arg(0)->type().elem) * 2 != bits(wide))
        return false;
    *src = e->arg(0);
    return true;
}

bool
as_widening_term(const ExprPtr &e, ScalarType wide, WTerm *out)
{
    ExprPtr src;
    if (as_widening_cast(e, wide, &src)) {
        *out = {src, 1};
        return true;
    }
    if (e->op() == Op::Mul) {
        int64_t c = 0;
        for (int i = 0; i < 2; ++i) {
            if (hir::as_const(e->arg(i), &c) &&
                as_widening_cast(e->arg(1 - i), wide, &src)) {
                *out = {src, c};
                return true;
            }
        }
    }
    if (e->op() == Op::ShiftLeft) {
        int64_t n = 0;
        if (hir::as_const(e->arg(1), &n) && n >= 0 && n < 31 &&
            as_widening_cast(e->arg(0), wide, &src)) {
            *out = {src, int64_t{1} << n};
            return true;
        }
    }
    return false;
}

bool
as_widening_vv_term(const ExprPtr &e, ScalarType wide, VVTerm *out)
{
    if (e->op() != Op::Mul)
        return false;
    ExprPtr a, b;
    if (as_widening_cast(e->arg(0), wide, &a) &&
        as_widening_cast(e->arg(1), wide, &b) &&
        a->type().elem == b->type().elem) {
        *out = {a, b};
        return true;
    }
    return false;
}

/**
 * Strip min/max-with-constant layers: returns the innermost value and
 * the collected (lo, hi) bounds.
 */
ExprPtr
strip_clamp(const ExprPtr &e, int64_t *lo, int64_t *hi, bool *has_lo,
            bool *has_hi)
{
    ExprPtr cur = e;
    *has_lo = *has_hi = false;
    for (int layer = 0; layer < 2; ++layer) {
        if (cur->op() != Op::Min && cur->op() != Op::Max)
            break;
        int64_t c = 0;
        ExprPtr next;
        if (hir::as_const(cur->arg(1), &c))
            next = cur->arg(0);
        else if (hir::as_const(cur->arg(0), &c))
            next = cur->arg(1);
        else
            break;
        if (cur->op() == Op::Min) {
            *hi = c;
            *has_hi = true;
        } else {
            *lo = c;
            *has_lo = true;
        }
        cur = next;
    }
    return cur;
}

class BaselineSelector
{
  public:
    explicit BaselineSelector(const hvx::Target &target)
        : target_(target)
    {
        (void)target_;
    }

    InstrPtr
    mutate(const ExprPtr &e)
    {
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        InstrPtr v = mutate_impl(e);
        RAKE_CHECK(v != nullptr, "baseline failed on "
                                     << hir::to_string(e->op()));
        RAKE_CHECK(v->type() == e->type(),
                   "baseline produced " << to_string(v->type())
                                        << " for "
                                        << to_string(e->type()));
        memo_.emplace(e.get(), v);
        return v;
    }

  private:
    // ---- helpers ---------------------------------------------------

    InstrPtr
    splat_const(int64_t v, ScalarType t, int lanes)
    {
        return Instr::make_splat(
            hir::Expr::make_const(v, VecType(t, 1)), lanes);
    }

    /** Interleave a freshly widened (deinterleaved) pair to linear. */
    InstrPtr
    to_linear(InstrPtr v)
    {
        return Instr::make(Opcode::VShuffVdd, {std::move(v)});
    }

    /** Deinterleave a linear pair ahead of a narrowing pack. */
    InstrPtr
    deal(InstrPtr v)
    {
        return Instr::make(Opcode::VDealVdd, {std::move(v)});
    }

    InstrPtr
    coerce(InstrPtr v, const VecType &want)
    {
        if (!v || v->type() == want)
            return v;
        RAKE_CHECK(v->type().total_bytes() == want.total_bytes(),
                   "baseline coerce size mismatch");
        return Instr::make(Opcode::VBitcast, {v}, {}, want.elem);
    }

    /** Widening move (vzxt/vsxt) already interleaved back to linear. */
    InstrPtr
    widen_linear(const ExprPtr &src, ScalarType wide)
    {
        InstrPtr v = mutate(src);
        InstrPtr w = Instr::make(is_signed(src->type().elem)
                                     ? Opcode::VSxt
                                     : Opcode::VZxt,
                                 {v});
        return coerce(to_linear(w), src->type().with_elem(wide));
    }

    // ---- op handlers -------------------------------------------------

    InstrPtr
    mutate_impl(const ExprPtr &e)
    {
        const VecType t = e->type();
        switch (e->op()) {
          case Op::Load:
            return Instr::make_read(e->load_ref(), t);
          case Op::Const:
            return splat_const(e->const_value(), t.elem, t.lanes);
          case Op::Var:
            return Instr::make_splat(e, 1);
          case Op::Broadcast:
            return Instr::make_splat(e->arg(0), t.lanes);
          case Op::Cast:
            return select_cast(e);
          case Op::Add:
          case Op::Sub:
            return select_sum(e);
          case Op::Mul:
            return select_mul(e);
          case Op::Min:
            return binary(Opcode::VMin, e);
          case Op::Max:
            return binary(Opcode::VMax, e);
          case Op::AbsDiff:
            return binary(Opcode::VAbsDiff, e);
          case Op::And:
            return binary(Opcode::VAnd, e);
          case Op::Or:
            return binary(Opcode::VOr, e);
          case Op::Xor:
            return binary(Opcode::VXor, e);
          case Op::Not:
            return Instr::make(Opcode::VNot, {mutate(e->arg(0))});
          case Op::ShiftLeft:
          case Op::ShiftRight:
            return select_shift(e);
          case Op::Lt:
            return Instr::make(Opcode::VCmpGt,
                               {mutate(e->arg(1)), mutate(e->arg(0))});
          case Op::Le:
            return Instr::make(
                Opcode::VOr,
                {Instr::make(Opcode::VCmpGt, {mutate(e->arg(1)),
                                              mutate(e->arg(0))}),
                 Instr::make(Opcode::VCmpEq, {mutate(e->arg(0)),
                                              mutate(e->arg(1))})});
          case Op::Eq:
            return Instr::make(Opcode::VCmpEq,
                               {mutate(e->arg(0)), mutate(e->arg(1))});
          case Op::Select:
            return Instr::make(Opcode::VMux,
                               {mutate(e->arg(0)), mutate(e->arg(1)),
                                mutate(e->arg(2))});
        }
        RAKE_UNREACHABLE("unhandled HIR op in baseline");
    }

    InstrPtr
    binary(Opcode op, const ExprPtr &e)
    {
        return Instr::make(op, {mutate(e->arg(0)), mutate(e->arg(1))});
    }

    InstrPtr
    select_cast(const ExprPtr &e)
    {
        const VecType want = e->type();
        const ExprPtr &a = e->arg(0);
        const int ib = bits(a->type().elem);
        const int ob = bits(want.elem);

        if (ob == ib)
            return coerce(mutate(a), want);
        if (ob > ib) {
            // One widening round per doubling (two for 4x, three for
            // 8x), each extending by the source's signedness.
            ScalarType cur = a->type().elem;
            InstrPtr v = mutate(a);
            for (; bits(cur) < ob; cur = widen(cur))
                v = to_linear(Instr::make(
                    is_signed(cur) ? Opcode::VSxt : Opcode::VZxt, {v}));
            return coerce(v, want);
        }

        // Narrowing. Halide's rules: an avg shape becomes vavg; a
        // clamp shape becomes a saturating pack (with the clamps kept
        // unless they exactly match the type range); anything else is
        // a truncating vshuffeb pack.
        if (ib == 2 * ob) {
            if (InstrPtr avg = try_avg_pattern(e))
                return avg;
            int64_t lo = 0, hi = 0;
            bool has_lo = false, has_hi = false;
            ExprPtr inner =
                strip_clamp(a, &lo, &hi, &has_lo, &has_hi);
            const bool exact = has_lo && has_hi &&
                               lo == min_value(want.elem) &&
                               hi == max_value(want.elem);
            if (exact) {
                // The one clamp shape Halide's saturating-pack rule
                // matches: clamp bounds == exactly the target range.
                InstrPtr pair = deal(mutate(inner));
                return Instr::make(
                    Opcode::VPackSat,
                    {Instr::make(Opcode::VLo, {pair}),
                     Instr::make(Opcode::VHi, {pair})},
                    {}, want.elem);
            }
            // Any other clamp (or none): keep the explicit min/max
            // and pack by truncation (vshuffeb) below, the Fig. 4(c)
            // and camera_pipe codegen the paper documents.
        }
        // One truncating pack per halving (one for 2x, three for 8x).
        ScalarType cur = a->type().elem;
        InstrPtr v = mutate(a);
        while (bits(cur) > ob) {
            cur = bits(cur) == 2 * ob ? want.elem : narrow(cur);
            InstrPtr pair = deal(v);
            v = coerce(Instr::make(Opcode::VPackE,
                                   {Instr::make(Opcode::VLo, {pair}),
                                    Instr::make(Opcode::VHi, {pair})}),
                       want.with_elem(cur));
        }
        return v;
    }

    /**
     * Halide's vavg rule: cast<T>((cast<2T>(a) + cast<2T>(b) [+ 1])
     * >> 1) with a, b of type T.
     */
    InstrPtr
    try_avg_pattern(const ExprPtr &e)
    {
        const ExprPtr &sh = e->arg(0);
        if (sh->op() != Op::ShiftRight)
            return nullptr;
        int64_t n = 0;
        if (!hir::as_const(sh->arg(1), &n) || n != 1)
            return nullptr;
        std::vector<Term> terms;
        collect_terms(sh->arg(0), 1, terms);
        std::vector<ExprPtr> vals;
        bool round = false;
        for (const Term &t : terms) {
            int64_t c = 0;
            if (t.sign == 1 && hir::as_const(t.expr, &c) && c == 1) {
                round = true;
                continue;
            }
            ExprPtr src;
            if (t.sign == 1 &&
                as_widening_cast(t.expr, sh->type().elem, &src) &&
                src->type().elem == e->type().elem) {
                vals.push_back(src);
                continue;
            }
            return nullptr;
        }
        if (vals.size() != 2)
            return nullptr;
        return Instr::make(round ? Opcode::VAvgRnd : Opcode::VAvg,
                           {mutate(vals[0]), mutate(vals[1])});
    }

    /**
     * Sum selection: flatten the additive tree, group widening
     * multiplies into vmpa pairs, zero-extend unit-weight leftovers,
     * and combine everything with plain vadd/vsub — exactly Halide's
     * shape, with no vtmpy and no accumulating chains.
     */
    InstrPtr
    select_sum(const ExprPtr &e)
    {
        const VecType want = e->type();
        std::vector<Term> terms;
        collect_terms(e, 1, terms);

        std::vector<WTerm> wterms;
        std::vector<VVTerm> vvterms;
        std::vector<Term> wide;
        for (const Term &t : terms) {
            WTerm wt;
            VVTerm vv;
            if (t.sign == 1 && as_widening_term(t.expr, want.elem, &wt) &&
                bits(wt.src->type().elem) * 2 == bits(want.elem)) {
                wterms.push_back(wt);
            } else if (t.sign == 1 &&
                       as_widening_vv_term(t.expr, want.elem, &vv)) {
                vvterms.push_back(vv);
            } else {
                wide.push_back(t);
            }
        }

        std::vector<InstrPtr> pos, neg;

        // vmpa pairs over same-typed narrow sources.
        size_t i = 0;
        while (i + 1 < wterms.size()) {
            if (wterms[i].src->type().elem ==
                wterms[i + 1].src->type().elem) {
                InstrPtr v = Instr::make(
                    Opcode::VMpa,
                    {mutate(wterms[i].src), mutate(wterms[i + 1].src)},
                    {wterms[i].weight, wterms[i + 1].weight});
                pos.push_back(coerce(to_linear(v), want));
                i += 2;
            } else {
                break;
            }
        }
        // Leftover widening terms.
        std::vector<WTerm> leftover(wterms.begin() + i, wterms.end());

        for (const VVTerm &vv : vvterms) {
            InstrPtr v = Instr::make(Opcode::VMpy,
                                     {mutate(vv.a), mutate(vv.b)});
            pos.push_back(coerce(to_linear(v), want));
        }
        for (const Term &t : wide)
            (t.sign > 0 ? pos : neg).push_back(mutate(t.expr));

        // Halide's vmpyi-acc rule: a leftover widening multiply with
        // an existing wide accumulator becomes a non-widening
        // multiply-accumulate on the zero-extended value (two issues
        // on a register pair — the paper's "add" example).
        InstrPtr acc;
        auto add_to_acc = [&](InstrPtr v) {
            acc = acc ? Instr::make(Opcode::VAdd, {acc, v}) : v;
        };
        for (InstrPtr &v : pos)
            add_to_acc(v);
        for (const WTerm &wt : leftover) {
            InstrPtr zext = widen_linear(wt.src, want.elem);
            if (wt.weight == 1) {
                add_to_acc(zext);
            } else if (acc) {
                acc = Instr::make(
                    Opcode::VMpyiAcc,
                    {acc, zext,
                     splat_const(wt.weight, want.elem, want.lanes)});
            } else {
                add_to_acc(Instr::make(
                    Opcode::VMpyi,
                    {zext,
                     splat_const(wt.weight, want.elem, want.lanes)}));
            }
        }
        for (InstrPtr &v : neg) {
            acc = acc ? Instr::make(Opcode::VSub, {acc, v})
                      : Instr::make(
                            Opcode::VSub,
                            {splat_const(0, want.elem, want.lanes), v});
        }
        RAKE_CHECK(acc != nullptr, "empty sum in baseline");
        return acc;
    }

    InstrPtr
    select_mul(const ExprPtr &e)
    {
        const VecType want = e->type();

        // Widening vector-vector multiply.
        VVTerm vv;
        if (as_widening_vv_term(e, want.elem, &vv)) {
            InstrPtr v =
                Instr::make(Opcode::VMpy, {mutate(vv.a), mutate(vv.b)});
            return coerce(to_linear(v), want);
        }
        // Widening vector-scalar multiply.
        WTerm wt;
        if (as_widening_term(e, want.elem, &wt) && wt.weight != 1) {
            // vmpy reads the splat with the source's signedness, so
            // the narrow splat only says what we mean when the weight
            // is representable there (e.g. -3 over a u16 source would
            // silently become 65533). Otherwise widen first and
            // multiply in the wide type, where the weight always fits.
            if (wt.weight == wrap(wt.src->type().elem, wt.weight)) {
                InstrPtr v = Instr::make(
                    Opcode::VMpy,
                    {mutate(wt.src),
                     splat_const(wt.weight, wt.src->type().elem,
                                 wt.src->type().lanes)});
                return coerce(to_linear(v), want);
            }
            InstrPtr zext = widen_linear(wt.src, want.elem);
            return Instr::make(
                Opcode::VMpyi,
                {zext,
                 splat_const(wt.weight, want.elem, want.lanes)});
        }
        // Word-by-halfword: Halide's vmpyio + vaslw + vmpyio route
        // (no vmpyie — that requires the unsigned-evens proof Rake
        // makes).
        if (InstrPtr v = try_word_by_half(e))
            return v;

        // Constant power of two: shift.
        int64_t c = 0;
        for (int i = 0; i < 2; ++i) {
            if (hir::as_const(e->arg(i), &c) && c > 0 &&
                (c & (c - 1)) == 0) {
                int n = 0;
                while ((int64_t{1} << n) < c)
                    ++n;
                return Instr::make(Opcode::VAsl,
                                   {mutate(e->arg(1 - i))}, {n});
            }
        }
        // Fallback: non-widening multiply. vmpyi only exists for h/w
        // elements; HVX has no byte multiply, so Halide's byte route
        // is the widening vmpybv pair packed back down by truncation
        // (vshuffeb) — low bytes of the products are exactly the
        // wraparound u8/i8 result.
        if (bits(want.elem) < 16) {
            InstrPtr wide = Instr::make(
                Opcode::VMpy, {mutate(e->arg(0)), mutate(e->arg(1))});
            InstrPtr lin = coerce(to_linear(wide),
                                  want.with_elem(widen(want.elem)));
            InstrPtr pair = deal(lin);
            return coerce(
                Instr::make(Opcode::VPackE,
                            {Instr::make(Opcode::VLo, {pair}),
                             Instr::make(Opcode::VHi, {pair})}),
                want);
        }
        return Instr::make(Opcode::VMpyi,
                           {mutate(e->arg(0)), mutate(e->arg(1))});
    }

    InstrPtr
    try_word_by_half(const ExprPtr &e)
    {
        if (bits(e->type().elem) != 32)
            return nullptr;
        for (int si = 0; si < 2; ++si) {
            const ExprPtr &sp = e->arg(si);
            const ExprPtr &cv = e->arg(1 - si);
            if (sp->op() != Op::Broadcast)
                continue;
            ExprPtr y;
            if (!as_widening_cast(cv, e->type().elem, &y))
                continue;
            const int L = e->type().lanes / 2;
            if (L < 1 || e->type().lanes % 2 != 0)
                continue;
            InstrPtr ym = mutate(y);
            InstrPtr half_splat = Instr::make_splat(sp->arg(0), L);
            InstrPtr odds =
                Instr::make(Opcode::VMpyIO, {half_splat, ym});
            InstrPtr as_words =
                Instr::make(Opcode::VBitcast, {ym}, {},
                            ScalarType::Int32);
            InstrPtr shifted =
                Instr::make(Opcode::VAsl, {as_words}, {16});
            InstrPtr back = Instr::make(Opcode::VBitcast, {shifted}, {},
                                        y->type().elem);
            InstrPtr evens =
                Instr::make(Opcode::VMpyIO, {half_splat, back});
            InstrPtr pair =
                Instr::make(Opcode::VCombine, {evens, odds});
            return coerce(to_linear(pair), e->type());
        }
        return nullptr;
    }

    InstrPtr
    select_shift(const ExprPtr &e)
    {
        int64_t n = 0;
        RAKE_USER_CHECK(hir::as_const(e->arg(1), &n),
                        "baseline requires constant shift amounts");
        InstrPtr v = mutate(e->arg(0));
        if (e->op() == Op::ShiftLeft)
            return Instr::make(Opcode::VAsl, {v},
                               {static_cast<int64_t>(n)});
        return Instr::make(is_signed(e->type().elem) ? Opcode::VAsr
                                                     : Opcode::VLsr,
                           {v}, {static_cast<int64_t>(n)});
    }

    const hvx::Target &target_;
    std::unordered_map<const hir::Expr *, InstrPtr> memo_;
};

// -------------------------------------------------------------------
// Peephole: Halide's interleave/deinterleave elimination pass.
// -------------------------------------------------------------------

bool
is_lanewise(Opcode op)
{
    switch (op) {
      case Opcode::VAdd:
      case Opcode::VAddSat:
      case Opcode::VSub:
      case Opcode::VSubSat:
      case Opcode::VAvg:
      case Opcode::VAvgRnd:
      case Opcode::VNavg:
      case Opcode::VAbsDiff:
      case Opcode::VMax:
      case Opcode::VMin:
      case Opcode::VAnd:
      case Opcode::VOr:
      case Opcode::VXor:
      case Opcode::VNot:
      case Opcode::VAsl:
      case Opcode::VAsr:
      case Opcode::VAsrRnd:
      case Opcode::VLsr:
      case Opcode::VMpyi:
        return true;
      default:
        return false;
    }
}

class Peephole
{
  public:
    InstrPtr
    mutate(const InstrPtr &n)
    {
        auto it = memo_.find(n.get());
        if (it != memo_.end())
            return it->second;
        InstrPtr v = mutate_impl(n);
        memo_.emplace(n.get(), v);
        return v;
    }

    bool changed() const { return changed_; }

  private:
    static bool
    is_shuffle(const InstrPtr &n, Opcode op)
    {
        return n->op() == op;
    }

    InstrPtr
    rebuild(const InstrPtr &n, std::vector<InstrPtr> args)
    {
        return Instr::make(n->op(), std::move(args), n->imms(),
                           n->type().elem);
    }

    InstrPtr
    mutate_impl(const InstrPtr &n)
    {
        if (n->num_args() == 0)
            return n;
        std::vector<InstrPtr> args;
        bool sub_changed = false;
        for (const auto &a : n->args()) {
            args.push_back(mutate(a));
            sub_changed |= args.back() != a;
        }

        // shuff(deal(x)) == x and deal(shuff(x)) == x.
        if ((n->op() == Opcode::VShuffVdd &&
             args[0]->op() == Opcode::VDealVdd) ||
            (n->op() == Opcode::VDealVdd &&
             args[0]->op() == Opcode::VShuffVdd)) {
            changed_ = true;
            return args[0]->arg(0);
        }

        // Same-width bitcasts (signedness coercions) commute with
        // lane permutations: bitcast(shuff(x)) == shuff(bitcast(x)).
        if (n->op() == Opcode::VBitcast &&
            (args[0]->op() == Opcode::VShuffVdd ||
             args[0]->op() == Opcode::VDealVdd) &&
            bits(n->type().elem) ==
                bits(args[0]->type().elem)) {
            changed_ = true;
            return mutate(Instr::make(
                args[0]->op(),
                {Instr::make(Opcode::VBitcast, {args[0]->arg(0)}, {},
                             n->type().elem)}));
        }

        // op(shuff(a), shuff(b)) == shuff(op(a, b)): push the
        // interleave past lane-wise operations (splats pass freely).
        if (is_lanewise(n->op())) {
            for (Opcode sw : {Opcode::VShuffVdd, Opcode::VDealVdd}) {
                bool all = true;
                bool any = false;
                for (const auto &a : args) {
                    if (is_shuffle(a, sw))
                        any = true;
                    else if (a->op() != Opcode::VSplat)
                        all = false;
                }
                if (all && any) {
                    std::vector<InstrPtr> inner;
                    for (const auto &a : args) {
                        inner.push_back(is_shuffle(a, sw) ? a->arg(0)
                                                          : a);
                    }
                    changed_ = true;
                    return mutate(Instr::make(
                        sw, {rebuild(n, std::move(inner))}));
                }
            }
        }

        if (!sub_changed)
            return n;
        return rebuild(n, std::move(args));
    }

    std::unordered_map<const hvx::Instr *, InstrPtr> memo_;
    bool changed_ = false;
};

} // namespace

InstrPtr
select_instructions(const hir::ExprPtr &expr, const hvx::Target &target,
                    const BaselineOptions &opts)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    // Halide's simplifier runs before codegen; notably it removes
    // max(unsigned, 0), which is why the pattern matcher then fails
    // to see the two-sided clamp that its saturating-pack rule needs
    // (paper Fig. 4(c)).
    hir::ExprPtr normalized = hir::simplify(expr);
    BaselineSelector sel(target);
    InstrPtr v = sel.mutate(normalized);
    if (opts.shuffle_peephole) {
        for (int pass = 0; pass < 5; ++pass) {
            Peephole ph;
            InstrPtr next = ph.mutate(v);
            if (!ph.changed())
                break;
            v = next;
        }
    }
    return v;
}

} // namespace rake::baseline
