#include "neon/select.h"

#include <unordered_map>

#include "backend/neon_backend.h"
#include "hir/interp.h"
#include "hir/simplify.h"
#include "support/error.h"
#include "synth/lift.h"
#include "synth/rake.h"
#include "synth/spec.h"
#include "synth/verify.h"

namespace rake::neon {

// ------------------------------------------------------------------
// Greedy UIR -> Neon lowering (the ablation baseline)
// ------------------------------------------------------------------

namespace {

using uir::UExprPtr;
using uir::UOp;
using uir::UParams;

class NeonSelector
{
  public:
    NInstrPtr
    lower(const UExprPtr &u)
    {
        auto it = memo_.find(u.get());
        if (it != memo_.end())
            return it->second;
        NInstrPtr n = lower_impl(u);
        memo_.emplace(u.get(), n);
        return n;
    }

  private:
    NInstrPtr
    dup_const(int64_t v, ScalarType t, int lanes)
    {
        return NInstr::make_splat(
            hir::Expr::make_const(v, VecType(t, 1)), lanes);
    }

    NInstrPtr
    coerce(NInstrPtr v, ScalarType want)
    {
        if (!v || v->type().elem == want)
            return v;
        if (bits(v->type().elem) != bits(want))
            return nullptr;
        return NInstr::make(NOp::Bitcast, {v}, {}, want);
    }

    /** Widen by one or two vmovl hops to the target width. */
    NInstrPtr
    widen_to(NInstrPtr v, ScalarType want)
    {
        while (v && bits(v->type().elem) < bits(want))
            v = NInstr::make(NOp::Movl, {v});
        return coerce(v, want);
    }

    NInstrPtr
    lower_impl(const UExprPtr &u)
    {
        const VecType t = u->type();
        const UParams &p = u->params();
        switch (u->op()) {
          case UOp::HirLeaf: {
            const hir::ExprPtr &leaf = u->leaf();
            if (leaf->op() == hir::Op::Load)
                return NInstr::make_read(leaf->load_ref(), t);
            if (leaf->op() == hir::Op::Broadcast)
                return NInstr::make_splat(leaf->arg(0), t.lanes);
            if (leaf->op() == hir::Op::Const)
                return dup_const(leaf->const_value(), t.elem, t.lanes);
            return NInstr::make_splat(
                hir::Expr::make_var(leaf->var_name(),
                                    VecType(t.elem, 1)),
                t.lanes);
          }
          case UOp::Widen:
            return widen_to(lower(u->arg(0)), t.elem);
          case UOp::Narrow: {
            NInstrPtr x = lower(u->arg(0));
            if (!x)
                return nullptr;
            const int ratio =
                bits(u->arg(0)->type().elem) / bits(t.elem);
            if (ratio == 1) {
                if (p.shift > 0) {
                    x = NInstr::make(p.round ? NOp::Rshr
                                    : is_signed(x->type().elem)
                                        ? NOp::Sshr
                                        : NOp::Ushr,
                                     {x}, {p.shift});
                }
                if (p.saturate)
                    return nullptr; // same-width sat: not mapped here
                return coerce(x, t.elem);
            }
            if (ratio == 4) {
                // Two hops; attributes apply on the first.
                UParams p1 = p;
                p1.out_elem = narrow(u->arg(0)->type().elem);
                UParams p2;
                p2.out_elem = t.elem;
                p2.saturate = p.saturate;
                UExprPtr mid = uir::UExpr::make(UOp::Narrow,
                                                {u->arg(0)}, p1);
                UExprPtr two =
                    uir::UExpr::make(UOp::Narrow, {mid}, p2);
                pinned_.push_back(mid);
                pinned_.push_back(two);
                return lower(two);
            }
            // Single narrowing hop: Neon's fused families.
            if (p.shift > 0 && p.round && p.saturate)
                return NInstr::make(NOp::Qrshrn, {x}, {p.shift},
                                    t.elem);
            if (p.shift > 0 && !p.round && !p.saturate)
                return coerce(NInstr::make(NOp::Shrn, {x}, {p.shift}),
                              t.elem);
            if (p.shift > 0) {
                x = NInstr::make(p.round ? NOp::Rshr
                                 : is_signed(x->type().elem)
                                     ? NOp::Sshr
                                     : NOp::Ushr,
                                 {x}, {p.shift});
            }
            if (p.saturate)
                return NInstr::make(NOp::Qxtn, {x}, {}, t.elem);
            return coerce(NInstr::make(NOp::Xtn, {x}), t.elem);
          }
          case UOp::VsMpyAdd: {
            if (p.saturate)
                return nullptr; // greedy repertoire: unmapped
            NInstrPtr acc;
            for (int i = 0; i < u->num_args(); ++i) {
                NInstrPtr x = lower(u->arg(i));
                if (!x)
                    return nullptr;
                const int64_t w = p.kernel[i];
                const bool narrow_term =
                    bits(x->type().elem) * 2 == bits(t.elem);
                if (narrow_term) {
                    NInstrPtr ws = dup_const(w, x->type().elem,
                                             x->type().lanes);
                    NInstrPtr v =
                        acc ? NInstr::make(
                                  NOp::Mlal,
                                  {coerce(acc,
                                          widen(x->type().elem)),
                                   x, ws})
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
                        NInstrPtr ws =
                            dup_const(w, t.elem, t.lanes);
                        acc = acc ? NInstr::make(NOp::Mla,
                                                 {acc, xw, ws})
                                  : NInstr::make(NOp::Mul, {xw, ws});
                    }
                }
                if (!acc)
                    return nullptr;
            }
            return acc;
          }
          case UOp::VvMpyAdd: {
            if (p.saturate)
                return nullptr;
            NInstrPtr acc;
            for (int i = 0; i + 1 < u->num_args(); i += 2) {
                NInstrPtr a = lower(u->arg(i));
                NInstrPtr b = lower(u->arg(i + 1));
                if (!a || !b)
                    return nullptr;
                // Neon has no word-by-halfword trick: widen both
                // operands to the output width and multiply flat.
                NInstrPtr aw = widen_to(a, t.elem);
                NInstrPtr bw = widen_to(b, t.elem);
                if (!aw || !bw)
                    return nullptr;
                acc = acc ? NInstr::make(NOp::Mla, {acc, aw, bw})
                          : NInstr::make(NOp::Mul, {aw, bw});
            }
            return acc;
          }
          case UOp::AbsDiff:
            return binary(NOp::Abd, u);
          case UOp::Min:
            return binary(NOp::Min, u);
          case UOp::Max:
            return binary(NOp::Max, u);
          case UOp::Average:
            return binary(p.round ? NOp::Rhadd : NOp::Hadd, u);
          case UOp::ShiftLeft:
          case UOp::ShiftRight: {
            int64_t sh = 0;
            if (u->arg(1)->op() != UOp::HirLeaf ||
                !hir::as_const(u->arg(1)->leaf(), &sh))
                return nullptr;
            NInstrPtr x = lower(u->arg(0));
            if (!x)
                return nullptr;
            if (u->op() == UOp::ShiftLeft)
                return NInstr::make(NOp::Shl, {x}, {sh});
            if (p.round)
                return NInstr::make(NOp::Rshr, {x}, {sh});
            return NInstr::make(is_signed(t.elem) ? NOp::Sshr
                                                  : NOp::Ushr,
                                {x}, {sh});
          }
          case UOp::And:
            return binary(NOp::And, u);
          case UOp::Or:
            return binary(NOp::Orr, u);
          case UOp::Xor:
            return binary(NOp::Eor, u);
          case UOp::Not: {
            NInstrPtr x = lower(u->arg(0));
            return x ? NInstr::make(NOp::Not, {x}) : nullptr;
          }
          case UOp::Lt: {
            NInstrPtr a = lower(u->arg(0)), b = lower(u->arg(1));
            if (!a || !b)
                return nullptr;
            return NInstr::make(NOp::Cmgt, {b, a});
          }
          case UOp::Le: {
            NInstrPtr a = lower(u->arg(0)), b = lower(u->arg(1));
            if (!a || !b)
                return nullptr;
            return NInstr::make(
                NOp::Orr, {NInstr::make(NOp::Cmgt, {b, a}),
                           NInstr::make(NOp::Cmeq, {a, b})});
          }
          case UOp::Eq:
            return binary(NOp::Cmeq, u);
          case UOp::Select: {
            NInstrPtr c = lower(u->arg(0));
            NInstrPtr a = lower(u->arg(1));
            NInstrPtr b = lower(u->arg(2));
            if (!c || !a || !b)
                return nullptr;
            return NInstr::make(NOp::Bsl, {c, a, b});
          }
        }
        return nullptr;
    }

    NInstrPtr
    binary(NOp op, const UExprPtr &u)
    {
        NInstrPtr a = lower(u->arg(0));
        NInstrPtr b = lower(u->arg(1));
        if (!a || !b)
            return nullptr;
        return NInstr::make(op, {a, b});
    }

    std::unordered_map<const uir::UExpr *, NInstrPtr> memo_;
    std::vector<UExprPtr> pinned_;
};

std::optional<NInstrPtr>
select_greedy(const hir::ExprPtr &expr, const SelectOptions &opts)
{
    hir::ExprPtr normalized = hir::simplify(expr);
    synth::Spec spec = synth::Spec::from_expr(normalized);
    synth::ExamplePool pool(spec, opts.seed);
    synth::Verifier verifier(spec, pool);
    // The lifting stage is shared with the HVX backend — the §6 claim.
    synth::LiftResult lifted = synth::lift_to_uir(verifier);
    if (!lifted.expr)
        return std::nullopt;
    auto lowered = lower_to_neon(lifted.expr);
    if (!lowered)
        return std::nullopt;
    // Greedy path: still verified, against fresh examples.
    for (int i = 0; i < 12; ++i) {
        const Env &env = pool.at(i);
        if (!(hir::evaluate(normalized, env) ==
              evaluate(*lowered, env)))
            return std::nullopt;
    }
    return lowered;
}

} // namespace

std::optional<NInstrPtr>
lower_to_neon(const uir::UExprPtr &lifted)
{
    RAKE_USER_CHECK(lifted != nullptr, "null lifted expression");
    try {
        NeonSelector sel;
        NInstrPtr n = sel.lower(lifted);
        if (!n)
            return std::nullopt;
        return n;
    } catch (const UserError &) {
        return std::nullopt;
    }
}

std::optional<NInstrPtr>
select_instructions(const hir::ExprPtr &expr, const SelectOptions &opts,
                    synth::SynthStatus *status)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    if (status)
        *status = synth::SynthStatus::Ok;
    if (opts.greedy) {
        auto g = select_greedy(expr, opts);
        if (status && !g)
            *status = synth::SynthStatus::NoSolution;
        return g;
    }

    // The full synthesis treatment: shared lift + sketch/CEGIS/swizzle
    // search through the Neon backend.
    neon::Target target;
    auto isa = backend::make_neon_backend(target);
    synth::RakeOptions ropts;
    ropts.lower = opts.lower;
    ropts.verifier = opts.verifier;
    ropts.seed = opts.seed;
    ropts.use_cache = opts.use_cache;
    ropts.deadline = opts.deadline;
    ropts.cache_dir = opts.cache_dir;
    ropts.rules_file = opts.rules_file;
    auto r = synth::select_instructions_for(expr, *isa, ropts);
    if (!r || !r->instr) {
        if (status)
            *status = synth::SynthStatus::NoSolution;
        return std::nullopt;
    }
    if (status)
        *status = r->status;
    return std::static_pointer_cast<const NInstr>(r->instr);
}

} // namespace rake::neon
