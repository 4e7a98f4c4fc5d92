#include "synth/lift.h"

#include <algorithm>
#include <unordered_map>

#include "base/arith.h"
#include "hir/analysis.h"
#include "hir/interp.h"
#include "support/error.h"
#include "uir/interp.h"

namespace rake::synth {

namespace {

using hir::ExprPtr;
using uir::UExpr;
using uir::UExprPtr;
using uir::UOp;
using uir::UParams;

/** One additive term of a vs-mpy-add: a vector times a weight. */
struct Term {
    UExprPtr vec;
    int64_t weight;
};

/**
 * Decompose a lifted expression into vs-mpy-add terms.
 *
 * Widen nodes are stripped (value-preserving on int64 carriers), and
 * existing non-saturating vs-mpy-adds are flattened so kernels merge.
 */
std::vector<Term>
decompose_terms(const UExprPtr &u)
{
    if (u->op() == UOp::Widen)
        return {{u->arg(0), 1}};
    if (u->op() == UOp::VsMpyAdd && !u->params().saturate) {
        std::vector<Term> terms;
        for (int i = 0; i < u->num_args(); ++i)
            terms.push_back({u->arg(i), u->params().kernel[i]});
        return terms;
    }
    return {{u, 1}};
}

UExprPtr
make_vs_mpy_add(std::vector<Term> terms, ScalarType out, bool saturate)
{
    std::vector<UExprPtr> args;
    UParams p;
    p.out_elem = out;
    p.saturate = saturate;
    for (Term &t : terms) {
        args.push_back(std::move(t.vec));
        p.kernel.push_back(t.weight);
    }
    return UExpr::make(UOp::VsMpyAdd, std::move(args), std::move(p));
}

/** A constant-1 vector leaf matching the lane count of `like`. */
UExprPtr
const_one_like(const UExprPtr &like)
{
    return UExpr::make_leaf(hir::Expr::make_const(
        1, VecType(like->type().elem, like->type().lanes)));
}

/** If u is a broadcast constant leaf, yield its value. */
bool
as_const_leaf(const UExprPtr &u, int64_t *v)
{
    if (u->op() != UOp::HirLeaf)
        return false;
    return hir::as_const(u->leaf(), v);
}

class Lifter
{
  public:
    explicit Lifter(Verifier &verifier) : verifier_(verifier) {}

    /**
     * The lifted form of `e`, or null when no rule lifts it or one of
     * its operands: selection then ends with no result, and the
     * pipeline keeps the baseline's program.
     */
    UExprPtr
    lift(const ExprPtr &e)
    {
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        UExprPtr u = lift_impl(e);
        RAKE_CHECK(!u || u->type() == e->type(),
                   "lifted type " << to_string(u->type()) << " != "
                                  << to_string(e->type()));
        memo_.emplace(e.get(), u);
        return u;
    }

    LiftStats &stats() { return stats_; }

  private:
    /** Equivalence query against the HIR node (one synthesis query). */
    bool
    accept(const ExprPtr &e, const UExprPtr &cand, QueryStats &qs)
    {
        if (!cand || !(cand->type() == e->type()))
            return false;
        // Persistent interpreter contexts: reference outputs are
        // cached per HIR node, so across the candidate list for one
        // node the reference runs once per example.
        EvaluatorRef ref = [this, &e](const Env &env) -> const Value & {
            href_.reset(env);
            return href_.eval(e);
        };
        EvaluatorRef c = [this, &cand](const Env &env) -> const Value & {
            ucand_.reset(env);
            return ucand_.eval(cand);
        };
        return verifier_.check_ref(RefKey{e.get(), 0}, ref, c, qs);
    }

    /** Try a list of candidates under one rule's stats bucket. */
    UExprPtr
    first_verified(const ExprPtr &e, const std::vector<UExprPtr> &cands,
                   QueryStats &qs)
    {
        // Candidate generation between queries is cheap but not free;
        // poll here too so lifting honors the deadline even when a
        // rule emits no verifiable candidates.
        verifier_.options().deadline.check("lifting");
        for (const UExprPtr &c : cands) {
            if (accept(e, c, qs))
                return c;
        }
        return nullptr;
    }

    UExprPtr
    lift_impl(const ExprPtr &e)
    {
        using hir::Op;
        // Trivial expressions stay as leaves — Rake assumes LLVM
        // handles them (paper §7).
        switch (e->op()) {
          case Op::Load:
          case Op::Const:
          case Op::Var:
          case Op::Broadcast:
            return UExpr::make_leaf(e);
          default:
            break;
        }

        std::vector<UExprPtr> S;
        S.reserve(e->num_args());
        for (const auto &a : e->args()) {
            S.push_back(lift(a));
            if (!S.back())
                return nullptr;
        }

        if (UExprPtr u = first_verified(e, gen_update(e, S),
                                        stats_.update))
            return u;
        if (UExprPtr u = first_verified(e, gen_replace(e, S),
                                        stats_.replace))
            return u;
        return first_verified(e, gen_extend(e, S), stats_.extend);
    }

    // --- candidate generators ---------------------------------------

    /** Push a candidate, swallowing type errors from illegal combos. */
    template <typename F>
    static void
    try_cand(std::vector<UExprPtr> &out, F &&build)
    {
        try {
            UExprPtr u = build();
            if (u)
                out.push_back(std::move(u));
        } catch (const UserError &) {
            // Ill-typed candidate; skip.
        }
    }

    std::vector<UExprPtr>
    gen_update(const ExprPtr &e, const std::vector<UExprPtr> &S)
    {
        using hir::Op;
        std::vector<UExprPtr> cands;
        const ScalarType out = e->type().elem;

        switch (e->op()) {
          case Op::Add:
          case Op::Sub: {
            const int64_t sign = e->op() == Op::Sub ? -1 : 1;
            // Fold the other operand's terms into an existing
            // vs-mpy-add (kernel growth, Fig. 9 steps 6-7).
            for (int c = 0; c < 2; ++c) {
                if (S[c]->op() != UOp::VsMpyAdd &&
                    S[c]->op() != UOp::VvMpyAdd)
                    continue;
                const int64_t w_self = c == 1 ? sign : 1;
                const int64_t w_other = c == 1 ? 1 : sign;
                if (S[c]->op() == UOp::VsMpyAdd &&
                    !S[c]->params().saturate && w_self == 1) {
                    try_cand(cands, [&] {
                        std::vector<Term> terms = decompose_terms(S[c]);
                        for (Term t : decompose_terms(S[1 - c])) {
                            t.weight *= w_other;
                            terms.push_back(t);
                        }
                        return make_vs_mpy_add(std::move(terms), out,
                                               false);
                    });
                }
                int64_t cv = 0;
                if (S[c]->op() == UOp::VvMpyAdd &&
                    !S[c]->params().saturate && w_self == 1 &&
                    w_other == 1 && !as_const_leaf(S[1 - c], &cv)) {
                    // Append the other operand as (x, 1) pair
                    // (constants stay outside so rounding/bias
                    // detection can still see them).
                    try_cand(cands, [&] {
                        std::vector<UExprPtr> args = S[c]->args();
                        UExprPtr o = S[1 - c];
                        if (o->op() == UOp::Widen)
                            o = o->arg(0);
                        args.push_back(o);
                        args.push_back(const_one_like(o));
                        UParams p = S[c]->params();
                        p.out_elem = out;
                        return UExpr::make(UOp::VvMpyAdd,
                                           std::move(args), p);
                    });
                }
            }
            break;
          }
          case Op::Mul: {
            // Scale an existing kernel by a broadcast constant.
            for (int c = 0; c < 2; ++c) {
                int64_t k = 0;
                if (!as_const_leaf(S[1 - c], &k))
                    continue;
                if (S[c]->op() == UOp::VsMpyAdd &&
                    !S[c]->params().saturate) {
                    try_cand(cands, [&] {
                        std::vector<Term> terms = decompose_terms(S[c]);
                        for (Term &t : terms)
                            t.weight *= k;
                        return make_vs_mpy_add(std::move(terms), out,
                                               false);
                    });
                }
            }
            break;
          }
          case Op::ShiftLeft: {
            // Fold a constant left shift into multiply weights.
            int64_t n = 0;
            if (hir::as_const(e->arg(1), &n) && n >= 0 && n < 32) {
                const int64_t k = int64_t{1} << n;
                if (S[0]->op() == UOp::VsMpyAdd &&
                    !S[0]->params().saturate) {
                    try_cand(cands, [&] {
                        std::vector<Term> terms = decompose_terms(S[0]);
                        for (Term &t : terms)
                            t.weight *= k;
                        return make_vs_mpy_add(std::move(terms), out,
                                               false);
                    });
                }
                if (S[0]->op() == UOp::Widen) {
                    try_cand(cands, [&] {
                        return make_vs_mpy_add({{S[0]->arg(0), k}}, out,
                                               false);
                    });
                }
            }
            break;
          }
          case Op::ShiftRight: {
            // Absorb an additive rounding constant: (x + 2^(n-1)) >> n
            // becomes a rounding shift (update round? flag).
            int64_t n = 0;
            if (hir::as_const(e->arg(1), &n) && n > 0 && n < 63 &&
                S[0]->op() == UOp::VsMpyAdd &&
                !S[0]->params().saturate) {
                try_cand(cands, [&] {
                    std::vector<Term> terms = decompose_terms(S[0]);
                    UExprPtr inner = strip_rounding_term(terms, n);
                    if (!inner && terms.size() == 1 &&
                        terms[0].weight == 1)
                        inner = terms[0].vec;
                    if (!inner)
                        return UExprPtr();
                    UParams p;
                    p.round = true;
                    return UExpr::make(
                        UOp::ShiftRight,
                        {lift_to_type(inner, e->arg(0)->type()),
                         lift(e->arg(1))},
                        p);
                });
            }
            break;
          }
          case Op::Cast:
          case Op::Min:
          case Op::Max:
            gen_narrow_candidates(e, S, cands);
            break;
          default:
            break;
        }
        return cands;
    }

    /**
     * Remove the term equal to broadcast(2^(n-1)) with weight 1 from
     * a term list; returns the remaining expression or null.
     */
    UExprPtr
    strip_rounding_term(std::vector<Term> &terms, int64_t n)
    {
        const int64_t half = int64_t{1} << (n - 1);
        for (size_t i = 0; i < terms.size(); ++i) {
            int64_t v = 0;
            if (terms[i].weight == 1 && as_const_leaf(terms[i].vec, &v) &&
                v == half) {
                std::vector<Term> rest;
                for (size_t j = 0; j < terms.size(); ++j) {
                    if (j != i)
                        rest.push_back(terms[j]);
                }
                if (rest.empty())
                    return nullptr;
                if (rest.size() == 1 && rest[0].weight == 1)
                    return rest[0].vec;
                try {
                    // Keep the carrier type of the original sum.
                    return make_vs_mpy_add(std::move(rest),
                                           terms[i].vec->type().elem,
                                           false);
                } catch (const UserError &) {
                    return nullptr;
                }
            }
        }
        return nullptr;
    }

    /** Coerce a term expression back to a target type via widen. */
    UExprPtr
    lift_to_type(const UExprPtr &u, const VecType &t)
    {
        if (u->type() == t)
            return u;
        if (bits(t.elem) >= bits(u->type().elem)) {
            UParams p;
            p.out_elem = t.elem;
            return UExpr::make(UOp::Widen, {u}, p);
        }
        return u;
    }

    /**
     * Narrow-with-saturation/rounding candidates at cast / clamp
     * sites. This is where the lifter discovers that min/max chains
     * are saturations and that additive constants are roundings —
     * semantically, not by pattern (the verifier arbitrates).
     */
    void
    gen_narrow_candidates(const ExprPtr &e, const std::vector<UExprPtr> &S,
                          std::vector<UExprPtr> &cands)
    {
        using hir::Op;
        if (e->op() != Op::Cast)
            return;
        const ScalarType out = e->type().elem;
        if (bits(out) > bits(e->arg(0)->type().elem))
            return; // widening handled by extend

        // Collect candidate inner expressions by stripping up to two
        // min/max-with-constant layers (the clamp) off the child.
        // Most-stripped first, so saturation absorbs as many clamps
        // as the semantics allow (the verifier rejects over-reach).
        std::vector<UExprPtr> inners;
        UExprPtr cur = S[0];
        inners.push_back(cur);
        for (int layer = 0; layer < 2; ++layer) {
            if ((cur->op() != UOp::Min && cur->op() != UOp::Max) ||
                cur->num_args() != 2)
                break;
            int64_t c = 0;
            if (as_const_leaf(cur->arg(1), &c))
                cur = cur->arg(0);
            else if (as_const_leaf(cur->arg(0), &c))
                cur = cur->arg(1);
            else
                break;
            inners.push_back(cur);
        }
        std::reverse(inners.begin(), inners.end());

        for (const UExprPtr &inner : inners) {
            // Averaging narrow first: u8((u16(a) + u16(b) [+1]) >> 1)
            // stays entirely at the narrow width (vavg), so it must
            // outrank the widening shift-narrow forms.
            if (inner->op() == UOp::ShiftRight) {
                int64_t n1 = 0;
                if (as_const_leaf(inner->arg(1), &n1) && n1 == 1 &&
                    inner->arg(0)->op() == UOp::VsMpyAdd) {
                    gen_average_candidates(inner->arg(0),
                                           inner->params().round, out,
                                           cands);
                }
            }
            // Narrow fused with a shift: inner = y >> n. Tried before
            // the plain narrow so fused vasr-narrow forms win.
            if (inner->op() == UOp::ShiftRight) {
                int64_t n = 0;
                if (as_const_leaf(inner->arg(1), &n) && n >= 0 &&
                    n < 63) {
                    for (bool sat : {true, false}) {
                        try_cand(cands, [&] {
                            UParams p;
                            p.out_elem = out;
                            p.shift = static_cast<int>(n);
                            p.round = inner->params().round;
                            p.saturate = sat;
                            return UExpr::make(UOp::Narrow,
                                               {inner->arg(0)}, p);
                        });
                    }
                    // Rounding variant: strip an embedded +2^(n-1).
                    if (!inner->params().round &&
                        inner->arg(0)->op() == UOp::VsMpyAdd) {
                        std::vector<Term> terms =
                            decompose_terms(inner->arg(0));
                        UExprPtr y = strip_rounding_term(terms, n);
                        if (y) {
                            for (bool sat : {true, false}) {
                                try_cand(cands, [&] {
                                    UParams p;
                                    p.out_elem = out;
                                    p.shift = static_cast<int>(n);
                                    p.round = true;
                                    p.saturate = sat;
                                    return UExpr::make(
                                        UOp::Narrow,
                                        {lift_to_type(
                                            y,
                                            inner->arg(0)->type())},
                                        p);
                                });
                            }
                        }
                    }
                }
            }
            // Plain saturating narrow of the (possibly de-clamped)
            // inner value.
            try_cand(cands, [&] {
                UParams p;
                p.out_elem = out;
                p.saturate = true;
                return UExpr::make(UOp::Narrow, {inner}, p);
            });
        }
    }

    void
    gen_average_candidates(const UExprPtr &sum, bool pre_rounded,
                           ScalarType out, std::vector<UExprPtr> &cands)
    {
        std::vector<Term> terms = decompose_terms(sum);
        // Look for exactly two unit-weight vector terms, optionally
        // plus a constant 1 (the rounding).
        std::vector<UExprPtr> vecs;
        bool round = pre_rounded;
        for (const Term &t : terms) {
            int64_t c = 0;
            if (t.weight == 1 && as_const_leaf(t.vec, &c) && c == 1) {
                round = true;
                continue;
            }
            if (t.weight != 1)
                return;
            vecs.push_back(t.vec);
        }
        if (vecs.size() != 2)
            return;
        try_cand(cands, [&] {
            if (vecs[0]->type().elem != out ||
                vecs[1]->type().elem != out)
                return UExprPtr();
            UParams p;
            p.round = round;
            return UExpr::make(UOp::Average, {vecs[0], vecs[1]}, p);
        });
    }

    std::vector<UExprPtr>
    gen_replace(const ExprPtr &e, const std::vector<UExprPtr> &S)
    {
        using hir::Op;
        std::vector<UExprPtr> cands;
        const ScalarType out = e->type().elem;

        switch (e->op()) {
          case Op::Mul: {
            // widen(x) * broadcast(c)  ->  vs-mpy-add(x, '(c))
            // (Fig. 9, step 5).
            for (int c = 0; c < 2; ++c) {
                int64_t k = 0;
                if (!as_const_leaf(S[1 - c], &k))
                    continue;
                try_cand(cands, [&] {
                    std::vector<Term> terms = decompose_terms(S[c]);
                    for (Term &t : terms)
                        t.weight *= k;
                    return make_vs_mpy_add(std::move(terms), out, false);
                });
            }
            // General vector-vector multiply.
            try_cand(cands, [&] {
                UExprPtr a = S[0], b = S[1];
                if (a->op() == UOp::Widen)
                    a = a->arg(0);
                if (b->op() == UOp::Widen)
                    b = b->arg(0);
                UParams p;
                p.out_elem = out;
                return UExpr::make(UOp::VvMpyAdd, {a, b}, p);
            });
            break;
          }
          case Op::Add:
          case Op::Sub: {
            const int64_t sign = e->op() == Op::Sub ? -1 : 1;
            // Merge both operands' terms into a fresh vs-mpy-add.
            try_cand(cands, [&] {
                std::vector<Term> terms = decompose_terms(S[0]);
                for (Term t : decompose_terms(S[1])) {
                    t.weight *= sign;
                    terms.push_back(t);
                }
                return make_vs_mpy_add(std::move(terms), out, false);
            });
            break;
          }
          default:
            break;
        }
        return cands;
    }

    std::vector<UExprPtr>
    gen_extend(const ExprPtr &e, const std::vector<UExprPtr> &S)
    {
        using hir::Op;
        std::vector<UExprPtr> cands;
        const ScalarType out = e->type().elem;

        auto unary = [&](UOp op, UParams p = {}) {
            try_cand(cands, [&] { return UExpr::make(op, {S[0]}, p); });
        };
        auto binary = [&](UOp op, UParams p = {}) {
            try_cand(cands,
                     [&] { return UExpr::make(op, {S[0], S[1]}, p); });
        };

        switch (e->op()) {
          case Op::Cast: {
            UParams p;
            p.out_elem = out;
            if (bits(out) >= bits(e->arg(0)->type().elem)) {
                unary(UOp::Widen, p);
            } else {
                unary(UOp::Narrow, p);
            }
            // Same-width casts (signedness changes) express as a
            // non-saturating narrow.
            if (bits(out) == bits(e->arg(0)->type().elem))
                unary(UOp::Narrow, p);
            break;
          }
          case Op::Add:
            try_cand(cands, [&] {
                return make_vs_mpy_add({{S[0], 1}, {S[1], 1}}, out,
                                       false);
            });
            break;
          case Op::Sub:
            try_cand(cands, [&] {
                return make_vs_mpy_add({{S[0], 1}, {S[1], -1}}, out,
                                       false);
            });
            break;
          case Op::Mul: {
            int64_t k = 0;
            if (as_const_leaf(S[1], &k)) {
                try_cand(cands, [&] {
                    return make_vs_mpy_add({{S[0], k}}, out, false);
                });
            } else if (as_const_leaf(S[0], &k)) {
                try_cand(cands, [&] {
                    return make_vs_mpy_add({{S[1], k}}, out, false);
                });
            }
            try_cand(cands, [&] {
                UParams p;
                p.out_elem = out;
                return UExpr::make(UOp::VvMpyAdd, {S[0], S[1]}, p);
            });
            break;
          }
          case Op::Min:
            binary(UOp::Min);
            break;
          case Op::Max:
            binary(UOp::Max);
            break;
          case Op::AbsDiff:
            binary(UOp::AbsDiff);
            break;
          case Op::ShiftLeft:
            binary(UOp::ShiftLeft);
            break;
          case Op::ShiftRight:
            binary(UOp::ShiftRight);
            break;
          case Op::And:
            binary(UOp::And);
            break;
          case Op::Or:
            binary(UOp::Or);
            break;
          case Op::Xor:
            binary(UOp::Xor);
            break;
          case Op::Not:
            unary(UOp::Not);
            break;
          case Op::Lt:
            binary(UOp::Lt);
            break;
          case Op::Le:
            binary(UOp::Le);
            break;
          case Op::Eq:
            binary(UOp::Eq);
            break;
          case Op::Select:
            try_cand(cands, [&] {
                return UExpr::make(UOp::Select, {S[0], S[1], S[2]}, {});
            });
            break;
          default:
            RAKE_UNREACHABLE("no extend rule for "
                             << hir::to_string(e->op()));
        }
        return cands;
    }

    Verifier &verifier_;
    LiftStats stats_;
    std::unordered_map<const hir::Expr *, UExprPtr> memo_;
    hir::Interpreter href_; ///< reference context for accept()
    uir::Interpreter ucand_;///< candidate context for accept()
};

} // namespace

LiftResult
lift_to_uir(Verifier &verifier)
{
    Lifter lifter(verifier);
    LiftResult result;
    result.expr = lifter.lift(verifier.spec().expr);
    result.stats = lifter.stats();
    return result;
}

} // namespace rake::synth
