#include "synth/z3_verify.h"

#include <chrono>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <z3++.h>

#include "backend/target_isa.h"
#include "base/arith.h"
#include "hir/semantics.h"
#include "hvx/semantics.h"
#include "hvx/sexpr.h"
#include "neon/semantics.h"
#include "neon/sexpr.h"
#include "support/error.h"
#include "synth/z3_lanes.h"
#include "uir/semantics.h"

namespace rake::synth {

namespace {

/**
 * Lane-wise encoder of HIR / UIR / HVX / Neon expressions into 64-bit
 * bit-vector terms: each IR's lane_semantics (hir/semantics.h and its
 * siblings) instantiated over Z3Lanes, the bit-vector twin of the
 * Int64Lanes algebra the interpreters run. Only the leaves (buffer
 * cells, scalar parameters, splats) are the encoder's own.
 *
 * Invariant: every encoded lane term is *normalized* for its element
 * type, i.e. equal to wrap(elem, value), as in the interpreters.
 */
class LaneEncoder
{
  public:
    explicit LaneEncoder(z3::context &ctx) : ctx_(ctx), alg_(ctx) {}

    /** Lane i of any IR's node, memoized per (node, lane). */
    template <typename Node>
    z3::expr
    lane(const std::shared_ptr<const Node> &e, int i)
    {
        auto key = std::make_pair(static_cast<const void *>(e.get()), i);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        std::optional<z3::expr> v = leaf(*e, i);
        if (!v) {
            v = lane_semantics(
                alg_, *e,
                [&](int k, int j) { return lane(e->arg(k), j); },
                [i](const auto &f) -> z3::expr { return f(i); });
        }
        memo_.emplace(key, *v);
        return *v;
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
    // --- leaves -----------------------------------------------------

    std::optional<z3::expr>
    leaf(const hir::Expr &e, int i)
    {
        const ScalarType s = e.type().elem;
        if (e.op() == hir::Op::Load)
            return load(e.load_ref(), i, s);
        if (e.op() == hir::Op::Var)
            return scalar(e.var_name(), s);
        return std::nullopt;
    }

    std::optional<z3::expr>
    leaf(const uir::UExpr &e, int i)
    {
        if (e.op() == uir::UOp::HirLeaf)
            return lane(e.leaf(), i);
        return std::nullopt;
    }

    /** The load and broadcast leaves of every ISA's instruction DAG. */
    template <typename Traits>
    std::optional<z3::expr>
    leaf(const isa::Node<Traits> &e, int i)
    {
        const ScalarType s = e.type().elem;
        if (e.op() == Traits::kRead)
            return load(e.load_ref(), i, s);
        if (e.op() == Traits::kSplat)
            return alg_.wrap(s, lane(e.splat_value(), 0));
        return std::nullopt;
    }

    /** Lane i of a load: a symbolic buffer cell. */
    z3::expr
    load(const hir::LoadRef &r, int i, ScalarType elem)
    {
        return cell(r.buffer, r.dy, r.dx + i, elem);
    }

    /** Symbolic buffer cell (absolute element coordinates). */
    z3::expr
    cell(int buffer, int dy, int x, ScalarType elem)
    {
        auto key = std::make_tuple(buffer, dy, x);
        auto it = cells_.find(key);
        if (it != cells_.end())
            return it->second;
        std::string name = "b";
        name += std::to_string(buffer) + "_y" + std::to_string(dy) + "_x" +
                std::to_string(x);
        z3::expr v =
            Z3Lanes::extend(ctx_.bv_const(name.c_str(), bits(elem)), elem);
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
        z3::expr v = Z3Lanes::extend(
            ctx_.bv_const(("s_" + name).c_str(), bits(elem)), elem);
        scalars_.emplace(name, v);
        scalar_types_.emplace(name, elem);
        return v;
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

    z3::context &ctx_;
    Z3Lanes alg_;
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

/**
 * A lane query with its inputs renamed c0, c1, ... in the order a
 * depth-first walk first meets them. Lanes that compute the same
 * function of different cells (most lanes of a stencil) then build
 * the same term, which z3 hash-conses to one id.
 */
z3::expr
canonical_query(const z3::expr &query)
{
    z3::context &ctx = query.ctx();
    z3::expr_vector from(ctx);
    z3::expr_vector to(ctx);
    std::unordered_set<unsigned> seen;
    std::vector<z3::expr> stack = {query};
    while (!stack.empty()) {
        const z3::expr e = stack.back();
        stack.pop_back();
        if (!e.is_app() || !seen.insert(e.id()).second)
            continue;
        if (e.num_args() == 0 &&
            e.decl().decl_kind() == Z3_OP_UNINTERPRETED) {
            from.push_back(e);
            std::string name = "c";
            name += std::to_string(to.size());
            to.push_back(ctx.constant(name.c_str(), e.get_sort()));
            continue;
        }
        for (unsigned k = e.num_args(); k-- > 0;)
            stack.push_back(e.arg(k));
    }
    z3::expr renamed = query;
    return renamed.substitute(from, to);
}

/**
 * Prove the selected lanes one at a time, in order, each in a fresh
 * solver: the paper's incremental lane verification (§4.1). A wrong
 * candidate is usually refuted on its first lane, each query holds
 * only the cells its lane reads, and a lane whose query is a renaming
 * of one already proved is proved with it, which keeps a proof of
 * every lane of a 128-lane vector affordable. The timeout covers all
 * lanes.
 */
template <typename ImplPtr>
ProofOutcome
run_check(const hir::ExprPtr &ref, const ImplPtr &impl, const Spec &spec,
          const Z3Options &opts)
{
    using Clock = std::chrono::steady_clock;
    const int out_lanes = ref->type().lanes;
    RAKE_USER_CHECK(out_lanes == impl->type().lanes,
                    "lane count mismatch in z3_check");
    const Clock::time_point expiry =
        Clock::now() + std::chrono::milliseconds(opts.timeout_ms);
    z3::context ctx;
    LaneEncoder enc(ctx);
    // Proved canonical queries, kept alive so their ids stay theirs.
    z3::expr_vector proved(ctx);
    std::unordered_set<unsigned> proved_ids;
    ProofOutcome outcome;
    for (int i : select_lanes(opts, out_lanes)) {
        RAKE_USER_CHECK(i >= 0 && i < out_lanes,
                        "lane " << i << " out of range");
        const z3::expr query = enc.lane(ref, i) != enc.lane(impl, i);
        const z3::expr key = canonical_query(query);
        if (proved_ids.count(key.id()))
            continue;
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(expiry - Clock::now());
        if (left.count() <= 0)
            return outcome;
        z3::solver solver(ctx);
        z3::params params(ctx);
        params.set("timeout", static_cast<unsigned>(left.count()));
        solver.set(params);
        solver.add(query);
        switch (solver.check()) {
          case z3::unsat:
            proved.push_back(key);
            proved_ids.insert(key.id());
            break;
          case z3::sat:
            outcome.result = ProofResult::Refuted;
            outcome.counterexample =
                enc.model_to_env(solver.get_model(), spec);
            return outcome;
          default:
            return outcome;
        }
    }
    outcome.result = ProofResult::Proved;
    return outcome;
}

} // namespace

ProofOutcome
z3_check(const hir::ExprPtr &ref, const hvx::InstrPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    return run_check(ref, impl, spec, opts);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const uir::UExprPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    return run_check(ref, impl, spec, opts);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const hir::ExprPtr &impl,
         const Spec &spec, const Z3Options &opts)
{
    return run_check(ref, impl, spec, opts);
}

ProofOutcome
z3_check(const hir::ExprPtr &ref, const backend::TargetISA &isa,
         const backend::InstrHandle &impl, const Spec &spec,
         const Z3Options &opts)
{
    RAKE_USER_CHECK(impl != nullptr, "null implementation in z3_check");
    // Recover the concrete DAG through the backend's own sexpr
    // round-trip instead of assuming the handle's layout; the
    // instruction set is tiny next to solver time, so the extra parse
    // is noise.
    const std::string text = isa.instr_to_sexpr(impl);
    if (isa.name() == "hvx")
        return run_check(ref, hvx::parse_instr(text), spec, opts);
    if (isa.name() == "neon")
        return run_check(ref, neon::parse_instr(text), spec, opts);
    RAKE_UNREACHABLE("z3_check has no lane semantics for backend "
                     << isa.name());
}

} // namespace rake::synth
