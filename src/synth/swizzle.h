/**
 * @file
 * Swizzle synthesis (paper §5): concretize each ??load / ??swizzle
 * hole into a sequence of real data-movement instructions.
 *
 * SwizzleSolver is the one swizzle search, shared by every backend. It
 * looks, under an instruction budget, for the cheapest program in a
 * target's data-movement grammar whose output lanes realize the hole's
 * arrangement. Every candidate program tried counts as one swizzling
 * query (Table 1); the search is memoized per goal and backtracks
 * through the budget exactly as Algorithm 2 requires. Within one goal
 * the budget tightens as Algorithm 2's beta does: once a program is
 * found, later rules look only for a strictly cheaper one.
 *
 * The engine owns the search: the memo protocol, shared window reads,
 * deadline polls, the stats, and the rules every target has — zero
 * splat, window read, source identity, lo/hi half, then interleave,
 * deinterleave and concatenation of solvable sub-goals. A backend
 * supplies only a moves policy (documented on SwizzleSolver): its node
 * type, constructors for those moves, their costs, and the rules only
 * its ISA has (HVX: vror; Neon: vext, vrev, vtbl). The policy is a
 * template argument, so every rule is a static call.
 */
#ifndef RAKE_SYNTH_SWIZZLE_H
#define RAKE_SYNTH_SWIZZLE_H

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hvx/cost.h"
#include "sim/machine.h"
#include "support/deadline.h"
#include "synth/symbolic_vector.h"

namespace rake::synth {

/** Instrumentation for Table 1's swizzling columns. */
struct SwizzleStats {
    int queries = 0;   ///< candidate swizzle programs examined
    int solved = 0;    ///< holes successfully concretized
    int unsat = 0;     ///< holes proven infeasible within budget
    int memo_hits = 0; ///< goals answered from the memo table
    double seconds = 0.0;
};

/**
 * Swizzle memo key: the goal arrangement, its element type, and the
 * identities of the source nodes Src cells refer to (the same
 * arrangement over different sources is a different goal).
 */
using SwizzleKey =
    std::tuple<Arrangement, ScalarType, std::vector<const void *>>;

/**
 * Cell-wise FNV hash over the full key. Lookups used to go through
 * std::map, whose lexicographic Cell comparisons were a measurable
 * slice of synthesis time on deep swizzle searches.
 */
struct SwizzleKeyHash {
    size_t operator()(const SwizzleKey &k) const;
};

/**
 * Goal-directed, budgeted search for data-movement programs over one
 * backend's moves. `Moves` supplies, with `NodePtr` its
 * `std::shared_ptr<const Node>`:
 *
 *  - `using Node`: the backend's instruction node type;
 *  - `int budget_scale(const VecType &hole) const`: cost units per
 *    budget unit (budgets count whole-vector movement ops);
 *  - `int permute_cost(const VecType &type) const` and
 *    `int concat_cost() const`: what one (de)interleave or one
 *    concatenation adds to a program's cost;
 *  - `int issues(const NodePtr &n) const`: the cost of a window read;
 *  - constructors `zero(elem, lanes)`, `read(ref, type)`,
 *    `half(source, hi)`, `interleave(v)` (the move that interleaves
 *    v's halves), `deinterleave(v)` and `concat(lo, hi)`;
 *  - `isa_rules(goal, elem, sources, budget, search, consider)`: the
 *    ISA-only rules, tried after concat under the goal's budget,
 *    tightened below its best program once it has one.
 *    `search(sub_goal, sub_budget)` recurses into the memoized search
 *    over the same sources and `consider(node, cost)` counts and
 *    offers one candidate.
 */
template <typename Moves>
class SwizzleSolver
{
  public:
    using Node = typename Moves::Node;
    using NodePtr = std::shared_ptr<const Node>;

    SwizzleSolver(Moves moves, SwizzleStats &stats)
        : moves_(std::move(moves)), stats_(stats)
    {
    }

    /**
     * Cheapest program realizing the hole's arrangement with total
     * cost <= budget (scaled by Moves::budget_scale); nullptr if unsat
     * within the budget.
     */
    NodePtr
    solve(const Hole &hole, int budget)
    {
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        // Hole sources are type-erased backend handles; this solver
        // runs one backend's repertoire, so they are its nodes.
        std::vector<NodePtr> sources;
        sources.reserve(hole.sources.size());
        for (const auto &s : hole.sources)
            sources.push_back(std::static_pointer_cast<const Node>(s));
        auto result = search(hole.cells, hole.type.elem, sources,
                             budget * moves_.budget_scale(hole.type));
        stats_.seconds +=
            std::chrono::duration<double>(clock::now() - t0).count();
        if (!result) {
            ++stats_.unsat;
            return nullptr;
        }
        ++stats_.solved;
        return result->first;
    }

    /**
     * Wall-clock budget polled at every recursive search step; on
     * expiry the search throws TimeoutError instead of returning
     * unsat, so a timeout is never memoized as a negative result.
     */
    void set_deadline(const Deadline &deadline) { deadline_ = deadline; }

    /** Does this solver count into `stats`? */
    bool counts_into(const SwizzleStats &stats) const
    {
        return &stats == &stats_;
    }

  private:
    /**
     * Memo entry for one goal. A positive result (instr + cost) and
     * the highest budget a search came up empty at are tracked in
     * separate fields: backtracking re-queries the same goal at a
     * *tighter* budget (Algorithm 2 shrinks beta), and that failure
     * must not clobber a solution already found at a looser budget —
     * later higher-budget queries still want it.
     */
    struct Result {
        NodePtr instr;         ///< best known program (null = none yet)
        int cost = 0;          ///< its cost (when found)
        int failed_budget = -1;///< highest budget proven infeasible
    };

    using Found = std::optional<std::pair<NodePtr, int>>;

    static SwizzleKey
    key_of(const Arrangement &arr, ScalarType elem,
           const std::vector<NodePtr> &sources)
    {
        std::vector<const void *> ids;
        ids.reserve(sources.size());
        for (const auto &s : sources)
            ids.push_back(s.get());
        return std::make_tuple(arr, elem, std::move(ids));
    }

    /** Is `a` exactly one half (lo or hi) of a source? */
    static bool
    is_source_half(const Arrangement &a, const std::vector<NodePtr> &sources,
                   int *source, bool *hi)
    {
        if (a.empty() || a[0].kind != Cell::Kind::Src)
            return false;
        const int s = a[0].source;
        if (s >= static_cast<int>(sources.size()))
            return false;
        const int n = static_cast<int>(a.size());
        if (sources[s]->type().lanes != 2 * n)
            return false;
        for (int offset : {0, n}) {
            bool match = true;
            for (int i = 0; i < n && match; ++i) {
                const Cell &c = a[i];
                match = c.kind == Cell::Kind::Src && c.source == s &&
                        c.lane == offset + i;
            }
            if (match) {
                *source = s;
                *hi = offset == n;
                return true;
            }
        }
        return false;
    }

    /** Memoized window read so identical loads share one node. */
    NodePtr
    read(int buffer, int dy, int x0, VecType type)
    {
        auto key = std::make_tuple(buffer, dy, x0, type.lanes, type.elem);
        auto it = reads_.find(key);
        if (it != reads_.end())
            return it->second;
        NodePtr r = moves_.read(hir::LoadRef{buffer, x0, dy}, type);
        reads_[key] = r;
        return r;
    }

    Found
    search(const Arrangement &arr, ScalarType elem,
           const std::vector<NodePtr> &sources, int budget)
    {
        // Poll before memo writes: a timeout unwinds out of here
        // without recording anything, so an aborted search can never
        // masquerade as a memoized "unsat within budget".
        deadline_.check("swizzle synthesis");

        if (budget < 0)
            return std::nullopt;
        const SwizzleKey key = key_of(arr, elem, sources);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            const Result &r = it->second;
            if (r.instr && r.cost <= budget) {
                ++stats_.memo_hits;
                return std::make_pair(r.instr, r.cost);
            }
            if (r.failed_budget >= budget) {
                ++stats_.memo_hits;
                return std::nullopt;
            }
        }
        if (!active_.insert(key).second)
            return std::nullopt; // already exploring this goal
        struct ActiveGuard {
            std::unordered_set<SwizzleKey, SwizzleKeyHash> &set;
            const SwizzleKey &key;
            ~ActiveGuard() { set.erase(key); }
        } guard{active_, key};

        const int n = static_cast<int>(arr.size());
        const VecType type(elem, n);
        Found best;
        auto consider = [&](NodePtr instr, int cost) {
            ++stats_.queries;
            if (!instr || cost > budget)
                return;
            if (!best || cost < best->second)
                best = std::make_pair(std::move(instr), cost);
        };

        // Rule: all-zero arrangement -> a zero splat (free in the loop).
        bool all_zero = true;
        for (const Cell &c : arr)
            all_zero &= c.kind == Cell::Kind::Zero;
        if (all_zero)
            consider(moves_.zero(elem, n), 0);

        // Rule: contiguous buffer window -> one vector read.
        {
            int buffer = 0, dy = 0, x0 = 0;
            if (is_window(arr, &buffer, &dy, &x0)) {
                NodePtr r = read(buffer, dy, x0, type);
                consider(r, moves_.issues(r));
            }
        }

        // Rule: identity over one source -> the source itself (free).
        {
            int source = 0;
            if (is_source_identity(arr, &source) &&
                source < static_cast<int>(sources.size()) &&
                sources[source]->type() == type)
                consider(sources[source], 0);
        }

        // Rule: lo / hi half of a source (free register renames).
        {
            int source = 0;
            bool hi = false;
            if (is_source_half(arr, sources, &source, &hi) &&
                sources[source]->type().elem == elem)
                consider(moves_.half(sources[source], hi), 0);
        }

        // Merge into the memo without discarding what is already
        // known: keep the cheapest program ever found, and separately
        // the highest budget that failed.
        auto remember_solved = [&]() {
            Result &r = memo_[key];
            if (!r.instr || best->second < r.cost) {
                r.instr = best->first;
                r.cost = best->second;
            }
        };

        if (best && best->second == 0) {
            remember_solved();
            return best;
        }

        auto sub_search = [&](const Arrangement &goal, int sub_budget) {
            return search(goal, elem, sources, sub_budget);
        };
        // Algorithm 2's beta inside one goal: `consider` keeps the
        // first program of least cost, so once one is in hand only a
        // strictly cheaper one can replace it, and every later rule
        // searches under that tighter bound.
        auto bound = [&] {
            return best ? std::min(budget, best->second - 1) : budget;
        };
        const int step = moves_.permute_cost(type);

        // Rule: interleave of a solvable arrangement.
        if (n % 2 == 0 && budget >= 1) {
            Arrangement d = deinterleave(arr);
            if (!(d == arr)) {
                if (auto sub = sub_search(d, bound() - step))
                    consider(moves_.interleave(sub->first),
                             sub->second + step);
            }
        }

        // Rule: deinterleave of a solvable arrangement.
        if (n % 2 == 0 && budget >= 1) {
            Arrangement s = interleave(arr);
            if (!(s == arr)) {
                if (auto sub = sub_search(s, bound() - step))
                    consider(moves_.deinterleave(sub->first),
                             sub->second + step);
            }
        }

        // Rule: concatenation of two solvable halves.
        if (n % 2 == 0 && budget >= 1) {
            const int c = moves_.concat_cost();
            Arrangement lo(arr.begin(), arr.begin() + n / 2);
            Arrangement hi(arr.begin() + n / 2, arr.end());
            if (auto ls = sub_search(lo, bound() - c)) {
                if (auto hs = sub_search(hi, bound() - c - ls->second))
                    consider(moves_.concat(ls->first, hs->first),
                             ls->second + hs->second + c);
            }
        }

        moves_.isa_rules(arr, elem, sources, bound(), sub_search, consider);

        if (best) {
            remember_solved();
            return best;
        }
        Result &r = memo_[key];
        r.failed_budget = std::max(r.failed_budget, budget);
        return std::nullopt;
    }

    Moves moves_;
    SwizzleStats &stats_;
    Deadline deadline_;
    std::unordered_map<SwizzleKey, Result, SwizzleKeyHash> memo_;
    std::unordered_set<SwizzleKey, SwizzleKeyHash> active_;
    std::map<std::tuple<int, int, int, int, ScalarType>, NodePtr> reads_;
};

/**
 * The body of a backend's TargetISA::solve_hole. A solver binds the
 * run's stats sink at construction, so `solver` is built lazily on a
 * lowering run's first query and rebuilt when a later run counts into
 * other stats: its memo lives as long as one run.
 */
template <typename Moves>
std::optional<backend::InstrHandle>
solve_hole_in_run(std::optional<SwizzleSolver<Moves>> &solver,
                  const Moves &moves, const Hole &hole, int budget,
                  SwizzleStats &stats, const Deadline &deadline)
{
    if (!solver || !solver->counts_into(stats))
        solver.emplace(moves, stats);
    solver->set_deadline(deadline);
    auto r = solver->solve(hole, budget);
    if (!r)
        return std::nullopt;
    return backend::InstrHandle(std::move(r));
}

/**
 * Cross-stage layout negotiation (DESIGN.md "Whole-pipeline
 * selection"): the layout in which a producer stage stores its
 * intermediate buffer. Natural stores the semantic value;
 * Interleaved/Deinterleaved store it pre-permuted by vshuffvdd /
 * vdealvdd, with every consumer's reads compensated so the pipeline's
 * final output is unchanged. Picking a non-natural layout pays one
 * permute at the producer but can cancel a permute in every consumer
 * (or vice versa) — the §7.3 cross-stage re-layout Rake alone cannot
 * see.
 */
enum class EdgeLayout : uint8_t {
    Natural,
    Interleaved,
    Deinterleaved,
};

std::string to_string(EdgeLayout layout);

/** One stage's selected program, in whole-DAG topological order. */
struct StageProgram {
    hvx::InstrPtr instr;
    int64_t iterations = 0;
    /** Buffer id read by this stage -> producing stage index. */
    std::map<int, int> producers;
};

/** Outcome of negotiate_layouts(). */
struct NegotiationResult {
    /** Transformed programs, same order as the input stages. */
    std::vector<hvx::InstrPtr> programs;
    /** Chosen layout per stage (Natural for non-producers). */
    std::vector<EdgeLayout> layouts;
    /** Permutes adjacent to stage boundaries in the final programs. */
    int boundary_swizzles = 0;
    /** Boundary permutes removed relative to all-Natural. */
    int boundary_swizzles_saved = 0;
};

/**
 * Choose one layout per producer edge minimizing total scheduled
 * cycles (the measured replacement for the old modeled boundary
 * penalty). Producers are visited in topological order and each edge's
 * three layouts are enumerated — fan-outs are tiny — keeping a
 * non-natural layout only on strict cycle improvement, so ties stay
 * Natural and the result is deterministic. A layout is only feasible
 * when every consumer read of the edge's buffer is whole-row (dx == 0)
 * and the row has an even lane count; infeasible edges stay Natural.
 * The returned boundary permutes are real instructions in the
 * returned programs, scheduled and simulated like any other.
 */
NegotiationResult negotiate_layouts(const std::vector<StageProgram> &stages,
                                    const hvx::Target &target,
                                    const sim::MachineModel &machine);

} // namespace rake::synth

#endif // RAKE_SYNTH_SWIZZLE_H
