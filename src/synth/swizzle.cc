#include "synth/swizzle.h"

#include "sim/linearize.h"
#include "sim/simulator.h"
#include "support/error.h"

namespace rake::synth {

size_t
SwizzleKeyHash::operator()(const SwizzleKey &k) const
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t x) { h = (h ^ x) * 1099511628211ull; };
    for (const Cell &c : std::get<0>(k)) {
        mix(static_cast<uint64_t>(c.kind));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(c.buffer)));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(c.dy)));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(c.x)));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(c.source)));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(c.lane)));
    }
    mix(static_cast<uint64_t>(static_cast<int>(std::get<1>(k))));
    for (const void *p : std::get<2>(k))
        mix(reinterpret_cast<uintptr_t>(p));
    return static_cast<size_t>(h);
}

std::string
to_string(EdgeLayout layout)
{
    switch (layout) {
      case EdgeLayout::Natural:
        return "natural";
      case EdgeLayout::Interleaved:
        return "interleaved";
      case EdgeLayout::Deinterleaved:
        return "deinterleaved";
    }
    RAKE_UNREACHABLE("bad EdgeLayout");
}

namespace {

bool
is_boundary_permute(hvx::Opcode op)
{
    return op == hvx::Opcode::VShuffVdd || op == hvx::Opcode::VDealVdd;
}

/**
 * Producer side of a non-natural layout: store permute(root) instead
 * of root, cancelling an existing inverse permute at the root rather
 * than stacking a new one on top of it.
 */
hvx::InstrPtr
transform_producer(const hvx::InstrPtr &root, EdgeLayout layout)
{
    const hvx::Opcode store_permute = layout == EdgeLayout::Deinterleaved
                                          ? hvx::Opcode::VDealVdd
                                          : hvx::Opcode::VShuffVdd;
    const hvx::Opcode inverse = layout == EdgeLayout::Deinterleaved
                                    ? hvx::Opcode::VShuffVdd
                                    : hvx::Opcode::VDealVdd;
    if (root->op() == inverse)
        return root->arg(0); // deal(shuff(x)) == x == shuff(deal(x))
    return hvx::Instr::make(store_permute, {root}, {},
                            root->type().elem);
}

/**
 * Consumer side: reads of `buffer` now observe the permuted stored
 * value, so an existing `strip(read)` (the permute the stored layout
 * pre-applies) collapses to the bare read, and a bare read gains the
 * inverse `wrap` to recover the semantic value.
 */
hvx::InstrPtr
compensate_consumer(
    const hvx::InstrPtr &n, int buffer, hvx::Opcode strip,
    hvx::Opcode wrap,
    std::unordered_map<const hvx::Instr *, hvx::InstrPtr> *memo)
{
    auto it = memo->find(n.get());
    if (it != memo->end())
        return it->second;
    hvx::InstrPtr out = n;
    if (n->op() == strip && n->num_args() == 1 &&
        n->arg(0)->op() == hvx::Opcode::VRead &&
        n->arg(0)->load_ref().buffer == buffer) {
        out = n->arg(0);
    } else if (n->op() == hvx::Opcode::VRead &&
               n->load_ref().buffer == buffer) {
        out = hvx::Instr::make(wrap, {n}, {}, n->type().elem);
    } else if (n->num_args() > 0) {
        std::vector<hvx::InstrPtr> args;
        args.reserve(n->args().size());
        bool changed = false;
        for (const auto &a : n->args()) {
            args.push_back(
                compensate_consumer(a, buffer, strip, wrap, memo));
            changed |= args.back() != a;
        }
        if (changed)
            out = hvx::Instr::make(n->op(), std::move(args), n->imms(),
                                   n->type().elem);
    }
    memo->emplace(n.get(), out);
    return out;
}

/** Every read of `buffer` is whole-row (dx == 0) with even lanes. */
bool
reads_relayoutable(const hvx::InstrPtr &n, int buffer,
                   std::unordered_set<const hvx::Instr *> *visited)
{
    if (!visited->insert(n.get()).second)
        return true;
    if (n->op() == hvx::Opcode::VRead &&
        n->load_ref().buffer == buffer &&
        (n->load_ref().dx != 0 || n->type().lanes % 2 != 0))
        return false;
    for (const auto &a : n->args())
        if (!reads_relayoutable(a, buffer, visited))
            return false;
    return true;
}

/**
 * Permutes adjacent to stage boundaries: a permute directly over an
 * intermediate-buffer read, or a producer whose stored root is a
 * permute. Counted over the deduplicated (linearized) programs.
 */
int
count_boundary_swizzles(const std::vector<hvx::InstrPtr> &programs,
                        const std::vector<StageProgram> &stages,
                        const std::vector<bool> &is_producer)
{
    int count = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
        for (const hvx::InstrPtr &n : sim::linearize(programs[i]))
            if (is_boundary_permute(n->op()) && n->num_args() == 1 &&
                n->arg(0)->op() == hvx::Opcode::VRead &&
                stages[i].producers.count(
                    n->arg(0)->load_ref().buffer) > 0)
                ++count;
        if (is_producer[i] && is_boundary_permute(programs[i]->op()))
            ++count;
    }
    return count;
}

} // namespace

NegotiationResult
negotiate_layouts(const std::vector<StageProgram> &stages,
                  const hvx::Target &target,
                  const sim::MachineModel &machine)
{
    const int n = static_cast<int>(stages.size());
    NegotiationResult result;
    result.layouts.assign(n, EdgeLayout::Natural);
    result.programs.reserve(stages.size());
    for (const StageProgram &s : stages) {
        RAKE_CHECK(s.instr != nullptr, "negotiate_layouts null program");
        result.programs.push_back(s.instr);
    }

    // Consumers per producer, with the buffer id each consumer uses
    // for that edge (consumers address producers through their own
    // slot space, so the id is per consumer).
    std::vector<std::vector<std::pair<int, int>>> consumers(n);
    std::vector<bool> is_producer(n, false);
    for (int c = 0; c < n; ++c)
        for (const auto &[buf, p] : stages[c].producers) {
            RAKE_CHECK(p >= 0 && p < c,
                       "negotiate_layouts stages not topological");
            consumers[p].emplace_back(c, buf);
            is_producer[p] = true;
        }

    const int natural_swizzles =
        count_boundary_swizzles(result.programs, stages, is_producer);

    auto cycles_of = [&](int i, const hvx::InstrPtr &prog) {
        return sim::schedule(prog, target, machine)
            .cycles(stages[i].iterations);
    };

    for (int p = 0; p < n; ++p) {
        if (consumers[p].empty())
            continue;
        bool feasible = result.programs[p]->type().lanes % 2 == 0;
        for (const auto &[c, buf] : consumers[p]) {
            std::unordered_set<const hvx::Instr *> visited;
            feasible = feasible && reads_relayoutable(result.programs[c],
                                                      buf, &visited);
        }
        if (!feasible)
            continue;

        // Candidates are always built from the pre-edge programs so
        // the two non-natural layouts don't stack on one another.
        const hvx::InstrPtr base_producer = result.programs[p];
        std::map<int, hvx::InstrPtr> base_consumer;
        for (const auto &[c, buf] : consumers[p])
            base_consumer.emplace(c, result.programs[c]);

        int64_t best_cost = cycles_of(p, base_producer);
        for (const auto &[c, prog] : base_consumer)
            best_cost += cycles_of(c, prog);

        for (EdgeLayout layout : {EdgeLayout::Interleaved,
                                  EdgeLayout::Deinterleaved}) {
            const hvx::Opcode strip =
                layout == EdgeLayout::Deinterleaved
                    ? hvx::Opcode::VDealVdd
                    : hvx::Opcode::VShuffVdd;
            const hvx::Opcode wrap =
                layout == EdgeLayout::Deinterleaved
                    ? hvx::Opcode::VShuffVdd
                    : hvx::Opcode::VDealVdd;
            const hvx::InstrPtr producer =
                transform_producer(base_producer, layout);
            std::map<int, hvx::InstrPtr> cand = base_consumer;
            for (const auto &[c, buf] : consumers[p]) {
                std::unordered_map<const hvx::Instr *, hvx::InstrPtr>
                    memo;
                cand[c] = compensate_consumer(cand[c], buf, strip,
                                              wrap, &memo);
            }
            int64_t cost = cycles_of(p, producer);
            for (const auto &[c, cons] : cand)
                cost += cycles_of(c, cons);
            // Strict improvement only: ties keep the natural layout,
            // making the negotiation deterministic.
            if (cost < best_cost) {
                best_cost = cost;
                result.layouts[p] = layout;
                result.programs[p] = producer;
                for (auto &[c, cons] : cand)
                    result.programs[c] = cons;
            }
        }
    }

    result.boundary_swizzles =
        count_boundary_swizzles(result.programs, stages, is_producer);
    result.boundary_swizzles_saved =
        natural_swizzles - result.boundary_swizzles;
    return result;
}

} // namespace rake::synth
