/**
 * @file
 * Swizzle-free sketches (paper §4), for every backend.
 *
 * A sketch (backend::Sketch) is a partial implementation: compute
 * instructions are concrete, data movement is abstracted behind Hole
 * nodes whose meanings are lane arrangements (symbolic vectors).
 * SketchBuilder allocates holes while a lowering template constructs
 * the tree; substitute_holes grafts the synthesized swizzle programs
 * back in once every hole is concretized; InterpEvaluator hands the
 * shared interpreter to CEGIS. All three are templates over the
 * backend's instruction node, an isa::Node (isa/node.h) whose Traits
 * name the ISA's hole opcode, so the node contract is that one class:
 * make_hole(id, type), make(op, args, imms, elem), op(), hole_id(),
 * args(), imms() and type().
 */
#ifndef RAKE_SYNTH_SKETCH_H
#define RAKE_SYNTH_SKETCH_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/target_isa.h"
#include "support/error.h"
#include "synth/symbolic_vector.h"

namespace rake::synth {

/** Allocates holes while a template builds its instruction tree. */
template <typename Node>
class SketchBuilder
{
  public:
    using NodePtr = std::shared_ptr<const Node>;

    /** New hole of `type` requiring `cells` over `sources`. */
    NodePtr
    hole(VecType type, Arrangement cells,
         std::vector<backend::InstrHandle> sources = {})
    {
        RAKE_CHECK(static_cast<int>(cells.size()) == type.lanes,
                   "hole arrangement size mismatch: "
                       << cells.size() << " cells for "
                       << rake::to_string(type));
        const int id = static_cast<int>(holes_.size());
        holes_.push_back(Hole{type, std::move(cells),
                              std::move(sources)});
        return Node::make_hole(id, type);
    }

    /**
     * Hole that re-lays-out an existing value: the output must hold
     * lane `perm(i)` of `value` at position i.
     */
    NodePtr
    permute_hole(const NodePtr &value, Arrangement cells)
    {
        const int lanes = static_cast<int>(cells.size());
        return hole(VecType(value->type().elem, lanes),
                    std::move(cells), {value});
    }

    std::vector<Hole>
    take()
    {
        return std::move(holes_);
    }

  private:
    std::vector<Hole> holes_;
};

namespace detail {

template <typename Node>
std::shared_ptr<const Node>
substitute(const std::shared_ptr<const Node> &n,
           const std::vector<backend::InstrHandle> &solutions,
           std::unordered_map<const Node *, std::shared_ptr<const Node>>
               &memo)
{
    using NodePtr = std::shared_ptr<const Node>;
    auto it = memo.find(n.get());
    if (it != memo.end())
        return it->second;

    NodePtr result;
    if (n->op() == Node::Traits::kHole) {
        const int id = n->hole_id();
        RAKE_CHECK(id >= 0 && id < static_cast<int>(solutions.size()) &&
                       solutions[id] != nullptr,
                   "missing swizzle solution for hole " << id);
        NodePtr solution = std::static_pointer_cast<const Node>(
            solutions[id]);
        RAKE_CHECK(solution->type() == n->type(),
                   "swizzle solution type mismatch for hole "
                       << id << ": " << to_string(solution->type())
                       << " vs " << to_string(n->type()));
        // A solution may pass through a source subtree that itself
        // contains earlier holes (a ??swizzle over sketch values);
        // keep substituting inside it.
        result = substitute(solution, solutions, memo);
    } else if (n->args().empty()) {
        result = n;
    } else {
        std::vector<NodePtr> args;
        args.reserve(n->args().size());
        bool changed = false;
        for (const auto &a : n->args()) {
            args.push_back(substitute(a, solutions, memo));
            changed |= args.back() != a;
        }
        result = changed ? Node::make(n->op(), std::move(args), n->imms(),
                                      n->type().elem)
                         : n;
    }
    memo.emplace(n.get(), result);
    return result;
}

} // namespace detail

/**
 * Replace every Hole node in `root` by its synthesized program.
 * `solutions[id]` must be a non-null `Node` of the hole's type for
 * every hole id present.
 */
template <typename Node>
backend::InstrHandle
substitute_holes(const backend::InstrHandle &root,
                 const std::vector<backend::InstrHandle> &solutions)
{
    RAKE_CHECK(root != nullptr, "substitute on null sketch");
    std::unordered_map<const Node *, std::shared_ptr<const Node>> memo;
    return detail::substitute(std::static_pointer_cast<const Node>(root),
                              solutions, memo);
}

/** The interpreter of `Node`'s ISA behind the CEGIS Evaluator protocol. */
template <typename Node>
class InterpEvaluator final : public backend::Evaluator
{
  public:
    void
    set_oracle(isa::HoleOracle oracle) override
    {
        interp_.set_oracle(std::move(oracle));
    }

    void
    reset(const Env &env) override
    {
        interp_.reset(env);
    }

    const Value &
    eval(const backend::InstrHandle &instr) override
    {
        return interp_.eval(std::static_pointer_cast<const Node>(instr));
    }

  private:
    isa::Interpreter<typename Node::Traits> interp_;
};

} // namespace rake::synth

#endif // RAKE_SYNTH_SKETCH_H
