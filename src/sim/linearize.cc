#include "sim/linearize.h"

#include <unordered_map>

#include "support/error.h"
#include "support/structural.h"

namespace rake::sim {

namespace {

class Linearizer
{
  public:
    hvx::InstrPtr
    visit(const hvx::InstrPtr &n)
    {
        auto it = canon_.find(n);
        if (it != canon_.end())
            return it->second;
        // Canonicalize children first so structurally equal subtrees
        // share nodes in the output.
        std::vector<hvx::InstrPtr> args;
        bool changed = false;
        for (const auto &a : n->args()) {
            args.push_back(visit(a));
            changed |= args.back() != a;
        }
        hvx::InstrPtr canon = n;
        if (changed) {
            switch (n->op()) {
              case hvx::Opcode::VRead:
              case hvx::Opcode::VSplat:
                RAKE_UNREACHABLE("leaves have no children");
              default:
                canon = hvx::Instr::make(n->op(), std::move(args),
                                         n->imms(), n->type().elem);
                break;
            }
        }
        auto it2 = canon_.find(canon);
        if (it2 != canon_.end()) {
            canon_.emplace(n, it2->second);
            return it2->second;
        }
        canon_.emplace(n, canon);
        if (canon != n)
            canon_.emplace(canon, canon);
        order_.push_back(canon);
        return canon;
    }

    std::vector<hvx::InstrPtr>
    take()
    {
        return std::move(order_);
    }

  private:
    std::unordered_map<hvx::InstrPtr, hvx::InstrPtr, StructuralHash,
                       StructuralEqual>
        canon_;
    std::vector<hvx::InstrPtr> order_;
};

} // namespace

std::vector<hvx::InstrPtr>
linearize(const hvx::InstrPtr &root)
{
    RAKE_CHECK(root != nullptr, "linearize of null DAG");
    Linearizer lin;
    lin.visit(root);
    return lin.take();
}

namespace {

hvx::InstrPtr
remap_reads(const hvx::InstrPtr &n, const std::map<int, int> &remap,
            std::unordered_map<const hvx::Instr *, hvx::InstrPtr> *memo)
{
    auto it = memo->find(n.get());
    if (it != memo->end())
        return it->second;
    hvx::InstrPtr out = n;
    if (n->op() == hvx::Opcode::VRead) {
        auto rit = remap.find(n->load_ref().buffer);
        if (rit != remap.end() && rit->second != n->load_ref().buffer) {
            hir::LoadRef ref = n->load_ref();
            ref.buffer = rit->second;
            out = hvx::Instr::make_read(ref, n->type());
        }
    } else if (n->num_args() > 0) {
        std::vector<hvx::InstrPtr> args;
        args.reserve(n->args().size());
        bool changed = false;
        for (const auto &a : n->args()) {
            args.push_back(remap_reads(a, remap, memo));
            changed |= args.back() != a;
        }
        if (changed)
            out = hvx::Instr::make(n->op(), std::move(args), n->imms(),
                                   n->type().elem);
    }
    memo->emplace(n.get(), out);
    return out;
}

} // namespace

hvx::InstrPtr
remap_read_buffers(const hvx::InstrPtr &root,
                   const std::map<int, int> &remap)
{
    RAKE_CHECK(root != nullptr, "remap_read_buffers of null DAG");
    std::unordered_map<const hvx::Instr *, hvx::InstrPtr> memo;
    return remap_reads(root, remap, &memo);
}

} // namespace rake::sim
