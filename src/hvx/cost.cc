#include "hvx/cost.h"

#include <sstream>

#include "support/error.h"
#include "support/structural.h"

namespace rake::hvx {

namespace {

/**
 * Whether the opcode family natively writes a register pair with a
 * single issue (widening multiplies, extensions, pair shuffles).
 * Everything else must issue once per occupied result register —
 * this is exactly why Halide's two vmpyi-acc lose to Rake's single
 * widening vmpy-acc in the paper's "add" example.
 */
bool
produces_pair_natively(Opcode op)
{
    switch (op) {
      case Opcode::VMpy:
      case Opcode::VMpyAcc:
      case Opcode::VMpa:
      case Opcode::VMpaAcc:
      case Opcode::VTmpy:
      case Opcode::VTmpyAcc:
      case Opcode::VDmpy:
      case Opcode::VDmpyAcc:
      case Opcode::VRmpy:
      case Opcode::VRmpyAcc:
      case Opcode::VZxt:
      case Opcode::VSxt:
      case Opcode::VCombine:
      case Opcode::VShuffVdd:
      case Opcode::VDealVdd:
        return true;
      default:
        return false;
    }
}

} // namespace

int
issue_count(const Instr &n, const Target &target)
{
    const OpcodeInfo &oi = info(n.op());
    if (oi.resource == Resource::None)
        return 0;
    const int regs = target.regs_for(n.type());
    const int native = produces_pair_natively(n.op()) ? 2 : 1;
    return std::max(1, (regs + native - 1) / native);
}

Cost
cost_of(const InstrPtr &n, const Target &target)
{
    RAKE_CHECK(n != nullptr, "cost of null instruction");
    Cost c;
    for_each_distinct_node(*n, [&](const Instr &node) {
        const OpcodeInfo &oi = info(node.op());
        const int issues = issue_count(node, target);
        if (issues == 0)
            return;
        const int res = static_cast<int>(oi.resource);
        RAKE_CHECK(res < kNumCostedResources, "uncosted resource issued");
        c.per_resource[res] += issues;
        c.total_instructions += issues;
        c.total_latency += oi.latency * issues;
        if (oi.resource == Resource::Load)
            c.loads += issues;
    });
    return c;
}

std::string
to_string(const Cost &c)
{
    std::ostringstream os;
    os << "cost{max=" << c.scalar() << ", insns=" << c.total_instructions
       << ", latency=" << c.total_latency << ", loads=" << c.loads;
    os << ", per-resource=[";
    for (int i = 0; i < kNumCostedResources; ++i) {
        if (i)
            os << " ";
        os << to_string(static_cast<Resource>(i)) << ":"
           << c.per_resource[i];
    }
    os << "]}";
    return os.str();
}

} // namespace rake::hvx
