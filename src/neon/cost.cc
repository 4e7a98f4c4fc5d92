#include "neon/cost.h"

#include <algorithm>
#include <sstream>

#include "support/structural.h"

namespace rake::neon {

int
issue_count(const NInstr &n, const Target &target)
{
    if (info(n.op()).free)
        return 0;
    int regs = target.regs_for(n.type());
    switch (n.op()) {
      // Narrows read the full-width input: issue once per input
      // register pair consumed.
      case NOp::Xtn:
      case NOp::Qxtn:
      case NOp::Shrn:
      case NOp::Qrshrn:
        regs = std::max(regs, target.regs_for(n.arg(0)->type()));
        break;
      default:
        break;
    }
    return std::max(1, regs);
}

Cost
cost_of(const NInstrPtr &n, const Target &target)
{
    RAKE_CHECK(n != nullptr, "cost of null instruction");
    Cost cost;
    for_each_distinct_node(*n, [&](const NInstr &node) {
        const int issues = issue_count(node, target);
        cost.total_instructions += issues;
        cost.total_latency += info(node.op()).latency * issues;
        if (node.op() == NOp::Ld1)
            cost.loads += issues;
    });
    return cost;
}

std::string
to_string(const Cost &c)
{
    std::ostringstream os;
    os << "{issues=" << c.total_instructions
       << ", latency=" << c.total_latency << ", loads=" << c.loads
       << "}";
    return os.str();
}

} // namespace rake::neon
