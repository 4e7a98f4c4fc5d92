#include "neon/cost.h"

#include <algorithm>
#include <sstream>

#include "support/structural.h"

namespace rake::neon {

int
latency_of(NOp op)
{
    switch (op) {
      // Loads and multiplies.
      case NOp::Ld1:
      case NOp::Mul:
      case NOp::Mla:
      case NOp::Mull:
      case NOp::Mlal:
        return 4;
      // Shifts, widening moves, narrows, and cross-lane permutes.
      case NOp::Movl:
      case NOp::Shl:
      case NOp::Sshr:
      case NOp::Ushr:
      case NOp::Rshr:
      case NOp::Xtn:
      case NOp::Qxtn:
      case NOp::Shrn:
      case NOp::Qrshrn:
      case NOp::Ext:
      case NOp::Zip:
      case NOp::Uzp:
      case NOp::Rev:
      case NOp::Tbl:
        return 3;
      // Simple ALU.
      case NOp::Add:
      case NOp::Qadd:
      case NOp::Sub:
      case NOp::Abd:
      case NOp::Min:
      case NOp::Max:
      case NOp::Hadd:
      case NOp::Rhadd:
      case NOp::Cmgt:
      case NOp::Cmeq:
      case NOp::Bsl:
      case NOp::And:
      case NOp::Orr:
      case NOp::Eor:
      case NOp::Not:
        return 2;
      // Free register plumbing.
      case NOp::Bitcast:
      case NOp::Dup:
      case NOp::Hole:
      case NOp::Lo:
      case NOp::Hi:
      case NOp::Combine:
        return 0;
    }
    return 2;
}

int
issue_count(const NInstr &n, const Target &target)
{
    if (is_free_movement(n.op()))
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
        cost.total_latency += latency_of(node.op()) * issues;
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
