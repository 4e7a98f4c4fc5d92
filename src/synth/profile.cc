#include "synth/profile.h"

#include <iomanip>
#include <sstream>

namespace rake::synth {

namespace {

void
accumulate(QueryStats &into, const QueryStats &from)
{
    into.queries += from.queries;
    into.accepted += from.accepted;
    into.counterexamples += from.counterexamples;
    into.dedup_skips += from.dedup_skips;
    into.ref_cache_hits += from.ref_cache_hits;
    into.seconds += from.seconds;
}

} // namespace

void
SynthProfile::add(const RakeOutcome &r)
{
    ++runs;
    if (r.status == SynthStatus::TimedOut)
        ++timeouts;
    if (r.degraded)
        ++degraded;
    // Instance rejects are rule-stage work spent on this query even
    // when the answer then came from elsewhere, so they accumulate
    // before the per-tier early returns below.
    rule_instance_rejects += r.rule_rejects;
    if (r.cache_hit) {
        // Cached runs carry the original synthesis's statistics for
        // Table 1, but no time was spent re-deriving them; folding
        // them in would double-count effort.
        ++cache_hits;
        return;
    }
    if (r.disk_hit) {
        // Same story for the on-disk tier: the stats are a previous
        // process's effort, already counted when it synthesized.
        ++disk_hits;
        return;
    }
    if (r.rule_hit) {
        // A rule hit ran no synthesis stage at all: the rule was
        // verified once offline, so there is no effort to fold in.
        ++rule_hits;
        return;
    }
    accumulate(lift_update, r.lift.update);
    accumulate(lift_replace, r.lift.replace);
    accumulate(lift_extend, r.lift.extend);
    accumulate(sketch, r.lower.sketch);
    swizzle.queries += r.lower.swizzle.queries;
    swizzle.solved += r.lower.swizzle.solved;
    swizzle.unsat += r.lower.swizzle.unsat;
    swizzle.memo_hits += r.lower.swizzle.memo_hits;
    swizzle.seconds += r.lower.swizzle.seconds;
    backtracks += r.lower.backtracks;
}

void
SynthProfile::merge(const SynthProfile &o)
{
    accumulate(lift_update, o.lift_update);
    accumulate(lift_replace, o.lift_replace);
    accumulate(lift_extend, o.lift_extend);
    accumulate(sketch, o.sketch);
    swizzle.queries += o.swizzle.queries;
    swizzle.solved += o.swizzle.solved;
    swizzle.unsat += o.swizzle.unsat;
    swizzle.memo_hits += o.swizzle.memo_hits;
    swizzle.seconds += o.swizzle.seconds;
    backtracks += o.backtracks;
    runs += o.runs;
    cache_hits += o.cache_hits;
    disk_hits += o.disk_hits;
    rule_hits += o.rule_hits;
    rule_instance_rejects += o.rule_instance_rejects;
    // The table size is a property of the loaded configuration, not
    // per-run effort: merging profiles of the same run keeps it.
    if (o.rule_table_size > rule_table_size)
        rule_table_size = o.rule_table_size;
    timeouts += o.timeouts;
    degraded += o.degraded;
    stages += o.stages;
    boundary_swizzles += o.boundary_swizzles;
    hashcons_hits += o.hashcons_hits;
}

double
SynthProfile::total_seconds() const
{
    return lift_update.seconds + lift_replace.seconds +
           lift_extend.seconds + sketch.seconds + swizzle.seconds;
}

int
SynthProfile::total_queries() const
{
    return lift_update.queries + lift_replace.queries +
           lift_extend.queries + sketch.queries + swizzle.queries;
}

int
SynthProfile::total_dedup_skips() const
{
    return lift_update.dedup_skips + lift_replace.dedup_skips +
           lift_extend.dedup_skips + sketch.dedup_skips;
}

int
SynthProfile::total_ref_cache_hits() const
{
    return lift_update.ref_cache_hits + lift_replace.ref_cache_hits +
           lift_extend.ref_cache_hits + sketch.ref_cache_hits;
}

std::string
SynthProfile::to_string() const
{
    const double total = total_seconds();
    std::ostringstream os;
    os << std::fixed;

    auto pct = [&](double s) {
        return total > 0.0 ? 100.0 * s / total : 0.0;
    };
    auto row = [&](const char *name, const QueryStats &q) {
        os << "  " << std::left << std::setw(14) << name << std::right
           << std::setw(8) << q.queries << std::setw(8) << q.accepted
           << std::setw(8) << q.counterexamples << std::setw(8)
           << q.dedup_skips << std::setw(8) << q.ref_cache_hits
           << std::setw(10) << std::setprecision(3) << q.seconds * 1e3
           << std::setw(7) << std::setprecision(1) << pct(q.seconds)
           << "%\n";
    };

    // The disk clause appears only when the tier answered something,
    // so runs without --cache-dir render bit-identically.
    os << "synthesis profile (" << runs << " runs, " << cache_hits
       << " from cache";
    if (disk_hits > 0)
        os << ", " << disk_hits << " from disk";
    if (rule_hits > 0)
        os << ", " << rule_hits << " from rules";
    os << ")\n";
    os << "  " << std::left << std::setw(14) << "stage" << std::right
       << std::setw(8) << "queries" << std::setw(8) << "accept"
       << std::setw(8) << "ce" << std::setw(8) << "dedup"
       << std::setw(8) << "refhit" << std::setw(10) << "ms"
       << std::setw(8) << "share\n";
    row("lift/update", lift_update);
    row("lift/replace", lift_replace);
    row("lift/extend", lift_extend);
    row("lower/sketch", sketch);
    os << "  " << std::left << std::setw(14) << "lower/swizzle"
       << std::right << std::setw(8) << swizzle.queries << std::setw(8)
       << swizzle.solved << std::setw(8) << swizzle.unsat
       << std::setw(8) << "-" << std::setw(8) << swizzle.memo_hits
       << std::setw(10) << std::setprecision(3)
       << swizzle.seconds * 1e3 << std::setw(7)
       << std::setprecision(1) << pct(swizzle.seconds) << "%\n";

    const int queries = total_queries();
    const int dedup = total_dedup_skips();
    const int refhits = total_ref_cache_hits();
    os << "  total: " << std::setprecision(3) << total * 1e3 << " ms, "
       << queries << " queries, " << backtracks << " backtracks\n";
    os << "  fast path: " << dedup << " dedup skips";
    if (queries > 0)
        os << " (" << std::setprecision(1)
           << 100.0 * dedup / queries << "% of queries)";
    os << ", " << refhits << " reference-cache hits, "
       << swizzle.memo_hits << " swizzle memo hits\n";
    // Like the disk clause: the rules line appears only when a rule
    // table was actually in play, so rule-free runs stay bit-identical.
    if (rule_hits > 0 || rule_instance_rejects > 0 ||
        rule_table_size > 0)
        os << "  rules: " << rule_table_size << " loaded, " << rule_hits
           << " hits, " << rule_instance_rejects
           << " instance rejects\n";
    // Emitted only when a deadline actually fired, so --profile output
    // with no (or a generous) --timeout-ms stays bit-identical.
    if (timeouts > 0 || degraded > 0)
        os << "  deadlines: " << timeouts << " timed out, " << degraded
           << " degraded to greedy selection\n";
    // Emitted only when a multi-stage DAG was compiled, so the flat
    // 21-benchmark suite's profile output stays bit-identical.
    if (stages > 0)
        os << "  pipeline: " << stages << " stages, "
           << boundary_swizzles << " boundary swizzles, "
           << hashcons_hits << " hash-cons hits\n";
    return os.str();
}

} // namespace rake::synth
