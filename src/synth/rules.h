/**
 * @file
 * Verified, parameterized rewrite rules mined from solved syntheses.
 *
 * The CEGIS loop re-derives the same handful of lowering shapes over
 * and over: most queries are instances of a small set of (HIR
 * fragment -> instruction DAG) rules (Daly et al., PAPERS.md). This
 * module turns the persistent cache's solved (canonical HIR sexpr,
 * instruction sexpr) pairs into such rules and answers future queries
 * from them before any sketch enumeration runs:
 *
 *  - Mining anti-unifies each solved pair: constant values and leaf
 *    variable names that occur in matching typed contexts on *both*
 *    sides generalize to typed holes (`?hN` atoms in the value slot
 *    of a `(const <type> v)` / `(var <type> n)` leaf). Types, shapes,
 *    load offsets and instruction immediates stay concrete — the
 *    encodings weave them into alignments, so generalizing them is
 *    unsound.
 *  - Every candidate rule is verified ONCE with every hole bound to a
 *    fresh symbolic scalar: by z3 over the backend's lane semantics,
 *    on every output lane (the proof is then universal over hole
 *    values), falling back to exhaustive corner-lane evaluation
 *    through TargetISA::make_evaluator() when the solver answers
 *    Unknown. A refuted candidate backs off —
 *    constant holes are dropped one by one, then variable holes — and
 *    a pair that stays refuted fully concrete is discarded. Every
 *    shipped rule is verifier-proven.
 *  - Matching a query is structural: hole atoms bind the query's
 *    const value / var name (same hole, same binding; type atoms must
 *    be identical). All matching rules are instantiated, the
 *    cheapest-cost instantiation wins, and the winner is re-checked
 *    against the reference interpreter on the query's own examples
 *    before it is trusted (a mismatch counts as an instance reject
 *    and the next candidate is tried).
 *
 * The rule-table file carries the same version-key discipline as the
 * persistent cache (synth/persist.h): per-backend sections record the
 * backend name plus its grammar and cost-model versions, so a version
 * bump self-invalidates stale rules instead of replaying selections
 * today's search would not make. A corrupt or unreadable table loads
 * as empty — rules can only ever be a fast path, never an error.
 */
#ifndef RAKE_SYNTH_RULES_H
#define RAKE_SYNTH_RULES_H

#include <optional>
#include <string>
#include <vector>

#include "backend/target_isa.h"
#include "hir/sexpr.h"

namespace rake::synth {

/** Serialization-format version of the rule-table file itself. */
inline constexpr int kRulesFormatVersion = 1;

/** One typed hole of a rule. */
struct RuleHole {
    enum class Kind {
        Const, ///< binds the value atom of a (const <type> v) leaf
        Var,   ///< binds the name atom of a (var <type> n) leaf
    };
    Kind kind = Kind::Const;
    std::string elem; ///< element type ("u16"); lanes stay concrete
                      ///< in the pattern's own type atoms
};

/** A verified parameterized rewrite rule. */
struct Rule {
    std::vector<RuleHole> holes;
    std::string lhs;    ///< HIR pattern sexpr (may contain ?hN atoms)
    std::string rhs;    ///< instruction template sexpr
    backend::Cost cost; ///< witness cost at mining time (match order)
    std::string proof;  ///< "z3" or "eval": how it was verified

    // Parsed forms, rebuilt on load (not serialized).
    hir::SExpr lhs_tree;
    hir::SExpr rhs_tree;
};

/** An immutable, versioned set of rule sections (one per backend). */
class RuleTable
{
  public:
    struct Section {
        std::string backend;
        int grammar = 0;
        int cost_model = 0;
        std::vector<Rule> rules;
    };

    std::vector<Section> sections;

    /** True when the file existed but failed to parse (stale format
     *  version, truncation, corruption). The table is then empty. */
    bool invalid = false;

    /**
     * The section matching a backend under its *current* version
     * keys, or nullptr. A grammar or cost-model bump leaves the
     * on-disk section in place but makes this lookup miss, exactly
     * like the persistent cache's header check.
     */
    const std::vector<Rule> *rules_for(const std::string &backend,
                                       int grammar,
                                       int cost_model) const;

    int total_rules() const;
};

/** Parse a rule-table file. Never throws: a missing file is an empty
 *  table, a corrupt one is empty with `invalid` set. */
RuleTable load_rule_table(const std::string &path);

/**
 * Process-wide table registry, one immutable table per path; nullptr
 * when `path` is empty (the rule stage is off). Tables are loaded
 * once and never destroyed, like the persistent-store registry.
 */
const RuleTable *rule_table(const std::string &path);

/** Serialize sections to the versioned file format. */
std::string rule_table_to_text(const std::vector<RuleTable::Section> &s);

/** Atomically write a rule table; false on I/O failure. */
bool write_rule_table(const std::string &path,
                      const std::vector<RuleTable::Section> &s);

/**
 * Resolve the rule-table knob: --no-rules forces the stage off, an
 * explicit path wins otherwise, then the RAKE_RULES environment
 * variable, then "" (off). Shared by every CLI exposing --rules.
 */
std::string resolve_rules_file(const std::string &requested,
                               bool no_rules);

/**
 * Rule count the table at `path` offers `backend` under the given
 * version keys (0 when the path is empty, the table is missing or
 * corrupt, or every section is stale) — the `rule_table_size`
 * reported by the drivers.
 */
int rule_table_size(const std::string &path, const std::string &backend,
                    int grammar, int cost_model);

/**
 * Rule-first matching for one normalized query. Every structurally
 * matching rule is instantiated and parsed through the backend; the
 * candidates are ordered cheapest-first (TargetISA::cost_of on the
 * instantiation, ties broken by rule order) and each is re-checked
 * against the reference interpreter on the query's example pool
 * (seeded with `seed`, the same examples CEGIS would verify against)
 * until one passes. Candidates that fail the re-check are counted
 * into `*instance_rejects`. Returns nullopt when nothing matches or
 * survives.
 */
std::optional<backend::InstrHandle>
apply_rules(const std::vector<Rule> &rules,
            const hir::ExprPtr &normalized,
            const backend::TargetISA &isa, uint64_t seed,
            int *instance_rejects);

/** One solved (canonical HIR sexpr, instruction sexpr) pair. */
struct MinedPair {
    std::string expr;
    std::string instr;
};

/** Miner configuration. */
struct MineOptions {
    /** Example environments for the exhaustive-evaluation fallback
     *  (the first ExamplePool::kCornerExamples are the deterministic
     *  corner patterns). */
    int check_envs = 16;

    /** Solver budget per z3 proof attempt. */
    unsigned z3_timeout_ms = 20000;

    /** Example-pool seed for the evaluation fallback. */
    uint64_t seed = 1;
};

/** Mining outcome counters (reported by rake_mine_rules). */
struct MineStats {
    int pairs = 0;       ///< input pairs considered
    int proved_z3 = 0;   ///< rules proven by the symbolic encoder
    int proved_eval = 0; ///< rules proven by exhaustive evaluation
    int refuted = 0;     ///< pairs dropped: refuted even fully concrete
    int duplicates = 0;  ///< generalized to an already-mined rule
    int skipped = 0;     ///< unparseable / unserializable pairs
};

/**
 * Anti-unify + verify solved pairs for one backend into a rule
 * section under the given version keys. Deterministic: rules come
 * out sorted by (cost, lhs, rhs), deduplicated on (lhs, rhs).
 */
RuleTable::Section
mine_rules(const backend::TargetISA &isa, int grammar, int cost_model,
           const std::vector<MinedPair> &pairs, const MineOptions &opts,
           MineStats *stats);

} // namespace rake::synth

#endif // RAKE_SYNTH_RULES_H
