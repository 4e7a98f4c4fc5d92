#include "synth/rules.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "hir/interp.h"
#include "hir/printer.h"
#include "support/error.h"
#include "synth/persist.h"
#include "synth/spec.h"
#include "synth/z3_verify.h"

namespace rake::synth {

namespace {

constexpr const char *kMagic = "rake-rules";
constexpr const char *kHolePrefix = "?h";

/** Serialize a parsed s-expression back to the canonical single-line
 *  text the printers emit (single spaces, no trailing whitespace). */
void
write_tree(std::ostringstream &os, const hir::SExpr &s)
{
    if (s.is_atom) {
        os << s.atom;
        return;
    }
    os << "(";
    for (size_t i = 0; i < s.items.size(); ++i) {
        if (i > 0)
            os << " ";
        write_tree(os, s.items[i]);
    }
    os << ")";
}

std::string
tree_text(const hir::SExpr &s)
{
    std::ostringstream os;
    write_tree(os, s);
    return os.str();
}

/** Is `s` a (const <type> <v>) or (var <type> <n>) leaf list? */
bool
is_typed_leaf(const hir::SExpr &s, std::string *head = nullptr)
{
    if (s.is_atom || s.items.size() != 3)
        return false;
    if (!s.items[0].is_atom || !s.items[1].is_atom || !s.items[2].is_atom)
        return false;
    if (s.items[0].atom != "const" && s.items[0].atom != "var")
        return false;
    if (head)
        *head = s.items[0].atom;
    return true;
}

/** Element part of a type atom ("u16x128" -> "u16"). */
std::string
elem_of(const std::string &type_atom)
{
    const size_t x = type_atom.find('x');
    return x == std::string::npos ? type_atom : type_atom.substr(0, x);
}

/** Lane count of a type atom ("u16x128" -> 128, "u16" -> 1). */
int
lanes_of(const std::string &type_atom)
{
    const size_t x = type_atom.find('x');
    if (x == std::string::npos)
        return 1;
    return std::atoi(type_atom.c_str() + x + 1);
}

bool
is_hole_atom(const std::string &atom)
{
    return atom.rfind(kHolePrefix, 0) == 0;
}

std::string
hole_atom(size_t index)
{
    return kHolePrefix + std::to_string(index);
}

/**
 * Identity of one generalization candidate: the same (kind, element
 * type, concrete atom) everywhere on both sides becomes one hole, so
 * patterns stay non-linear where the witness repeated a value.
 */
struct HoleSite {
    RuleHole::Kind kind;
    std::string elem;
    std::string atom;

    bool
    matches(const hir::SExpr &leaf) const
    {
        const bool is_const = leaf.items[0].atom == "const";
        if ((kind == RuleHole::Kind::Const) != is_const)
            return false;
        return elem == elem_of(leaf.items[1].atom) &&
               atom == leaf.items[2].atom;
    }
};

/** Pre-order const/var leaves of a tree, deduplicated, stable order. */
std::vector<HoleSite>
collect_sites(const hir::SExpr &t)
{
    std::vector<HoleSite> out;
    auto seen = [&](const HoleSite &h) {
        for (const HoleSite &o : out) {
            if (o.kind == h.kind && o.elem == h.elem && o.atom == h.atom)
                return true;
        }
        return false;
    };
    std::function<void(const hir::SExpr &)> walk =
        [&](const hir::SExpr &s) {
            std::string head;
            if (is_typed_leaf(s, &head)) {
                HoleSite site{head == "const" ? RuleHole::Kind::Const
                                              : RuleHole::Kind::Var,
                              elem_of(s.items[1].atom), s.items[2].atom};
                if (!seen(site))
                    out.push_back(std::move(site));
                return;
            }
            if (!s.is_atom) {
                for (const hir::SExpr &item : s.items)
                    walk(item);
            }
        };
    walk(t);
    return out;
}

bool
tree_has_site(const hir::SExpr &t, const HoleSite &site)
{
    if (is_typed_leaf(t))
        return site.matches(t);
    if (t.is_atom)
        return false;
    for (const hir::SExpr &item : t.items) {
        if (tree_has_site(item, site))
            return true;
    }
    return false;
}

/** Copy of `t` with every active site's value atom holed out. */
hir::SExpr
holed(const hir::SExpr &t, const std::vector<HoleSite> &active)
{
    hir::SExpr out = t;
    if (is_typed_leaf(out)) {
        for (size_t i = 0; i < active.size(); ++i) {
            if (active[i].matches(out)) {
                out.items[2].atom = hole_atom(i);
                return out;
            }
        }
        return out;
    }
    if (!out.is_atom) {
        for (hir::SExpr &item : out.items)
            item = holed(item, active);
    }
    return out;
}

/** The fresh symbolic scalar standing in for hole `i` during the
 *  one-time verification. */
std::string
symbolic_name(size_t i)
{
    return "_rh" + std::to_string(i);
}

/**
 * Copy of `t` with every active site replaced by a fresh symbolic
 * scalar: a const leaf becomes (var <elem> _rhI) — broadcast-wrapped
 * when the leaf was vector-typed — and a var leaf is alpha-renamed.
 * Proving the pair equal on this tree proves the rule for every hole
 * value at once.
 */
hir::SExpr
symbolized(const hir::SExpr &t, const std::vector<HoleSite> &active)
{
    hir::SExpr out = t;
    if (is_typed_leaf(out)) {
        for (size_t i = 0; i < active.size(); ++i) {
            if (!active[i].matches(out))
                continue;
            if (active[i].kind == RuleHole::Kind::Var) {
                out.items[2].atom = symbolic_name(i);
                return out;
            }
            const int lanes = lanes_of(out.items[1].atom);
            hir::SExpr var;
            var.items.resize(3);
            var.items[0].is_atom = true;
            var.items[0].atom = "var";
            var.items[1].is_atom = true;
            var.items[1].atom = active[i].elem;
            var.items[2].is_atom = true;
            var.items[2].atom = symbolic_name(i);
            if (lanes == 1)
                return var;
            hir::SExpr bcast;
            bcast.items.resize(3);
            bcast.items[0].is_atom = true;
            bcast.items[0].atom = "broadcast";
            bcast.items[1].is_atom = true;
            bcast.items[1].atom = std::to_string(lanes);
            bcast.items[2] = std::move(var);
            return bcast;
        }
        return out;
    }
    if (!out.is_atom) {
        for (hir::SExpr &item : out.items)
            item = symbolized(item, active);
    }
    return out;
}

/** Exhaustive corner-lane check: reference interpreter vs the
 *  backend's evaluator over the spec's example pool. */
bool
eval_equal(const hir::ExprPtr &ref, const backend::TargetISA &isa,
           const backend::InstrHandle &impl, int envs, uint64_t seed)
{
    Spec spec = Spec::from_expr(ref);
    ExamplePool pool(spec, seed);
    auto evaluator = isa.make_evaluator();
    hir::Interpreter interp;
    for (int i = 0; i < envs; ++i) {
        // Copy the environment out: at() grows an internal vector, so
        // its references do not survive later at() calls.
        const Env env = pool.at(i);
        interp.reset(env);
        const Value &want = interp.eval(ref);
        evaluator->reset(env);
        const Value &got = evaluator->eval(impl);
        if (!(want == got))
            return false;
    }
    return true;
}

/**
 * Verify one candidate generalization. Proved by z3 where the
 * backend has a lane encoding (universal over hole values, since the
 * holes are symbolic scalars), otherwise by exhaustive evaluation.
 * Returns the proof kind ("z3"/"eval") or nullopt when refuted or
 * unverifiable.
 */
std::optional<std::string>
verify_candidate(const hir::SExpr &lhs_sym, const hir::SExpr &rhs_sym,
                 const backend::TargetISA &isa, const MineOptions &opts)
{
    hir::ExprPtr ref;
    backend::InstrHandle impl;
    try {
        ref = hir::expr_from_sexpr(lhs_sym);
        impl = isa.instr_from_sexpr(tree_text(rhs_sym));
    } catch (const UserError &) {
        return std::nullopt;
    }
    if (!ref || !impl)
        return std::nullopt;
    Spec spec = Spec::from_expr(ref);
    Z3Options zopts;
    zopts.timeout_ms = opts.z3_timeout_ms;
    const ProofOutcome proof = z3_check(ref, isa, impl, spec, zopts);
    if (proof.result == ProofResult::Proved)
        return std::string("z3");
    if (proof.result == ProofResult::Refuted)
        return std::nullopt;
    if (eval_equal(ref, isa, impl, opts.check_envs, opts.seed))
        return std::string("eval");
    return std::nullopt;
}

/** Line-oriented reader for the rule-table file; structural problems
 *  throw UserError, which load_rule_table maps to an invalid table. */
class TableReader
{
  public:
    explicit TableReader(const std::string &text)
    {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            lines_.push_back(line);
    }

    std::string
    take(const std::string &key)
    {
        RAKE_USER_CHECK(next_ < lines_.size(),
                        "truncated rule table at field: " << key);
        const std::string &line = lines_[next_++];
        RAKE_USER_CHECK(line.size() > key.size() &&
                            line.compare(0, key.size(), key) == 0 &&
                            line[key.size()] == ' ',
                        "expected '" << key << " ...', got: " << line);
        return line.substr(key.size() + 1);
    }

    void
    take_bare(const std::string &key)
    {
        RAKE_USER_CHECK(next_ < lines_.size(),
                        "truncated rule table at field: " << key);
        RAKE_USER_CHECK(lines_[next_] == key,
                        "expected '" << key
                                     << "', got: " << lines_[next_]);
        ++next_;
    }

    bool
    peek_is(const std::string &key) const
    {
        return next_ < lines_.size() &&
               lines_[next_].compare(0, key.size(), key) == 0 &&
               (lines_[next_].size() == key.size() ||
                lines_[next_][key.size()] == ' ');
    }

    void
    done() const
    {
        RAKE_USER_CHECK(next_ == lines_.size(),
                        "trailing data after rule table");
    }

  private:
    std::vector<std::string> lines_;
    size_t next_ = 0;
};

int64_t
parse_i64(const std::string &s)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    RAKE_USER_CHECK(errno != ERANGE && end != s.c_str() && *end == '\0',
                    "bad integer in rule table: " << s);
    return v;
}

std::vector<std::string>
split_ws(const std::string &s)
{
    std::istringstream is(s);
    std::vector<std::string> out;
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** Deterministic shipping order: cheapest witness first, text as the
 *  tie-break, so a table is byte-stable across mining runs. */
bool
rule_before(const Rule &a, const Rule &b)
{
    if (a.cost.scalar != b.cost.scalar)
        return a.cost.scalar < b.cost.scalar;
    if (a.cost.total_instructions != b.cost.total_instructions)
        return a.cost.total_instructions < b.cost.total_instructions;
    if (a.cost.total_latency != b.cost.total_latency)
        return a.cost.total_latency < b.cost.total_latency;
    if (a.lhs != b.lhs)
        return a.lhs < b.lhs;
    return a.rhs < b.rhs;
}

/**
 * Structural match of a pattern against a query tree. Hole leaves —
 * (const <type> ?hN) / (var <type> ?hN) — bind the query's value
 * atom; the head and full type atom (element AND lanes) must be
 * identical, and a hole seen twice must bind the same atom.
 */
bool
match_tree(const hir::SExpr &pattern, const hir::SExpr &query,
           std::map<std::string, std::string> &bindings)
{
    if (pattern.is_atom != query.is_atom)
        return false;
    if (pattern.is_atom)
        return pattern.atom == query.atom;
    if (is_typed_leaf(pattern) && is_hole_atom(pattern.items[2].atom)) {
        if (!is_typed_leaf(query))
            return false;
        if (pattern.items[0].atom != query.items[0].atom ||
            pattern.items[1].atom != query.items[1].atom)
            return false;
        auto it = bindings.find(pattern.items[2].atom);
        if (it != bindings.end())
            return it->second == query.items[2].atom;
        bindings.emplace(pattern.items[2].atom, query.items[2].atom);
        return true;
    }
    if (pattern.items.size() != query.items.size())
        return false;
    for (size_t i = 0; i < pattern.items.size(); ++i) {
        if (!match_tree(pattern.items[i], query.items[i], bindings))
            return false;
    }
    return true;
}

/** Instantiate a template: every ?hN atom replaced by its binding.
 *  False when a hole atom has no binding (a malformed rule). */
bool
instantiate(const hir::SExpr &t,
            const std::map<std::string, std::string> &bindings,
            hir::SExpr &out)
{
    out = t;
    if (out.is_atom) {
        if (is_hole_atom(out.atom)) {
            auto it = bindings.find(out.atom);
            if (it == bindings.end())
                return false;
            out.atom = it->second;
        }
        return true;
    }
    for (size_t i = 0; i < out.items.size(); ++i) {
        if (!instantiate(t.items[i], bindings, out.items[i]))
            return false;
    }
    return true;
}

} // namespace

const std::vector<Rule> *
RuleTable::rules_for(const std::string &backend, int grammar,
                     int cost_model) const
{
    for (const Section &s : sections) {
        if (s.backend == backend && s.grammar == grammar &&
            s.cost_model == cost_model)
            return &s.rules;
    }
    return nullptr;
}

int
RuleTable::total_rules() const
{
    int n = 0;
    for (const Section &s : sections)
        n += static_cast<int>(s.rules.size());
    return n;
}

std::string
rule_table_to_text(const std::vector<RuleTable::Section> &sections)
{
    std::ostringstream os;
    os << kMagic << " " << kRulesFormatVersion << "\n";
    for (const RuleTable::Section &s : sections) {
        os << "backend " << s.backend << "\n"
           << "grammar " << s.grammar << "\n"
           << "cost-model " << s.cost_model << "\n"
           << "rules " << s.rules.size() << "\n";
        for (const Rule &r : s.rules) {
            os << "rule\n"
               << "cost " << r.cost.scalar << " "
               << r.cost.total_instructions << " "
               << r.cost.total_latency << "\n"
               << "proof " << r.proof << "\n"
               << "holes " << r.holes.size() << "\n";
            for (size_t i = 0; i < r.holes.size(); ++i) {
                os << "hole " << i << " "
                   << (r.holes[i].kind == RuleHole::Kind::Const
                           ? "const"
                           : "var")
                   << " " << r.holes[i].elem << "\n";
            }
            os << "lhs " << r.lhs << "\n"
               << "rhs " << r.rhs << "\n"
               << "end\n";
        }
        os << "end-backend\n";
    }
    os << "end\n";
    return os.str();
}

bool
write_rule_table(const std::string &path,
                 const std::vector<RuleTable::Section> &sections)
{
    return atomic_write(path, rule_table_to_text(sections));
}

RuleTable
load_rule_table(const std::string &path)
{
    RuleTable table;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return table; // missing file: empty table, not an error
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        TableReader r(buf.str());
        RAKE_USER_CHECK(parse_i64(r.take(kMagic)) == kRulesFormatVersion,
                        "rule table format version mismatch");
        while (r.peek_is("backend")) {
            RuleTable::Section section;
            section.backend = r.take("backend");
            section.grammar =
                static_cast<int>(parse_i64(r.take("grammar")));
            section.cost_model =
                static_cast<int>(parse_i64(r.take("cost-model")));
            const int64_t count = parse_i64(r.take("rules"));
            RAKE_USER_CHECK(count >= 0, "negative rule count");
            for (int64_t i = 0; i < count; ++i) {
                r.take_bare("rule");
                Rule rule;
                const auto cost = split_ws(r.take("cost"));
                RAKE_USER_CHECK(cost.size() == 3,
                                "rule cost wants 3 fields");
                rule.cost.scalar =
                    static_cast<int>(parse_i64(cost[0]));
                rule.cost.total_instructions =
                    static_cast<int>(parse_i64(cost[1]));
                rule.cost.total_latency =
                    static_cast<int>(parse_i64(cost[2]));
                rule.proof = r.take("proof");
                RAKE_USER_CHECK(rule.proof == "z3" ||
                                    rule.proof == "eval",
                                "bad rule proof: " << rule.proof);
                const int64_t holes = parse_i64(r.take("holes"));
                RAKE_USER_CHECK(holes >= 0, "negative hole count");
                for (int64_t h = 0; h < holes; ++h) {
                    const auto f = split_ws(r.take("hole"));
                    RAKE_USER_CHECK(f.size() == 3 &&
                                        parse_i64(f[0]) == h,
                                    "bad hole record");
                    RuleHole hole;
                    RAKE_USER_CHECK(f[1] == "const" || f[1] == "var",
                                    "bad hole kind: " << f[1]);
                    hole.kind = f[1] == "const" ? RuleHole::Kind::Const
                                                : RuleHole::Kind::Var;
                    hole.elem = f[2];
                    rule.holes.push_back(std::move(hole));
                }
                rule.lhs = r.take("lhs");
                rule.rhs = r.take("rhs");
                rule.lhs_tree = hir::parse_sexpr(rule.lhs);
                rule.rhs_tree = hir::parse_sexpr(rule.rhs);
                r.take_bare("end");
                section.rules.push_back(std::move(rule));
            }
            r.take_bare("end-backend");
            table.sections.push_back(std::move(section));
        }
        r.take_bare("end");
        r.done();
    } catch (const UserError &) {
        table.sections.clear();
        table.invalid = true;
    }
    return table;
}

const RuleTable *
rule_table(const std::string &path)
{
    if (path.empty())
        return nullptr;
    static std::mutex mutex;
    static auto &tables =
        *new std::map<std::string, std::unique_ptr<RuleTable>>;
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = tables[path];
    if (!slot)
        slot = std::make_unique<RuleTable>(load_rule_table(path));
    return slot.get();
}

std::string
resolve_rules_file(const std::string &requested, bool no_rules)
{
    if (no_rules)
        return "";
    if (!requested.empty())
        return requested;
    if (const char *env = std::getenv("RAKE_RULES"))
        return env;
    return "";
}

int
rule_table_size(const std::string &path, const std::string &backend,
                int grammar, int cost_model)
{
    const RuleTable *table = rule_table(path);
    if (!table)
        return 0;
    const auto *rules = table->rules_for(backend, grammar, cost_model);
    return rules ? static_cast<int>(rules->size()) : 0;
}

std::optional<backend::InstrHandle>
apply_rules(const std::vector<Rule> &rules,
            const hir::ExprPtr &normalized,
            const backend::TargetISA &isa, uint64_t seed,
            int *instance_rejects)
{
    if (rules.empty())
        return std::nullopt;
    hir::SExpr query;
    try {
        query = hir::parse_sexpr(hir::to_sexpr(normalized));
    } catch (const UserError &) {
        return std::nullopt;
    }

    struct Candidate {
        backend::Cost cost;
        size_t rule_index = 0;
        backend::InstrHandle instr;
    };
    std::vector<Candidate> candidates;
    for (size_t i = 0; i < rules.size(); ++i) {
        std::map<std::string, std::string> bindings;
        if (!match_tree(rules[i].lhs_tree, query, bindings))
            continue;
        hir::SExpr instantiated;
        if (!instantiate(rules[i].rhs_tree, bindings, instantiated))
            continue;
        backend::InstrHandle instr;
        try {
            instr = isa.instr_from_sexpr(tree_text(instantiated));
        } catch (const UserError &) {
            continue;
        }
        if (!instr)
            continue;
        candidates.push_back({isa.cost_of(instr), i, std::move(instr)});
    }
    if (candidates.empty())
        return std::nullopt;

    // Cheapest instantiation first — the same lowest-cost objective
    // CEGIS optimizes — with rule order as the deterministic
    // tie-break.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         if (a.cost.better_than(b.cost))
                             return true;
                         if (b.cost.better_than(a.cost))
                             return false;
                         return a.rule_index < b.rule_index;
                     });

    // Per-instance re-check on the query's own examples: a rule was
    // proven once at mining time, but the table file is outside our
    // trust boundary, so nothing ships without the reference
    // interpreter agreeing on this very instantiation.
    Spec spec = Spec::from_expr(normalized);
    ExamplePool pool(spec, seed);
    const int envs = ExamplePool::kCornerExamples + 3;
    std::vector<Env> env_copies;
    env_copies.reserve(static_cast<size_t>(envs));
    for (int i = 0; i < envs; ++i)
        env_copies.push_back(pool.at(i));

    auto evaluator = isa.make_evaluator();
    hir::Interpreter interp;
    for (const Candidate &c : candidates) {
        bool ok = true;
        try {
            for (const Env &env : env_copies) {
                interp.reset(env);
                const Value &want = interp.eval(normalized);
                evaluator->reset(env);
                const Value &got = evaluator->eval(c.instr);
                if (!(want == got)) {
                    ok = false;
                    break;
                }
            }
        } catch (const UserError &) {
            ok = false;
        }
        if (ok)
            return c.instr;
        if (instance_rejects)
            ++*instance_rejects;
    }
    return std::nullopt;
}

RuleTable::Section
mine_rules(const backend::TargetISA &isa, int grammar, int cost_model,
           const std::vector<MinedPair> &pairs, const MineOptions &opts,
           MineStats *stats)
{
    RuleTable::Section section;
    section.backend = isa.name();
    section.grammar = grammar;
    section.cost_model = cost_model;

    MineStats local;
    MineStats &st = stats ? *stats : local;
    std::set<std::string> seen; // dedup key: lhs \n rhs

    for (const MinedPair &pair : pairs) {
        ++st.pairs;
        hir::SExpr lhs_tree, rhs_tree;
        backend::InstrHandle witness;
        try {
            lhs_tree = hir::parse_sexpr(pair.expr);
            rhs_tree = hir::parse_sexpr(pair.instr);
            witness = isa.instr_from_sexpr(pair.instr);
        } catch (const UserError &) {
            ++st.skipped;
            continue;
        }
        if (!witness) {
            ++st.skipped;
            continue;
        }

        // Candidate holes: const values / var names of the HIR side
        // that also occur in a matching typed context on the
        // instruction side. A constant that only survives as a
        // derived immediate stays concrete — the witness encoding
        // depends on its value.
        std::vector<HoleSite> active;
        for (const HoleSite &site : collect_sites(lhs_tree)) {
            if (tree_has_site(rhs_tree, site))
                active.push_back(site);
        }

        // Verify, backing off on refutation: drop constant holes one
        // by one (most-recently collected first), then the variable
        // renamings, and give up only when the fully concrete pair
        // itself is refuted — which would mean the witness is wrong.
        std::optional<std::string> proof;
        while (true) {
            proof = verify_candidate(symbolized(lhs_tree, active),
                                     symbolized(rhs_tree, active), isa,
                                     opts);
            if (proof)
                break;
            auto last_const = std::find_if(
                active.rbegin(), active.rend(), [](const HoleSite &h) {
                    return h.kind == RuleHole::Kind::Const;
                });
            if (last_const != active.rend()) {
                active.erase(std::next(last_const).base());
                continue;
            }
            if (!active.empty()) {
                active.clear();
                continue;
            }
            break;
        }
        if (!proof) {
            ++st.refuted;
            continue;
        }

        Rule rule;
        rule.lhs = tree_text(holed(lhs_tree, active));
        rule.rhs = tree_text(holed(rhs_tree, active));
        const std::string key = rule.lhs + "\n" + rule.rhs;
        if (!seen.insert(key).second) {
            ++st.duplicates;
            continue;
        }
        for (const HoleSite &site : active)
            rule.holes.push_back(RuleHole{site.kind, site.elem});
        rule.cost = isa.cost_of(witness);
        rule.proof = *proof;
        rule.lhs_tree = hir::parse_sexpr(rule.lhs);
        rule.rhs_tree = hir::parse_sexpr(rule.rhs);
        if (*proof == "z3")
            ++st.proved_z3;
        else
            ++st.proved_eval;
        section.rules.push_back(std::move(rule));
    }

    std::sort(section.rules.begin(), section.rules.end(), rule_before);
    return section;
}

} // namespace rake::synth
