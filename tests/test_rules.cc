/**
 * @file
 * Tests for the mined rewrite-rule fast path (synth/rules.h): the
 * anti-unification rules (constants generalize to typed holes, type
 * mismatches stay concrete, duplicates dedup), the one-time verifier
 * gate (a refuted candidate never ships), the version-key discipline
 * of the table file, warm-rule bit-identity against fresh synthesis,
 * the TargetISA-generic z3 entry point on both backends, and the
 * miner's proof over every output lane.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hir/printer.h"
#include "hir/simplify.h"
#include "hvx/sexpr.h"
#include "synth/persist.h"
#include "synth/rake.h"
#include "synth/rules.h"
#include "synth/z3_verify.h"

namespace rake {
namespace {

namespace fs = std::filesystem;
using namespace rake::hir;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

/** A widened load plus a broadcast scalar: the canonical shape whose
 *  selection embeds the constant as a same-typed vsplat operand. */
ExprPtr
plus_const_expr(int c, int lanes = 64)
{
    return (cast(u16, load(0, u8, lanes)) + c).ptr();
}

/** Two-load sum scaled by a constant: the weight lands in an
 *  instruction immediate (#N), never a typed leaf. */
ExprPtr
times_const_expr(int c, int lanes = 64)
{
    return ((cast(u16, load(0, u8, lanes)) +
             cast(u16, load(0, u8, lanes, 1))) *
            c)
        .ptr();
}

/** Unique path per test: rule_table() caches tables per path for the
 *  process lifetime, so reusing a path would read stale rules. */
std::string
fresh_path(const std::string &name)
{
    const std::string path = "/tmp/rake_rules_test_" +
                             std::to_string(::getpid()) + "_" + name +
                             ".rules";
    fs::remove(path);
    return path;
}

/** Solve one expression fresh (no caches, no rules) into a mined pair. */
synth::MinedPair
solve_hvx(const ExprPtr &e)
{
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto r = synth::select_instructions(e, opts);
    EXPECT_TRUE(r && r->instr) << "synthesis failed";
    return {hir::to_sexpr(hir::simplify(e)), hvx::to_sexpr(r->instr)};
}

synth::RuleTable::Section
mine_hvx(const std::vector<synth::MinedPair> &pairs,
         synth::MineStats *stats = nullptr)
{
    hvx::Target target;
    auto isa = backend::make_hvx_backend(target);
    return synth::mine_rules(*isa, synth::kHvxGrammarVersion,
                             synth::kHvxCostModelVersion, pairs,
                             synth::MineOptions{}, stats);
}

TEST(Rules, ConstantGeneralizesToTypedHole)
{
    synth::MineStats stats;
    auto section = mine_hvx({solve_hvx(plus_const_expr(5))}, &stats);
    ASSERT_EQ(section.rules.size(), 1u);
    const synth::Rule &rule = section.rules[0];
    ASSERT_EQ(rule.holes.size(), 1u);
    EXPECT_EQ(rule.holes[0].kind, synth::RuleHole::Kind::Const);
    EXPECT_EQ(rule.holes[0].elem, "u16");
    EXPECT_NE(rule.lhs.find("?h0"), std::string::npos);
    EXPECT_NE(rule.rhs.find("?h0"), std::string::npos);
    // The shipped rule is verifier-proven, one way or the other.
    EXPECT_TRUE(rule.proof == "z3" || rule.proof == "eval");
    EXPECT_EQ(stats.pairs, 1);
    EXPECT_EQ(stats.refuted, 0);
}

TEST(Rules, GeneralizedRuleAnswersFreshConstants)
{
    const std::string path = fresh_path("generalized");
    auto section = mine_hvx({solve_hvx(plus_const_expr(5))});
    ASSERT_EQ(section.rules.size(), 1u);
    ASSERT_TRUE(synth::write_rule_table(path, {section}));

    // A query with a constant never seen at mining time: the hole
    // instantiates, the per-instance re-check passes, and the result
    // is the witness program with the constant swapped in.
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.rules_file = path;
    auto hit = synth::select_instructions(plus_const_expr(9), opts);
    ASSERT_TRUE(hit && hit->instr);
    EXPECT_TRUE(hit->rule_hit);
    const std::string got = hvx::to_sexpr(hit->instr);
    EXPECT_NE(got.find("(const u16 9)"), std::string::npos) << got;

    // And it must be exactly what fresh synthesis would select.
    synth::RakeOptions fresh;
    fresh.use_cache = false;
    auto direct = synth::select_instructions(plus_const_expr(9), fresh);
    ASSERT_TRUE(direct && direct->instr);
    EXPECT_FALSE(direct->rule_hit);
    EXPECT_EQ(got, hvx::to_sexpr(direct->instr));
}

TEST(Rules, TypeMismatchedConstantStaysConcrete)
{
    // The scale constant appears as (const u16 3) in the HIR but only
    // as a #3 immediate in the selected instruction: no same-typed
    // leaf exists on the rhs, so generalizing would be unsound and
    // the miner must keep the rule fully concrete.
    auto section = mine_hvx({solve_hvx(times_const_expr(3))});
    ASSERT_EQ(section.rules.size(), 1u);
    EXPECT_TRUE(section.rules[0].holes.empty());
    EXPECT_EQ(section.rules[0].lhs.find("?h"), std::string::npos);

    // A concrete rule answers only its own constant.
    const std::string path = fresh_path("concrete");
    ASSERT_TRUE(synth::write_rule_table(path, {section}));
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.rules_file = path;
    auto other = synth::select_instructions(times_const_expr(5), opts);
    ASSERT_TRUE(other && other->instr);
    EXPECT_FALSE(other->rule_hit);
    auto same = synth::select_instructions(times_const_expr(3), opts);
    ASSERT_TRUE(same && same->instr);
    EXPECT_TRUE(same->rule_hit);
}

TEST(Rules, DuplicatePairsDedupToOneRule)
{
    const synth::MinedPair pair = solve_hvx(plus_const_expr(5));
    synth::MineStats stats;
    auto section = mine_hvx({pair, pair}, &stats);
    EXPECT_EQ(section.rules.size(), 1u);
    EXPECT_EQ(stats.pairs, 2);
    EXPECT_EQ(stats.duplicates, 1);
}

TEST(Rules, RefutedCandidateIsDropped)
{
    // A deliberately wrong witness: the instruction implements a
    // different expression of the same type. The verifier must refute
    // it at every backoff level and ship nothing.
    const synth::MinedPair good = solve_hvx(times_const_expr(3));
    const synth::MinedPair bogus{
        hir::to_sexpr(hir::simplify(plus_const_expr(5))), good.instr};
    synth::MineStats stats;
    auto section = mine_hvx({bogus}, &stats);
    EXPECT_TRUE(section.rules.empty());
    EXPECT_EQ(stats.refuted, 1);
    EXPECT_EQ(stats.proved_z3 + stats.proved_eval, 0);
}

TEST(Rules, VersionBumpInvalidatesSection)
{
    const std::string path = fresh_path("stale_grammar");
    auto section = mine_hvx({solve_hvx(plus_const_expr(5))});
    ASSERT_FALSE(section.rules.empty());
    section.grammar = 999; // as if mined under a future grammar
    ASSERT_TRUE(synth::write_rule_table(path, {section}));

    synth::RuleTable table = synth::load_rule_table(path);
    EXPECT_FALSE(table.invalid);
    EXPECT_EQ(table.total_rules(), section.rules.size() > 0
                                       ? static_cast<int>(
                                             section.rules.size())
                                       : 0);
    // The section is on disk but today's version keys miss it.
    EXPECT_EQ(table.rules_for("hvx", synth::kHvxGrammarVersion,
                              synth::kHvxCostModelVersion),
              nullptr);
    EXPECT_EQ(synth::rule_table_size(path, "hvx",
                                     synth::kHvxGrammarVersion,
                                     synth::kHvxCostModelVersion),
              0);

    // Selection under the stale table quietly synthesizes fresh.
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.rules_file = path;
    auto r = synth::select_instructions(plus_const_expr(5), opts);
    ASSERT_TRUE(r && r->instr);
    EXPECT_FALSE(r->rule_hit);
}

TEST(Rules, FormatBumpAndCorruptionLoadAsEmpty)
{
    const std::string path = fresh_path("format");
    auto section = mine_hvx({solve_hvx(plus_const_expr(5))});
    std::string text = synth::rule_table_to_text({section});
    const std::string magic = "rake-rules 1";
    ASSERT_EQ(text.rfind(magic, 0), 0u);
    text.replace(0, magic.size(), "rake-rules 999");
    {
        std::ofstream os(path);
        os << text;
    }
    synth::RuleTable stale = synth::load_rule_table(path);
    EXPECT_TRUE(stale.invalid);
    EXPECT_EQ(stale.total_rules(), 0);

    const std::string garbage = fresh_path("garbage");
    {
        std::ofstream os(garbage);
        os << "not a rule table\n";
    }
    synth::RuleTable corrupt = synth::load_rule_table(garbage);
    EXPECT_TRUE(corrupt.invalid);
    EXPECT_EQ(corrupt.total_rules(), 0);

    // A missing file is simply empty — rules are only ever a fast
    // path, never an error.
    synth::RuleTable missing =
        synth::load_rule_table(fresh_path("missing"));
    EXPECT_FALSE(missing.invalid);
    EXPECT_EQ(missing.total_rules(), 0);
}

TEST(Rules, WarmRuleRunIsBitIdentical)
{
    // A mini-suite of distinct shapes; mine a table from their fresh
    // solutions, then re-select everything through the rules and
    // demand byte-identical programs with zero synthesis queries.
    std::vector<ExprPtr> suite = {
        plus_const_expr(5),
        times_const_expr(3),
        (cast(u16, load(0, u8, 64)) + cast(u16, load(0, u8, 64, 1)))
            .ptr(),
    };
    std::vector<synth::MinedPair> pairs;
    std::vector<std::string> cold;
    for (const ExprPtr &e : suite) {
        pairs.push_back(solve_hvx(e));
        cold.push_back(pairs.back().instr);
    }
    const std::string path = fresh_path("bit_identity");
    ASSERT_TRUE(synth::write_rule_table(path, {mine_hvx(pairs)}));

    for (size_t i = 0; i < suite.size(); ++i) {
        synth::RakeOptions opts;
        opts.use_cache = false;
        opts.rules_file = path;
        auto r = synth::select_instructions(suite[i], opts);
        ASSERT_TRUE(r && r->instr);
        EXPECT_TRUE(r->rule_hit) << "suite expr " << i;
        EXPECT_EQ(hvx::to_sexpr(r->instr), cold[i]) << "suite expr " << i;
        // A rule hit pays no synthesis stage at all.
        EXPECT_EQ(r->lift.total_queries(), 0);
        EXPECT_EQ(r->lower.sketch.queries, 0);
    }
}

TEST(Rules, GenericZ3ProvesHvxAndNeon)
{
    // HVX: the generic entry recovers the typed DAG and proves it.
    const ExprPtr e = plus_const_expr(5);
    const ExprPtr normalized = hir::simplify(e);
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto r = synth::select_instructions(e, opts);
    ASSERT_TRUE(r && r->instr);
    hvx::Target htarget;
    auto hvx_isa = backend::make_hvx_backend(htarget);
    synth::Spec spec = synth::Spec::from_expr(normalized);
    synth::ProofOutcome hvx_outcome = synth::z3_check(
        normalized, *hvx_isa, backend::InstrHandle(r->instr), spec);
    EXPECT_EQ(hvx_outcome.result, synth::ProofResult::Proved);

    // NEON: the same entry proves it through the Neon sexpr round
    // trip and the Neon lane semantics.
    neon::Target ntarget;
    auto neon_isa = backend::make_neon_backend(ntarget);
    auto nr = synth::select_instructions_for(e, *neon_isa, opts);
    ASSERT_TRUE(nr && nr->instr);
    synth::ProofOutcome neon_outcome =
        synth::z3_check(normalized, *neon_isa, nr->instr, spec);
    EXPECT_EQ(neon_outcome.result, synth::ProofResult::Proved);
}

TEST(Rules, NeonRulesAreZ3Proven)
{
    // Mining a NEON pair proves the rule with z3, as for HVX: the
    // prover runs the Neon lane semantics the interpreter runs.
    const ExprPtr e =
        (cast(u16, load(0, u8, 64)) + cast(u16, load(0, u8, 64, 1)))
            .ptr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    neon::Target target;
    auto isa = backend::make_neon_backend(target);
    auto r = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(r && r->instr);
    const std::string instr = isa->instr_to_sexpr(r->instr);
    ASSERT_FALSE(instr.empty());

    synth::MineStats stats;
    auto section = synth::mine_rules(
        *isa, isa->grammar_version(), isa->cost_model_version(),
        {{hir::to_sexpr(hir::simplify(e)), instr}},
        synth::MineOptions{}, &stats);
    EXPECT_EQ(stats.proved_z3, 1);
    ASSERT_EQ(section.rules.size(), 1u);
    EXPECT_EQ(section.rules[0].proof, "z3");
    EXPECT_EQ(stats.proved_eval, 0);

    // And the mined section answers the query through the backend
    // path with the identical program.
    const std::string path = fresh_path("neon_rules");
    ASSERT_TRUE(synth::write_rule_table(path, {section}));
    synth::RakeOptions ropts;
    ropts.use_cache = false;
    ropts.rules_file = path;
    neon::Target machine2;
    auto isa2 = backend::make_neon_backend(machine2);
    auto hit = synth::select_instructions_for(e, *isa2, ropts);
    ASSERT_TRUE(hit && hit->instr);
    EXPECT_TRUE(hit->rule_hit);
    EXPECT_EQ(isa2->instr_to_sexpr(hit->instr), instr);
}

TEST(Rules, NeonMiddleLaneErrorIsRefuted)
{
    // A vtbl that reads lane 2 twice differs from the load on lane 3
    // only, which a proof of the sampled lanes {0, 1, 4, 7} misses.
    // The miner proves every lane, so the pair is refuted, not shipped.
    neon::Target target;
    auto isa = backend::make_neon_backend(target);
    const synth::MinedPair bogus{
        hir::to_sexpr(hir::simplify(load(0, u8, 8).ptr())),
        "(vtbl u8x8 (vld1 u8x8 0 0 0) #0 #1 #2 #2 #4 #5 #6 #7)"};
    synth::MineStats stats;
    auto section = synth::mine_rules(*isa, isa->grammar_version(),
                                     isa->cost_model_version(), {bogus},
                                     synth::MineOptions{}, &stats);
    EXPECT_TRUE(section.rules.empty());
    EXPECT_EQ(stats.refuted, 1);
    EXPECT_EQ(stats.proved_z3 + stats.proved_eval, 0);
}

TEST(Rules, ResolveRulesFilePrecedence)
{
    ::unsetenv("RAKE_RULES");
    EXPECT_EQ(synth::resolve_rules_file("", false), "");
    EXPECT_EQ(synth::resolve_rules_file("explicit", false), "explicit");
    ::setenv("RAKE_RULES", "/from/env", 1);
    EXPECT_EQ(synth::resolve_rules_file("", false), "/from/env");
    EXPECT_EQ(synth::resolve_rules_file("explicit", false), "explicit");
    // --no-rules beats everything.
    EXPECT_EQ(synth::resolve_rules_file("explicit", true), "");
    EXPECT_EQ(synth::resolve_rules_file("", true), "");
    ::unsetenv("RAKE_RULES");
}

TEST(Rules, TableRoundTripsThroughText)
{
    auto section = mine_hvx(
        {solve_hvx(plus_const_expr(5)), solve_hvx(times_const_expr(3))});
    const std::string path = fresh_path("round_trip");
    ASSERT_TRUE(synth::write_rule_table(path, {section}));
    synth::RuleTable table = synth::load_rule_table(path);
    ASSERT_EQ(table.sections.size(), 1u);
    EXPECT_EQ(table.total_rules(),
              static_cast<int>(section.rules.size()));
    const auto *rules = table.rules_for("hvx", synth::kHvxGrammarVersion,
                                        synth::kHvxCostModelVersion);
    ASSERT_NE(rules, nullptr);
    for (size_t i = 0; i < rules->size(); ++i) {
        EXPECT_EQ((*rules)[i].lhs, section.rules[i].lhs);
        EXPECT_EQ((*rules)[i].rhs, section.rules[i].rhs);
        EXPECT_EQ((*rules)[i].holes.size(), section.rules[i].holes.size());
        EXPECT_EQ((*rules)[i].proof, section.rules[i].proof);
        EXPECT_EQ((*rules)[i].cost.scalar, section.rules[i].cost.scalar);
    }
}

} // namespace
} // namespace rake
