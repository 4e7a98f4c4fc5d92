/**
 * @file
 * Tests for the one reading discipline behind every text format read
 * from disk or the wire (support/parse.h, vec_type_from_string): the
 * checked integer parser and the line-record reader; values that do
 * not fit their destination in each s-expression format, and in the
 * cache entries, rule tables and payloads that carry them; and a
 * seeded mutation test over every format.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "base/arith.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hvx/interp.h"
#include "hvx/sexpr.h"
#include "neon/interp.h"
#include "neon/sexpr.h"
#include "serve/protocol.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/socket.h"
#include "support/structural.h"
#include "synth/persist.h"
#include "synth/rules.h"

namespace rake {
namespace {

namespace fs = std::filesystem;

std::string
scratch_path(const std::string &name)
{
    const fs::path p = fs::temp_directory_path() /
                       ("rake_parse_test_" + std::to_string(::getpid()) +
                        "_" + name);
    fs::remove_all(p);
    return p.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** The message of the UserError `fn` throws, or "" if it throws none. */
std::string
user_error(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const UserError &e) {
        return e.what();
    }
    return "";
}

TEST(Parse, IntegersMustFitTheirDestination)
{
    EXPECT_EQ(parse_int("42", "v", 0, 100), 42);
    EXPECT_EQ(parse_int("+7", "v", 0, 100), 7);
    EXPECT_EQ(parse_int("-7", "v", -10, 10), -7);
    EXPECT_EQ(parse_int_as<int>("2147483647", "v"), INT_MAX);
    EXPECT_EQ(parse_int_as<int>("-2147483648", "v"), INT_MIN);
    EXPECT_EQ(parse_int_as<int64_t>("-9223372036854775808", "v"),
              INT64_MIN);
    EXPECT_THROW(parse_int_as<int>("2147483648", "v"), UserError);
    EXPECT_THROW(parse_int_as<int>("-2147483649", "v"), UserError);
    EXPECT_THROW(parse_int_as<int64_t>("9223372036854775808", "v"),
                 UserError);
    EXPECT_THROW(parse_int_as<int>(std::string(25, '9'), "v"), UserError);
    EXPECT_THROW(parse_int("", "v", 0, 1), UserError);
    EXPECT_THROW(parse_int("4abc", "v", 0, 100), UserError);
    EXPECT_THROW(parse_int(std::string("5\0", 2), "v", 0, 100),
                 UserError);
    EXPECT_THROW(parse_int("101", "v", 0, 100), UserError);
    EXPECT_NE(user_error([] { parse_int("4294967304", "lane count", 1,
                                        INT_MAX); })
                  .find("lane count must be in [1, 2147483647]"),
              std::string::npos);
}

TEST(Parse, VecTypeFromStringInvertsToString)
{
    for (int e = 0; e <= static_cast<int>(ScalarType::UInt64); ++e) {
        for (int lanes : {1, 2, 64, 128}) {
            const VecType t(static_cast<ScalarType>(e), lanes);
            EXPECT_EQ(vec_type_from_string(to_string(t)), t)
                << to_string(t);
        }
    }
    EXPECT_EQ(vec_type_from_string("u16x1"), VecType(ScalarType::UInt16, 1));
    for (const char *bad : {"u8x0", "u8x-1", "u8x", "q8x8", "u8x8x8",
                            "u8x4294967304", "", "x8"})
        EXPECT_THROW(vec_type_from_string(bad), UserError) << bad;
}

TEST(Parse, LineReaderNamesItsFormat)
{
    {
        LineReader r("magic 1\nflag\nend\n", "rule table");
        EXPECT_EQ(r.take("magic"), "1");
        EXPECT_TRUE(r.peek_is("flag"));
        EXPECT_FALSE(r.peek_is("fla"));
        r.take_bare("flag");
        r.take_bare("end");
        r.done();
    }
    LineReader cut("magic 1\n", "cache entry");
    cut.take("magic");
    EXPECT_EQ(user_error([&] { cut.take("status"); }),
              "rake: truncated cache entry at field: status");
    LineReader extra("end\njunk\n", "payload");
    extra.take_bare("end");
    EXPECT_EQ(user_error([&] { extra.done(); }),
              "rake: trailing data after payload");
    EXPECT_EQ(split_ws(" a  b\tc "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(is_single_line("(vmem u8x8 0 0 0)"));
    EXPECT_FALSE(is_single_line("a\nend"));
}

TEST(Parse, ValuesPastTheirDestinationAreUserErrors)
{
    // Each of these used to be cast into an int: a lane count of
    // 4294967304 read as 8, a buffer id of 4294967296 as 0.
    EXPECT_THROW(hir::parse_expr("(load u8x4294967304 0 0 0)"), UserError);
    EXPECT_THROW(hvx::parse_instr("(vmem u8x4294967304 0 0 0)"),
                 UserError);
    EXPECT_THROW(hvx::parse_instr("(vmem u8x8 4294967296 0 0)"),
                 UserError);
    EXPECT_THROW(neon::parse_instr("(vld1 u8x8 0 4294967297 0)"),
                 UserError);
    EXPECT_THROW(hir::parse_expr("(broadcast 4294967304 (var u8 x))"),
                 UserError);
    EXPECT_THROW(hir::parse_expr("(const u8x8 99999999999999999999)"),
                 UserError);
    // Offsets that fit an int but not kMaxOffset: the HIR hash used to
    // multiply them, and the interpreters add them to coordinates, in
    // int.
    EXPECT_THROW(hir::parse_expr("(load u8x8 0 2147483647 0)"), UserError);
    EXPECT_THROW(hvx::parse_instr("(vmem u8x8 0 2147483647 0)"), UserError);
    EXPECT_THROW(neon::parse_instr("(vld1 u8x8 0 0 -2147483648)"),
                 UserError);
    const std::string past = std::to_string(kMaxOffset + 1);
    const std::string edge = std::to_string(kMaxOffset);
    EXPECT_THROW(hir::parse_expr("(load u8x8 0 0 -" + past + ")"),
                 UserError);
    EXPECT_NO_THROW(hir::parse_expr("(load u8x8 0 -" + edge + " 0)"));
    EXPECT_NO_THROW(hvx::parse_instr("(vmem u8x8 0 0 " + edge + ")"));
    // The in-range spellings still read.
    EXPECT_EQ(hir::to_sexpr(hir::parse_expr("(load u8x8 0 0 0)")),
              "(load u8x8 0 0 0)");
    EXPECT_EQ(hvx::to_sexpr(hvx::parse_instr("(vmem u8x8 -1 2 3)")),
              "(vmem u8x8 -1 2 3)");
}

TEST(Parse, NestingPastTheDepthLimitIsAUserError)
{
    // 100,000 '(' fit in one served frame, and the reader recurses once
    // per '(': past the limit it must refuse, not overflow the stack.
    const std::string deep(100000, '(');
    for (const auto &parse : std::vector<std::function<void()>>{
             [&] { hir::parse_expr(deep); },
             [&] { hvx::parse_instr(deep); },
             [&] { neon::parse_instr(deep); }}) {
        const std::string why = user_error(parse);
        EXPECT_NE(why.find("nests deeper than"), std::string::npos) << why;
    }
    // The limit itself still reads.
    const auto nested = [](int depth) {
        return std::string(depth, '(') + std::string(depth, ')');
    };
    EXPECT_NO_THROW(hir::parse_sexpr(nested(hir::kMaxSexprDepth)));
    EXPECT_THROW(hir::parse_sexpr(nested(hir::kMaxSexprDepth + 1)),
                 UserError);
}

TEST(Parse, LaneCountsPastTheCeilingAreUserErrors)
{
    const std::string past = std::to_string(kMaxLanes + 1);
    EXPECT_THROW(hir::parse_expr("(load u8x" + past + " 0 0 0)"), UserError);
    EXPECT_THROW(hvx::parse_instr("(vmem u8x" + past + " 0 0 0)"), UserError);
    EXPECT_THROW(neon::parse_instr("(vld1 u8x" + past + " 0 0 0)"), UserError);
    EXPECT_THROW(hir::parse_expr("(broadcast " + past + " (var u8 x))"),
                 UserError);
    EXPECT_THROW(hir::Expr::make_broadcast(
                     hir::Expr::make_var("x", VecType(ScalarType::UInt8, 1)),
                     kMaxLanes + 1),
                 UserError);
    // Each half's lane count is past the ceiling, so the vcombine
    // typing never computes `2 * L` from it.
    EXPECT_THROW(hvx::parse_instr("(vcombine u8x8 (vmem u8x1073741824 0 0 0) "
                                  "(vmem u8x1073741824 0 0 0))"),
                 UserError);
    // Ops that grow lanes refuse a result past the ceiling.
    const VecType half(ScalarType::UInt8, kMaxLanes / 2);
    const VecType full(ScalarType::UInt32, kMaxLanes);
    const hvx::InstrPtr h = hvx::Instr::make_read({0, 0, 0}, half);
    EXPECT_NO_THROW(hvx::Instr::make(hvx::Opcode::VCombine, {h, h}));
    const hvx::InstrPtr c = hvx::Instr::make(hvx::Opcode::VCombine, {h, h});
    EXPECT_THROW(hvx::Instr::make(hvx::Opcode::VCombine, {c, c}), UserError);
    EXPECT_THROW(hvx::Instr::make(hvx::Opcode::VBitcast,
                                  {hvx::Instr::make_read({0, 0, 0}, full)},
                                  {}, ScalarType::UInt8),
                 UserError);
    const neon::NInstrPtr n = neon::NInstr::make_read(
        {0, 0, 0}, VecType(ScalarType::UInt8, kMaxLanes));
    EXPECT_THROW(neon::NInstr::make(neon::NOp::Combine, {n, n}), UserError);
    // A lane-wise Neon op reads lane i of every operand for its lane i,
    // so an operand with fewer lanes than the result is refused rather
    // than read past its end.
    for (const char *short_operand :
         {"(vcgt i8x8 (vld1 i16x8 0 0 0) (vld1 i16x2 0 0 0))",
          "(vceq i8x8 (vld1 i16x2 0 0 0) (vld1 i16x8 0 0 0))",
          "(vmull u16x8 (vld1 u8x8 0 0 0) (vld1 u8x2 0 0 0))",
          "(vmla u8x8 (vld1 u8x8 0 0 0) (vld1 u8x8 0 0 0) (vld1 u8x2 0 0 0))",
          "(vmlal u16x8 (vld1 u16x8 0 0 0) (vld1 u8x8 0 0 0) "
          "(vld1 u8x2 0 0 0))",
          "(vbsl u8x8 (vld1 i8x2 0 0 0) (vld1 u8x8 0 0 0) (vld1 u8x8 0 0 0))"})
        EXPECT_THROW(neon::parse_instr(short_operand), UserError)
            << short_operand;
    EXPECT_NO_THROW(
        neon::parse_instr("(vcgt i8x8 (vld1 i16x8 0 0 0) (vld1 i16x8 0 0 0))"));
    // The ceiling itself still reads.
    const std::string at = std::to_string(kMaxLanes);
    EXPECT_EQ(hvx::to_sexpr(hvx::parse_instr("(vmem u8x" + at + " 0 0 0)")),
              "(vmem u8x" + at + " 0 0 0)");
}

TEST(Parse, OneLaneProgramsRoundTrip)
{
    // Both printers write a one-lane type as its bare element type.
    const VecType u8x1(ScalarType::UInt8, 1);
    const std::string hvx_text =
        hvx::to_sexpr(hvx::Instr::make_read({0, 0, 0}, u8x1));
    EXPECT_EQ(hvx_text, "(vmem u8 0 0 0)");
    EXPECT_EQ(hvx::to_sexpr(hvx::parse_instr(hvx_text)), hvx_text);
    const std::string neon_text =
        neon::to_sexpr(neon::NInstr::make_read({0, 0, 0}, u8x1));
    EXPECT_EQ(neon::to_sexpr(neon::parse_instr(neon_text)), neon_text);
}

TEST(Parse, ProtocolTimeoutMustFitAnInt)
{
    const auto request = [](const std::string &timeout) {
        return "rake-req 1\nid 1\nop select\nbackend hvx\ntimeout-ms " +
               timeout + "\nexpr (load u8x8 0 0 0)\nend\n";
    };
    EXPECT_EQ(serve::parse_request(request("2147483647")).timeout_ms,
              INT_MAX);
    // One past INT_MAX used to be accepted and cast to INT_MIN.
    EXPECT_THROW(serve::parse_request(request("2147483648")), UserError);
    EXPECT_THROW(
        serve::parse_request("rake-req 1\nid 99999999999999999999\n"
                             "op ping\nend\n"),
        UserError);
}

/** Both backends, and the key the cache-entry tests store under. */
struct StoredEntry {
    hvx::Target hvx_target;
    neon::Target neon_target;
    std::unique_ptr<backend::TargetISA> hvx_isa =
        backend::make_hvx_backend(hvx_target);
    std::unique_ptr<backend::TargetISA> neon_isa =
        backend::make_neon_backend(neon_target);
    hir::ExprPtr expr = hir::parse_expr("(load u8x8 0 0 0)");
    uint64_t fp = 0x1234;

    static synth::BackendRakeResult
    result(const backend::TargetISA &isa, const std::string &instr)
    {
        synth::BackendRakeResult res;
        res.instr = isa.instr_from_sexpr(instr);
        res.lift.update.queries = 3;
        res.lower.sketch.seconds = 0.125;
        res.proof = synth::ProofResult::Proved;
        return res;
    }
};

TEST(Parse, CacheEntryWithAnOutOfRangeInstrIsInvalid)
{
    StoredEntry s;
    synth::PersistentStore store(scratch_path("entries"));
    const std::pair<const backend::TargetISA *, std::vector<std::string>>
        cases[] = {
            {s.hvx_isa.get(),
             {"(vmem u8x4294967304 0 0 0)", "(vmem u8x8 4294967296 0 0)",
              "(vmem u8x65537 0 0 0)", std::string(2000, '(')}},
            {s.neon_isa.get(),
             {"(vld1 u8x8 0 4294967297 0)", "(vld1 u8x65537 0 0 0)"}},
        };
    for (const auto &[isa, bad_instrs] : cases) {
        const std::string good =
            isa->name() == "hvx" ? "(vmem u8x8 0 0 0)" : "(vld1 u8x8 0 0 0)";
        ASSERT_TRUE(store.store_backend(s.expr, s.fp, *isa,
                                        StoredEntry::result(*isa, good)));
        const std::string path = store.entry_path(isa->name(), s.expr, s.fp);
        const std::string text = slurp(path);
        const synth::DiskLookup hit = store.load_backend(s.expr, s.fp, *isa);
        ASSERT_TRUE(hit.hit && hit.result) << isa->name();
        for (const std::string &bad : bad_instrs) {
            std::string mutant = text;
            const size_t at = mutant.find("instr " + good);
            ASSERT_NE(at, std::string::npos);
            mutant.replace(at + 6, good.size(), bad);
            spit(path, mutant);
            const int64_t invalid = store.stats().invalid;
            const synth::DiskLookup got =
                store.load_backend(s.expr, s.fp, *isa);
            EXPECT_FALSE(got.hit) << bad;
            EXPECT_TRUE(got.invalid) << bad;
            EXPECT_EQ(store.stats().invalid, invalid + 1) << bad;
        }
    }
}

/** A section of hand-written (lhs, rhs) rules; a rule whose lhs
 *  names ?h0 gets one u8 const hole. */
synth::RuleTable::Section
section(const std::string &backend, int grammar, int cost_model,
        const std::vector<std::pair<std::string, std::string>> &rules)
{
    synth::RuleTable::Section s;
    s.backend = backend;
    s.grammar = grammar;
    s.cost_model = cost_model;
    for (const auto &[lhs, rhs] : rules) {
        synth::Rule r;
        r.lhs = lhs;
        r.rhs = rhs;
        r.proof = "z3";
        r.cost = {1, 1, 1};
        if (lhs.find("?h0") != std::string::npos)
            r.holes.push_back({synth::RuleHole::Kind::Const, "u8"});
        s.rules.push_back(std::move(r));
    }
    return s;
}

/** One HVX and one Neon section, one of whose rules has a hole. */
std::vector<synth::RuleTable::Section>
sample_rules()
{
    return {
        section("hvx", synth::kHvxGrammarVersion,
                synth::kHvxCostModelVersion,
                {{"(load u8x8 0 0 0)", "(vmem u8x8 0 0 0)"},
                 {"(add (load u8x8 0 0 0) (const u8x8 ?h0))",
                  "(vadd u8x8 (vmem u8x8 0 0 0) (vsplat u8x8 (const u8 "
                  "?h0)))"}}),
        section("neon", 2, 2, {{"(load u8x8 0 1 0)", "(vld1 u8x8 0 1 0)"}}),
    };
}

TEST(Parse, RuleTableWithAnOutOfRangeSideFailsToLoad)
{
    const std::string good_path = scratch_path("good.rules");
    spit(good_path, synth::rule_table_to_text(sample_rules()));
    const synth::RuleTable good = synth::load_rule_table(good_path);
    EXPECT_FALSE(good.invalid);
    EXPECT_EQ(good.total_rules(), 3);

    const std::vector<std::pair<std::string, synth::RuleTable::Section>>
        bad = {
            {"hvx-lanes", section("hvx", 2, 2,
                                  {{"(load u8x8 0 0 0)",
                                    "(vmem u8x4294967304 0 0 0)"}})},
            {"hvx-buffer", section("hvx", 2, 2,
                                   {{"(load u8x8 0 0 0)",
                                     "(vmem u8x8 4294967296 0 0)"}})},
            {"neon-dx", section("neon", 2, 2,
                                {{"(load u8x8 0 0 0)",
                                  "(vld1 u8x8 0 4294967297 0)"}})},
            {"hir-lanes", section("hvx", 2, 2,
                                  {{"(load u8x4294967304 0 0 0)",
                                    "(vmem u8x8 0 0 0)"}})},
            {"hvx-ceiling", section("hvx", 2, 2,
                                    {{"(load u8x8 0 0 0)",
                                      "(vmem u8x65537 0 0 0)"}})},
            {"neon-ceiling", section("neon", 2, 2,
                                     {{"(load u8x8 0 0 0)",
                                       "(vld1 u8x65537 0 0 0)"}})},
            {"hir-ceiling", section("hvx", 2, 2,
                                    {{"(load u8x65537 0 0 0)",
                                      "(vmem u8x8 0 0 0)"}})},
        };
    for (const auto &[name, sec] : bad) {
        const std::string path = scratch_path(name + ".rules");
        spit(path, synth::rule_table_to_text({sec}));
        const synth::RuleTable table = synth::load_rule_table(path);
        EXPECT_TRUE(table.invalid) << name;
        EXPECT_EQ(table.total_rules(), 0) << name;
    }
}

// ---------------------------------------------------------------------
// Seeded mutation test. Every mutant of every format must parse or
// throw UserError (an invalid entry or table for the two formats whose
// readers absorb it); anything else fails the test, and the sanitizer
// builds turn a memory error or UB into a failure too. A mutant that
// parses must print to text that parses back to the same text, and an
// instruction mutant that parses is evaluated once by the shared
// interpreter, so a typing rule that admits an operand the lane
// functions would read out of bounds fails here too.

constexpr uint64_t kMutationSeed = 20261019;

/** Deterministic mutants of a seed set. */
class Mutator
{
  public:
    Mutator(std::vector<std::string> seeds, uint64_t seed)
        : seeds_(std::move(seeds)), rng_(seed)
    {
    }

    std::string
    next()
    {
        std::string s = pick();
        switch (rng_.range(0, 3)) {
          case 0: { // flip one to four bytes
            const int flips = static_cast<int>(rng_.range(1, 4));
            for (int k = 0; k < flips && !s.empty(); ++k)
                s[at(s.size() - 1)] = static_cast<char>(rng_.range(0, 255));
            break;
          }
          case 1: // truncate
            s.resize(at(s.size()));
            break;
          case 2: { // splice: a prefix of one seed, a suffix of another
            const std::string &other = pick();
            s = s.substr(0, at(s.size())) + other.substr(at(other.size()));
            break;
          }
          default: { // a digit run past int, or past int64
            std::vector<std::pair<size_t, size_t>> runs;
            for (size_t i = 0; i < s.size();) {
                size_t j = i;
                while (j < s.size() && s[j] >= '0' && s[j] <= '9')
                    ++j;
                if (j > i)
                    runs.emplace_back(i, j - i);
                i = j > i ? j : i + 1;
            }
            if (runs.empty())
                break;
            const auto [begin, len] = runs[at(runs.size() - 1)];
            s.replace(begin, len,
                      rng_.chance(1, 2) ? "4294967304" : std::string(25, '9'));
            break;
          }
        }
        return s;
    }

  private:
    size_t
    at(size_t hi)
    {
        return static_cast<size_t>(rng_.range(0, static_cast<int64_t>(hi)));
    }

    const std::string &
    pick()
    {
        return seeds_[at(seeds_.size() - 1)];
    }

    std::vector<std::string> seeds_;
    Rng rng_;
};

using Read = std::function<std::optional<std::string>(const std::string &)>;

/** Runs a parsed text once; false when it skips the text. */
using Run = std::function<bool(const std::string &)>;

/**
 * Run `count` mutants of `seeds` through `read`, which returns the
 * printed form of what it parsed, or nullopt for a rejection it
 * absorbed; a UserError is a rejection too. Every printed form must
 * read back to itself, and every mutant that parses goes once
 * through `run`, when given, which must not throw.
 */
void
mutate_format(const std::string &format,
              const std::vector<std::string> &seeds, int count,
              const Read &read, const Run &run = nullptr)
{
    for (const std::string &seed : seeds) {
        std::optional<std::string> printed;
        EXPECT_NO_THROW(printed = read(seed)) << format << " seed: " << seed;
        EXPECT_TRUE(printed.has_value()) << format << " seed: " << seed;
    }
    Mutator mutator(seeds, kMutationSeed);
    int parsed = 0;
    int ran = 0;
    for (int i = 0; i < count; ++i) {
        const std::string mutant = mutator.next();
        std::optional<std::string> printed;
        try {
            printed = read(mutant);
        } catch (const UserError &) {
        }
        if (!printed)
            continue;
        ++parsed;
        if (run) {
            try {
                ran += run(mutant);
            } catch (const std::exception &e) {
                ADD_FAILURE() << format << " mutant " << i
                              << " parsed but does not run: " << e.what()
                              << "\nmutant: " << mutant;
            }
        }
        std::optional<std::string> again;
        try {
            again = read(*printed);
        } catch (const UserError &e) {
            ADD_FAILURE() << format << " mutant " << i
                          << " printed text that does not parse: "
                          << e.what() << "\nmutant: " << mutant
                          << "\nprinted: " << *printed;
            continue;
        }
        EXPECT_EQ(again, printed)
            << format << " mutant " << i << ": " << mutant;
    }
    std::cout << format << ": " << count << " mutants, " << parsed
              << " parsed";
    if (run)
        std::cout << ", " << ran << " evaluated";
    std::cout << "\n";
    // Both outcomes occur, or the mutations are too tame to test.
    EXPECT_GT(parsed, 0) << format;
    EXPECT_LT(parsed, count) << format;
}

std::vector<std::string>
lines_of(const std::string &path)
{
    std::ifstream is(path);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            out.push_back(line);
    return out;
}

/** The expression of each reproducer under tests/corpus/, notes dropped. */
std::vector<std::string>
corpus_exprs()
{
    std::vector<std::string> out;
    for (const auto &entry :
         fs::directory_iterator(std::string(RAKE_TESTS_DIR) + "/corpus")) {
        if (entry.path().extension() != ".sexpr")
            continue;
        std::string body;
        for (const std::string &line : lines_of(entry.path().string()))
            if (line[0] != ';')
                body += line;
        out.push_back(body);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
golden(const std::string &name)
{
    return std::string(RAKE_TESTS_DIR) + "/golden/" + name;
}

TEST(ParseMutation, HirSexpressions)
{
    mutate_format("hir sexpr", corpus_exprs(), 3000, [](const std::string &t) {
        return std::optional(hir::to_sexpr(hir::parse_expr(t)));
    });
}

/**
 * Adds a buffer `id` of element type `elem` to `env`, or checks that
 * the one there has that type. The cells differ from lane to lane and
 * take the type's extremes; every read clamps into the buffer.
 */
bool
add_buffer(Env &env, int id, ScalarType elem)
{
    auto it = env.buffers.find(id);
    if (it != env.buffers.end())
        return it->second.elem == elem;
    Buffer b(elem, 40, 3, -20, -1);
    for (size_t i = 0; i < b.data.size(); ++i) {
        const int64_t pick[] = {min_value(elem), max_value(elem), 0, 1,
                                static_cast<int64_t>(i) * 37 - 500};
        b.data[i] = wrap(elem, pick[i % 5]);
    }
    env.buffers.emplace(id, std::move(b));
    return true;
}

/** Adds what HIR expression `e` reads to `env`; see add_buffer. */
bool
add_reads(Env &env, const hir::ExprPtr &e)
{
    if (e->op() == hir::Op::Load)
        return add_buffer(env, e->load_ref().buffer, e->type().elem);
    if (e->op() == hir::Op::Var)
        env.scalars[e->var_name()] = -3;
    for (const auto &a : e->args())
        if (!add_reads(env, a))
            return false;
    return true;
}

/**
 * Parses `text` and evaluates it once through the shared interpreter,
 * on an env holding every buffer and scalar the program reads; false,
 * without evaluating, for a program that reads one buffer at two
 * element types.
 */
template <typename Traits>
bool
evaluate_once(const std::string &text)
{
    const auto root = isa::parse_instr<Traits>(text);
    Env env;
    bool typed = true;
    for_each_distinct_node(*root, [&](const isa::Node<Traits> &n) {
        if (n.op() == Traits::kRead)
            typed = typed && add_buffer(env, n.load_ref().buffer,
                                        n.type().elem);
        if (n.op() == Traits::kSplat)
            typed = typed && add_reads(env, n.splat_value());
    });
    if (!typed)
        return false;
    isa::evaluate(root, env);
    return true;
}

TEST(ParseMutation, HvxSexpressions)
{
    const std::vector<std::string> seeds =
        lines_of(golden("table1_selections.txt"));
    for (const std::string &line : seeds)
        EXPECT_EQ(hvx::to_sexpr(hvx::parse_instr(line)), line);
    mutate_format(
        "hvx sexpr", seeds, 3000,
        [](const std::string &t) {
            return std::optional(hvx::to_sexpr(hvx::parse_instr(t)));
        },
        evaluate_once<hvx::Traits>);
}

TEST(ParseMutation, NeonSexpressions)
{
    const std::vector<std::string> seeds =
        lines_of(golden("table1_neon_selections.txt"));
    for (const std::string &line : seeds)
        EXPECT_EQ(neon::to_sexpr(neon::parse_instr(line)), line);
    mutate_format(
        "neon sexpr", seeds, 3000,
        [](const std::string &t) {
            return std::optional(neon::to_sexpr(neon::parse_instr(t)));
        },
        evaluate_once<neon::Traits>);
}

TEST(ParseMutation, CacheEntries)
{
    // The entry store_backend writes for one golden HVX selection; a
    // mutant is read by load_backend from the entry's own path, and a
    // hit is printed by storing it again.
    StoredEntry s;
    synth::PersistentStore store(scratch_path("mutated_entries"));
    const std::string path = store.entry_path("hvx", s.expr, s.fp);
    const auto print = [&](const std::optional<synth::BackendRakeResult> &r) {
        EXPECT_TRUE(store.store_backend(s.expr, s.fp, *s.hvx_isa, r));
        return slurp(path);
    };
    const std::string seed = print(StoredEntry::result(
        *s.hvx_isa, lines_of(golden("table1_selections.txt"))[0]));
    mutate_format("cache entry", {seed}, 1500, [&](const std::string &t) {
        spit(path, t);
        const synth::DiskLookup got =
            store.load_backend(s.expr, s.fp, *s.hvx_isa);
        EXPECT_NE(got.hit, got.invalid);
        return got.hit ? std::optional(print(got.result)) : std::nullopt;
    });
}

TEST(ParseMutation, RuleTables)
{
    const std::string path = scratch_path("mutated.rules");
    const auto read = [&](const std::string &t) {
        spit(path, t);
        const synth::RuleTable table = synth::load_rule_table(path);
        return table.invalid ? std::nullopt
                             : std::optional(synth::rule_table_to_text(
                                   table.sections));
    };
    mutate_format("rule table", {synth::rule_table_to_text(sample_rules())},
                  1500, read);
}

/** The payload of every frame the protocol corpus decodes. */
std::vector<std::string>
corpus_payloads(std::vector<std::string> *frames)
{
    std::vector<std::string> payloads;
    for (const auto &entry : fs::directory_iterator(
             std::string(RAKE_TESTS_DIR) + "/corpus/protocol")) {
        const std::string bytes = slurp(entry.path().string());
        frames->push_back(bytes);
        FrameReader reader;
        reader.feed(bytes.data(), bytes.size());
        std::string payload, error;
        while (reader.next(&payload, &error) == FrameReader::Status::Frame)
            payloads.push_back(payload);
    }
    std::sort(payloads.begin(), payloads.end());
    std::sort(frames->begin(), frames->end());
    return payloads;
}

TEST(ParseMutation, ProtocolPayloads)
{
    std::vector<std::string> frames;
    std::vector<std::string> requests;
    for (const std::string &p : corpus_payloads(&frames))
        if (user_error([&] { serve::parse_request(p); }).empty())
            requests.push_back(p);
    ASSERT_FALSE(requests.empty());
    mutate_format("request payload", requests, 3000, [](const std::string &t) {
        return std::optional(serve::encode_request(serve::parse_request(t)));
    });

    serve::Response ok;
    ok.id = 7;
    ok.degraded = true;
    ok.tier = "disk";
    ok.instr = "(vmem u8x8 0 0 0)";
    serve::Response err;
    err.id = 8;
    err.status = "protocol_error";
    err.error = "bad frame";
    serve::Response metrics;
    metrics.id = 9;
    metrics.metrics_json = "{\"requests\":1}";
    mutate_format("response payload",
                  {serve::encode_response(ok), serve::encode_response(err),
                   serve::encode_response(metrics)},
                  3000, [](const std::string &t) {
                      return std::optional(
                          serve::encode_response(serve::parse_response(t)));
                  });

    // Whole frames through the decoder and the request parser: the
    // drill reports every failure in its fields and never throws.
    Mutator mutator(frames, kMutationSeed);
    for (int i = 0; i < 3000; ++i) {
        const std::string mutant = mutator.next();
        EXPECT_NO_THROW(serve::drill_frames(mutant)) << mutant;
    }
}

} // namespace
} // namespace rake
