/**
 * @file
 * Tests for the persistent (on-disk) synthesis-cache tier
 * (synth/persist.h): cold-write/warm-read round trips that are
 * bit-identical down to the hexfloat stats seconds, version-key
 * self-invalidation, corrupt/truncated entries degrading to misses,
 * concurrent writers under the atomic-rename protocol, the
 * never-persist rules for timed-out queries, one entry layout shared
 * by the compile and serving paths, and the options-fingerprint
 * audit that keeps the disk key honest.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "backend/hvx_backend.h"
#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hir/simplify.h"
#include "hvx/sexpr.h"
#include "pipeline/compiler.h"
#include "support/deadline.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/rake.h"

namespace rake {
namespace {

namespace fs = std::filesystem;
using namespace rake::hir;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

/** A fast-to-synthesize two-tap average. */
ExprPtr
average_expr(int lanes = 64)
{
    return cast(u8, (cast(u16, load(0, u8, lanes)) +
                     cast(u16, load(0, u8, lanes, 1)) + 1) >>
                        1)
        .ptr();
}

/**
 * A fresh cache directory per test. Stores are process-lifetime
 * singletons keyed by path, so distinct paths keep per-test stats
 * independent.
 */
std::string
fresh_dir(const std::string &name)
{
    const std::string dir = "/tmp/rake_persist_test_" +
                            std::to_string(::getpid()) + "_" + name;
    fs::remove_all(dir);
    return dir;
}

std::vector<fs::path>
entry_files(const std::string &dir)
{
    std::vector<fs::path> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".rakecache")
            out.push_back(e.path());
    return out;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const fs::path &p, const std::string &text)
{
    std::ofstream os(p, std::ios::trunc);
    os << text;
}

/**
 * An entry with the wall-clock seconds (the last field of each stage
 * stats line) blanked out — everything else in an entry is
 * deterministic across resynthesis of the same key.
 */
std::string
strip_seconds(const std::string &text)
{
    std::istringstream is(text);
    std::ostringstream os;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("lift-", 0) == 0 ||
            line.rfind("sketch ", 0) == 0 ||
            line.rfind("swizzle ", 0) == 0)
            line.erase(line.find_last_of(' '));
        os << line << '\n';
    }
    return os.str();
}

TEST(Persist, ColdWriteWarmReadBitIdentical)
{
    const std::string dir = fresh_dir("roundtrip");
    const ExprPtr e = average_expr();

    synth::RakeOptions opts;
    opts.use_cache = false; // isolate the disk tier
    opts.cache_dir = dir;

    auto cold = synth::select_instructions(e, opts);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->disk_hit);
    ASSERT_EQ(entry_files(dir).size(), 1u);

    auto warm = synth::select_instructions(e, opts);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->disk_hit);
    EXPECT_FALSE(warm->cache_hit);
    EXPECT_EQ(warm->status, synth::SynthStatus::Ok);
    EXPECT_FALSE(warm->degraded);
    // The UIR intermediate is deliberately not persisted.
    EXPECT_EQ(warm->lifted, nullptr);

    // The selected program round-trips exactly...
    ASSERT_NE(warm->instr, nullptr);
    EXPECT_EQ(hvx::to_sexpr(cold->instr), hvx::to_sexpr(warm->instr));
    // ...and so do the Table 1 statistics, bit-for-bit (hexfloat).
    EXPECT_EQ(cold->lift.update.queries, warm->lift.update.queries);
    EXPECT_EQ(cold->lift.update.seconds, warm->lift.update.seconds);
    EXPECT_EQ(cold->lift.replace.seconds, warm->lift.replace.seconds);
    EXPECT_EQ(cold->lift.extend.seconds, warm->lift.extend.seconds);
    EXPECT_EQ(cold->lower.sketch.queries, warm->lower.sketch.queries);
    EXPECT_EQ(cold->lower.sketch.seconds, warm->lower.sketch.seconds);
    EXPECT_EQ(cold->lower.swizzle.queries, warm->lower.swizzle.queries);
    EXPECT_EQ(cold->lower.swizzle.seconds, warm->lower.swizzle.seconds);
    EXPECT_EQ(cold->lower.backtracks, warm->lower.backtracks);
    EXPECT_EQ(cold->proof, warm->proof);

    const auto stats = synth::persistent_store(dir)->stats();
    EXPECT_EQ(stats.writes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.invalid, 0);
}

TEST(Persist, ExactDoubleRoundTripThroughHexfloat)
{
    const std::string dir = fresh_dir("hexfloat");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto isa = backend::make_hvx_backend(opts.target);
    auto base = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(base.has_value());

    // Seconds values that decimal formatting would mangle.
    synth::BackendRakeResult doctored = *base;
    doctored.lift.update.seconds = 0.1;
    doctored.lift.replace.seconds = 1.0 / 3.0;
    doctored.lift.extend.seconds = 1e-300;
    doctored.lower.sketch.seconds = 6.02214076e23;
    doctored.lower.swizzle.seconds = 5e-324; // smallest denormal

    auto *store = synth::persistent_store(dir);
    const ExprPtr normalized = hir::simplify(e);
    const uint64_t fp = synth::options_fingerprint(opts);
    ASSERT_TRUE(store->store_backend(normalized, fp, *isa, doctored));
    auto loaded = store->load_backend(normalized, fp, *isa);
    ASSERT_TRUE(loaded.hit);
    ASSERT_TRUE(loaded.result.has_value());
    EXPECT_EQ(loaded.result->lift.update.seconds, 0.1);
    EXPECT_EQ(loaded.result->lift.replace.seconds, 1.0 / 3.0);
    EXPECT_EQ(loaded.result->lift.extend.seconds, 1e-300);
    EXPECT_EQ(loaded.result->lower.sketch.seconds, 6.02214076e23);
    EXPECT_EQ(loaded.result->lower.swizzle.seconds, 5e-324);
}

TEST(Persist, NoSolutionOutcomeRoundTrips)
{
    const std::string dir = fresh_dir("nosolution");
    const ExprPtr normalized = hir::simplify(average_expr());
    auto *store = synth::persistent_store(dir);
    auto isa = backend::make_hvx_backend(hvx::Target{});

    // A deterministic "no solution" is as cacheable as a success:
    // stored as an entry whose payload is nullopt, distinct from a
    // plain miss.
    ASSERT_TRUE(store->store_backend(normalized, 7, *isa, std::nullopt));
    auto loaded = store->load_backend(normalized, 7, *isa);
    EXPECT_TRUE(loaded.hit);
    EXPECT_FALSE(loaded.invalid);
    EXPECT_FALSE(loaded.result.has_value());

    // A different fingerprint is a miss, not a hit and not invalid.
    auto miss = store->load_backend(normalized, 8, *isa);
    EXPECT_FALSE(miss.hit);
    EXPECT_FALSE(miss.invalid);
}

TEST(Persist, VersionKeyBumpInvalidatesAndResynthesizes)
{
    const std::string dir = fresh_dir("version");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;

    auto cold = synth::select_instructions(e, opts);
    ASSERT_TRUE(cold.has_value());
    const auto files = entry_files(dir);
    ASSERT_EQ(files.size(), 1u);

    // Simulate yesterday's cache surviving a grammar bump: rewrite
    // the entry's version line in place.
    const std::string current =
        "grammar " + std::to_string(synth::kHvxGrammarVersion) + "\n";
    std::string text = slurp(files[0]);
    const size_t pos = text.find(current);
    ASSERT_NE(pos, std::string::npos);
    spit(files[0], text.replace(pos, current.size(), "grammar 0\n"));

    const auto before = synth::persistent_store(dir)->stats();
    auto again = synth::select_instructions(e, opts);
    ASSERT_TRUE(again.has_value());
    // Stale entry: counted invalid, treated as a miss, resynthesized
    // and overwritten with a current entry.
    EXPECT_FALSE(again->disk_hit);
    const auto after = synth::persistent_store(dir)->stats();
    EXPECT_EQ(after.invalid - before.invalid, 1);
    EXPECT_EQ(after.writes - before.writes, 1);
    EXPECT_NE(slurp(files[0]).find(current), std::string::npos);

    // And a format-version bump behaves the same way.
    text = slurp(files[0]);
    const size_t mpos = text.find("rake-cache 1\n");
    ASSERT_NE(mpos, std::string::npos);
    spit(files[0], text.replace(mpos, 13, "rake-cache 9\n"));
    auto once_more = synth::select_instructions(e, opts);
    ASSERT_TRUE(once_more.has_value());
    EXPECT_FALSE(once_more->disk_hit);
    EXPECT_EQ(synth::persistent_store(dir)->stats().invalid -
                  after.invalid,
              1);
}

/**
 * Before scalar examples took their variable type's extremes, a cast
 * of a broadcast i16 scalar selected a saturating narrow (HVX vsat,
 * Neon vqmovn) that is wrong for v in 32762..32767, and the disk tier
 * kept it. Those entries, planted here exactly as grammar version 1
 * wrote them, must be rejected and re-synthesized, never replayed.
 */
TEST(Persist, EntriesFromBeforeTypedScalarExamplesAreResynthesized)
{
    const std::string dir = fresh_dir("typed_scalars");
    const ExprPtr e = hir::parse_expr(
        "(cast i16 (absd (cast i32 (broadcast 16 (var i16 v))) "
        "(const i32x16 -6)))");
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;
    const ExprPtr normalized = hir::simplify(e);
    const uint64_t fp = synth::options_fingerprint(opts);
    char options_hex[17];
    std::snprintf(options_hex, sizeof options_hex, "%016llx",
                  static_cast<unsigned long long>(fp));
    const std::string header =
        std::string("cost-model 1\noptions ") + options_hex + "\nexpr " +
        hir::to_sexpr(normalized) + "\nstatus ok\n";
    const std::string hvx_wrong =
        "(vsat i16x16 (vlo i32x8 (vabsdiff i32x16 (vsxt i32x16 (vsplat "
        "i16x16 (var i16 v))) (vsplat i32x16 (const i32 -6)))) (vhi i32x8 "
        "(vabsdiff i32x16 (vsxt i32x16 (vsplat i16x16 (var i16 v))) "
        "(vsplat i32x16 (const i32 -6)))))";
    const std::string neon_wrong =
        "(vqmovn i16x16 (vabd i32x16 (vmovl i32x16 (vdup i16x16 (var i16 "
        "v))) (vdup i32x16 (const i32 -6))))";
    const struct {
        std::unique_ptr<backend::TargetISA> isa;
        std::string wrong, stats;
    } planted[] = {
        {backend::make_hvx_backend(hvx::Target{}), hvx_wrong,
         "lift-update 1 1 0 0 0 0x1.efed16p-15\n"
         "lift-replace 0 0 0 0 0 0x0p+0\n"
         "lift-extend 2 2 0 0 0 0x1.a8e4318p-14\n"
         "sketch 42 27 0 19 144 0x1.06a5942p-11\n"
         "swizzle 20 6 0 162 0x1.522e760a1d655p-12\n"},
        {backend::make_neon_backend(neon::Target{}), neon_wrong,
         "lift-update 1 1 0 0 0 0x1.fe5451p-15\n"
         "lift-replace 0 0 0 0 0 0x0p+0\n"
         "lift-extend 2 2 0 0 0 0x1.5695158p-14\n"
         "sketch 15 10 0 5 40 0x1.2e31384p-12\n"
         "swizzle 0 0 0 0 0x0p+0\n"},
    };
    auto *store = synth::persistent_store(dir);
    for (const auto &p : planted) {
        SCOPED_TRACE(p.isa->name());
        const std::string path =
            store->entry_path(p.isa->name(), normalized, fp);
        fs::create_directories(dir);
        spit(path, "rake-cache 1\nbackend " + p.isa->name() +
                       "\ngrammar 1\n" + header + "instr " + p.wrong +
                       "\n" + p.stats + "backtracks 0\nproof unknown\nend\n");

        const auto before = store->stats();
        auto result = synth::select_instructions_for(e, *p.isa, opts);
        ASSERT_TRUE(result.has_value());
        EXPECT_FALSE(result->disk_hit);
        EXPECT_NE(p.isa->instr_to_sexpr(result->instr), p.wrong);
        const auto after = store->stats();
        EXPECT_EQ(after.invalid - before.invalid, 1);
        EXPECT_EQ(after.writes - before.writes, 1);
        EXPECT_EQ(slurp(path).find(p.wrong), std::string::npos);
    }
}

/**
 * Cost model 2 counts structurally equal nodes once. For the depth-5
 * fuzz program fuzz::program_seed(11, 900), cost model 1 kept a
 * vmpy.acc form that builds vsxt(vsplat v) twice; cost model 2
 * selects vmpyi.acc, which shares it and issues one multiply fewer.
 * The entry planted here is the one a cost-model-1 build wrote, byte
 * for byte: it must be rejected and re-synthesized, not replayed.
 */
TEST(Persist, EntriesFromBeforeStructuralCostsAreResynthesized)
{
    const std::string dir = fresh_dir("structural_costs");
    const std::string expr =
        "(mul (xor (max (cast i32 (absd (cast i64 (load u16x16 1 2 1)) "
        "(const i64x16 -9223372036854775808))) (add (min (cast i32 (load "
        "u16x16 1 1 -1)) (cast i32 (load u16x16 1 1 0))) (add (cast i32 "
        "(load u16x16 1 -3 0)) (const i32x16 -11)))) (shr (sub (add (cast "
        "i32 (broadcast 16 (var i16 v))) (cast i32 (load u16x16 1 0 1))) "
        "(shr (cast i32 (broadcast 16 (var i16 v))) (const i32x16 7))) "
        "(const i32x16 7))) (const i32x16 -7))";
    const std::string old_instr =
        "(vshuffvdd i32x16 (vmpyi i32x16 (vxor i32x16 (vmax i32x16 "
        "(vdealvdd i32x16 (vpacke i32x16 (vlo i64x8 (vabsdiff i64x16 "
        "(vbitcast i64x16 (vzxt u64x16 (vshuffvdd u32x16 (vzxt u32x16 "
        "(vmem u16x16 1 2 1))))) (vsplat i64x16 (const i64 "
        "-9223372036854775808)))) (vhi i64x8 (vabsdiff i64x16 (vbitcast "
        "i64x16 (vzxt u64x16 (vshuffvdd u32x16 (vzxt u32x16 (vmem u16x16 1 "
        "2 1))))) (vsplat i64x16 (const i64 -9223372036854775808)))))) "
        "(vbitcast i32x16 (vmpy.acc u32x16 (vbitcast u32x16 (vadd i32x16 "
        "(vsplat i32x16 (const i32 -11)) (vmin i32x16 (vbitcast i32x16 "
        "(vzxt u32x16 (vmem u16x16 1 1 -1))) (vbitcast i32x16 (vzxt u32x16 "
        "(vmem u16x16 1 1 0)))))) (vmem u16x16 1 -3 0) (vsplat u16x16 "
        "(const u16 1))))) (vasr i32x16 (vbitcast i32x16 (vmpy.acc u32x16 "
        "(vbitcast u32x16 (vmpy.acc i32x16 (vmpyi i32x16 (vasr i32x16 "
        "(vsxt i32x16 (vsplat i16x16 (var i16 v))) #7) (vsplat i32x16 "
        "(const i32 -1))) (vsplat i16x16 (var i16 v)) (vsplat i16x16 "
        "(const i16 1)))) (vmem u16x16 1 0 1) (vsplat u16x16 (const u16 "
        "1)))) #7)) (vsplat i32x16 (const i32 -7))))";
    const std::string new_instr =
        "(vshuffvdd i32x16 (vmpyi i32x16 (vxor i32x16 (vmax i32x16 "
        "(vdealvdd i32x16 (vpacke i32x16 (vlo i64x8 (vabsdiff i64x16 "
        "(vbitcast i64x16 (vzxt u64x16 (vshuffvdd u32x16 (vzxt u32x16 "
        "(vmem u16x16 1 2 1))))) (vsplat i64x16 (const i64 "
        "-9223372036854775808)))) (vhi i64x8 (vabsdiff i64x16 (vbitcast "
        "i64x16 (vzxt u64x16 (vshuffvdd u32x16 (vzxt u32x16 (vmem u16x16 1 "
        "2 1))))) (vsplat i64x16 (const i64 -9223372036854775808)))))) "
        "(vbitcast i32x16 (vmpy.acc u32x16 (vbitcast u32x16 (vadd i32x16 "
        "(vsplat i32x16 (const i32 -11)) (vmin i32x16 (vbitcast i32x16 "
        "(vzxt u32x16 (vmem u16x16 1 1 -1))) (vbitcast i32x16 (vzxt u32x16 "
        "(vmem u16x16 1 1 0)))))) (vmem u16x16 1 -3 0) (vsplat u16x16 "
        "(const u16 1))))) (vasr i32x16 (vbitcast i32x16 (vmpy.acc u32x16 "
        "(vbitcast u32x16 (vmpyi.acc i32x16 (vsxt i32x16 (vsplat i16x16 "
        "(var i16 v))) (vasr i32x16 (vsxt i32x16 (vsplat i16x16 (var i16 "
        "v))) #7) (vsplat i32x16 (const i32 -1)))) (vmem u16x16 1 0 1) "
        "(vsplat u16x16 (const u16 1)))) #7)) (vsplat i32x16 (const i32 "
        "-7))))";
    const ExprPtr e = hir::parse_expr(expr);
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;
    const ExprPtr normalized = hir::simplify(e);
    ASSERT_EQ(hir::to_sexpr(normalized), expr);
    const uint64_t fp = synth::options_fingerprint(opts);
    char options_hex[17];
    std::snprintf(options_hex, sizeof options_hex, "%016llx",
                  static_cast<unsigned long long>(fp));
    const auto isa = backend::make_hvx_backend(hvx::Target{});
    auto *store = synth::persistent_store(dir);
    const std::string path = store->entry_path(isa->name(), normalized, fp);
    fs::create_directories(dir);
    spit(path, "rake-cache 1\nbackend hvx\ngrammar 2\ncost-model 1\n"
               "options " + std::string(options_hex) + "\nexpr " + expr +
               "\nstatus ok\ninstr " + old_instr + "\n"
               "lift-update 3 2 0 0 0 0x1.4eb6bec8p-12\n"
               "lift-replace 3 3 0 0 0 0x1.250401a4p-11\n"
               "lift-extend 14 14 0 0 1 0x1.c0dea45ep-10\n"
               "sketch 173 113 0 74 564 0x1.1d9a9eecp-7\n"
               "swizzle 90 34 0 14 0x1.0ae00b768951cp-12\n"
               "backtracks 2\n"
               "proof unknown\n"
               "end\n");

    const auto before = store->stats();
    auto result = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->disk_hit);
    EXPECT_EQ(isa->instr_to_sexpr(result->instr), new_instr);
    const auto after = store->stats();
    EXPECT_EQ(after.invalid - before.invalid, 1);
    EXPECT_EQ(after.writes - before.writes, 1);
    const std::string rewritten = slurp(path);
    EXPECT_NE(rewritten.find("cost-model 2\n"), std::string::npos);
    EXPECT_NE(rewritten.find(new_instr), std::string::npos);
}

TEST(Persist, TruncatedOrCorruptEntryIsAMissNotACrash)
{
    const std::string dir = fresh_dir("corrupt");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;
    ASSERT_TRUE(synth::select_instructions(e, opts).has_value());
    const auto files = entry_files(dir);
    ASSERT_EQ(files.size(), 1u);
    const std::string good = slurp(files[0]);
    auto *store = synth::persistent_store(dir);

    const std::vector<std::string> mutilations = {
        good.substr(0, good.size() / 2),     // truncated mid-entry
        good.substr(0, good.size() - 5),     // missing "end" trailer
        std::string(),                       // empty file
        "garbage\n",                         // not an entry at all
        good + "trailing junk\n",            // data past the trailer
        [&] {                                // unparsable instr sexpr
            std::string t = good;
            const size_t p = t.find("instr (");
            return t.replace(p, 7, "instr )");
        }(),
        [&] {                                // malformed stats double
            std::string t = good;
            const size_t p = t.find("lift-update ");
            return t.replace(p, 13, "lift-update x");
        }(),
    };
    for (const std::string &bad : mutilations) {
        spit(files[0], bad);
        const auto before = store->stats();
        auto r = synth::select_instructions(e, opts);
        // Never a crash: the engine resynthesizes and heals the file.
        ASSERT_TRUE(r.has_value());
        EXPECT_FALSE(r->disk_hit);
        const auto after = store->stats();
        EXPECT_EQ(after.invalid - before.invalid, 1);
        EXPECT_EQ(after.writes - before.writes, 1);
        // The healed entry matches the original up to wall-clock
        // timings, which legitimately differ across runs.
        EXPECT_EQ(strip_seconds(slurp(files[0])), strip_seconds(good));
    }
}

TEST(Persist, ConcurrentWritersNeverTearAnEntry)
{
    const std::string dir = fresh_dir("concurrent");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto isa = backend::make_hvx_backend(opts.target);
    auto base = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(base.has_value());

    auto *store = synth::persistent_store(dir);
    const ExprPtr normalized = hir::simplify(e);
    const uint64_t fp = synth::options_fingerprint(opts);

    // Hammer one key from many writers while readers poll: with the
    // write-temp-then-rename protocol every read sees a complete
    // entry (or, before the first rename lands, a clean miss).
    std::vector<std::thread> threads;
    std::atomic<int> torn{0};
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&] {
            for (int i = 0; i < 25; ++i)
                ASSERT_TRUE(
                    store->store_backend(normalized, fp, *isa, *base));
        });
    for (int r = 0; r < 4; ++r)
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                auto loaded = store->load_backend(normalized, fp, *isa);
                if (loaded.invalid)
                    torn.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(torn.load(), 0);
    auto final_read = store->load_backend(normalized, fp, *isa);
    ASSERT_TRUE(final_read.hit);
    EXPECT_EQ(isa->instr_to_sexpr(final_read.result->instr),
              isa->instr_to_sexpr(base->instr));
    // No temp files left behind.
    for (const auto &f : fs::directory_iterator(dir))
        EXPECT_EQ(f.path().extension(), ".rakecache")
            << f.path().string();
}

/**
 * Crash torture for the atomic temp+rename publish protocol: writer
 * *processes* (not threads — a thread can't be killed mid-syscall
 * without taking the test down with it) hammer one key while the
 * parent SIGKILLs them at random points and reads concurrently. No
 * read may ever see a torn entry: every load is either a miss, or a
 * complete, bit-identical entry. Stale temp files abandoned by the
 * kills stay invisible, and a deliberately truncated entry counts as
 * `disk_invalid` — a miss the next store() repairs.
 */
TEST(Persist, SigkilledWritersNeverTearAnEntry)
{
    const std::string dir = fresh_dir("sigkill");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto isa = backend::make_hvx_backend(opts.target);
    auto base = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(base.has_value());

    auto *store = synth::persistent_store(dir);
    const ExprPtr normalized = hir::simplify(e);
    const uint64_t fp = synth::options_fingerprint(opts);
    const std::string expect = isa->instr_to_sexpr(base->instr);

    std::mt19937 rng(7);
    std::uniform_int_distribution<int> delay_us(50, 3000);
    int observed_hits = 0;
    for (int round = 0; round < 10; ++round) {
        // Three writer processes per round, each publishing the same
        // key as fast as it can until killed from outside.
        std::vector<pid_t> writers;
        for (int w = 0; w < 3; ++w) {
            const pid_t pid = fork();
            ASSERT_GE(pid, 0) << "fork failed";
            if (pid == 0) {
                for (;;)
                    store->store_backend(normalized, fp, *isa, *base);
            }
            writers.push_back(pid);
        }
        // Read while they write; kill them at staggered random
        // offsets so deaths land before, during, and after publishes.
        for (const pid_t pid : writers) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us(rng)));
            auto racing = store->load_backend(normalized, fp, *isa);
            EXPECT_FALSE(racing.invalid)
                << "torn read with live writers, round " << round;
            ASSERT_EQ(kill(pid, SIGKILL), 0);
        }
        for (const pid_t pid : writers) {
            int status = 0;
            ASSERT_EQ(waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFSIGNALED(status));
            ASSERT_EQ(WTERMSIG(status), SIGKILL);
        }
        // The survivors' view after the massacre: a miss (no publish
        // completed yet) or one complete, correct entry. Never torn.
        auto loaded = store->load_backend(normalized, fp, *isa);
        ASSERT_FALSE(loaded.invalid) << "torn entry after round " << round;
        if (loaded.hit) {
            ++observed_hits;
            ASSERT_TRUE(loaded.result.has_value());
            EXPECT_EQ(isa->instr_to_sexpr(loaded.result->instr), expect);
        }
    }
    // 30 killed writers across 10 rounds with multi-millisecond kill
    // windows: some publish must have completed.
    EXPECT_GE(observed_hits, 1);

    // Kills mid-write legitimately abandon temp files; they must not
    // masquerade as entries. Add a hand-made straggler to be sure one
    // exists, then check every view of the directory ignores them.
    const auto files = entry_files(dir);
    ASSERT_EQ(files.size(), 1u);
    spit(files[0].string() + ".tmp.99999.0", "half-written garbage");
    EXPECT_EQ(entry_files(dir).size(), 1u);
    EXPECT_EQ(synth::scan_cache_dir(dir).size(), 1u);
    const auto stats_before = store->stats();
    auto clean = store->load_backend(normalized, fp, *isa);
    ASSERT_TRUE(clean.hit);
    EXPECT_EQ(store->stats().invalid, stats_before.invalid);

    // A truncated entry (a torn write simulated by hand — the rename
    // protocol itself never produces one) is a counted miss...
    const std::string good = slurp(files[0]);
    spit(files[0], good.substr(0, good.size() / 2));
    auto truncated = store->load_backend(normalized, fp, *isa);
    EXPECT_FALSE(truncated.hit);
    EXPECT_TRUE(truncated.invalid);
    EXPECT_EQ(store->stats().invalid, stats_before.invalid + 1);

    // ...that the next completed publish repairs in place.
    ASSERT_TRUE(store->store_backend(normalized, fp, *isa, *base));
    auto repaired = store->load_backend(normalized, fp, *isa);
    ASSERT_TRUE(repaired.hit);
    EXPECT_EQ(isa->instr_to_sexpr(repaired.result->instr), expect);
}

TEST(Persist, FsyncKnobGatesDurabilityNotCorrectness)
{
    // The publish path fsyncs the entry before the rename and the
    // directory after it (power-loss durability); RAKE_CACHE_FSYNC=0
    // opts out for speed. Either way the visible contract — complete
    // entries, never torn ones — must hold, including under SIGKILL.
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto isa = backend::make_hvx_backend(opts.target);
    auto base = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(base.has_value());
    const ExprPtr normalized = hir::simplify(e);
    const uint64_t fp = synth::options_fingerprint(opts);
    const std::string expect = isa->instr_to_sexpr(base->instr);

    for (const char *knob : {"1", "0"}) {
        ASSERT_EQ(setenv("RAKE_CACHE_FSYNC", knob, 1), 0);
        const std::string dir =
            fresh_dir(std::string("fsync") + knob);
        auto *store = synth::persistent_store(dir);
        ASSERT_TRUE(store->store_backend(normalized, fp, *isa, *base));
        auto loaded = store->load_backend(normalized, fp, *isa);
        ASSERT_TRUE(loaded.hit) << "RAKE_CACHE_FSYNC=" << knob;
        EXPECT_EQ(isa->instr_to_sexpr(loaded.result->instr), expect);

        // One kill round per knob setting: the fsyncs must not open a
        // window where a dying writer leaves a torn entry behind.
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            for (;;)
                store->store_backend(normalized, fp, *isa, *base);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(1500));
        ASSERT_EQ(kill(pid, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        auto after = store->load_backend(normalized, fp, *isa);
        ASSERT_FALSE(after.invalid);
        ASSERT_TRUE(after.hit);
        EXPECT_EQ(isa->instr_to_sexpr(after.result->instr), expect);
    }
    ASSERT_EQ(unsetenv("RAKE_CACHE_FSYNC"), 0);
}

TEST(Persist, TimedOutQueryNeverLandsOnDisk)
{
    const std::string dir = fresh_dir("timeout");
    const ExprPtr e = average_expr();

    // An already-expired budget degrades to the greedy baseline; the
    // disk must stay empty — an aborted search says nothing about
    // the key.
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;
    opts.deadline = Deadline::after_ms(0);
    auto isa = backend::make_hvx_backend(opts.target);
    auto degraded = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(degraded.has_value());
    EXPECT_TRUE(degraded->degraded);
    EXPECT_EQ(degraded->status, synth::SynthStatus::TimedOut);
    EXPECT_TRUE(entry_files(dir).empty());
    EXPECT_EQ(synth::persistent_store(dir)->stats().writes, 0);

    // The store-level gate agrees, for both flavors of bad result.
    auto *store = synth::persistent_store(dir);
    const ExprPtr normalized = hir::simplify(e);
    synth::BackendRakeResult timed_out = *degraded;
    EXPECT_FALSE(store->store_backend(normalized, 1, *isa, timed_out));
    timed_out.status = synth::SynthStatus::Ok; // degraded but "ok"
    EXPECT_FALSE(store->store_backend(normalized, 1, *isa, timed_out));
    EXPECT_TRUE(entry_files(dir).empty());
}

TEST(Persist, CachedPathPublishesDiskHitsToMemoryTier)
{
    const std::string dir = fresh_dir("twotier");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.cache_dir = dir; // use_cache stays true: both tiers active
    synth::synthesis_cache().clear();

    auto cold = synth::select_instructions(e, opts);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->disk_hit);

    // New process simulated by clearing the memory tier: the disk
    // answers, and the loaded result is republished in memory...
    synth::synthesis_cache().clear();
    auto warm = synth::select_instructions(e, opts);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->disk_hit);

    // ...so the next query is a pure memory hit, no disk involved.
    const auto disk_before = synth::persistent_store(dir)->stats();
    auto mem = synth::select_instructions(e, opts);
    ASSERT_TRUE(mem.has_value());
    EXPECT_TRUE(mem->cache_hit);
    EXPECT_EQ(synth::persistent_store(dir)->stats().hits,
              disk_before.hits);
    synth::synthesis_cache().clear();
}

/**
 * One entry layout for every backend: an HVX entry the compile path
 * (select_instructions) stored is a disk hit for the serving path
 * (select_instructions_for over an HVX backend), and the other way
 * round — neither rejects the other's entry as invalid.
 */
TEST(Persist, CompileAndServePathsShareDiskEntries)
{
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false; // isolate the disk tier
    auto isa = backend::make_hvx_backend(opts.target);

    opts.cache_dir = fresh_dir("typed_then_generic");
    auto typed = synth::select_instructions(e, opts);
    ASSERT_TRUE(typed.has_value());
    EXPECT_FALSE(typed->disk_hit);
    auto generic = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(generic.has_value());
    EXPECT_TRUE(generic->disk_hit);
    EXPECT_EQ(isa->instr_to_sexpr(generic->instr),
              hvx::to_sexpr(typed->instr));
    auto stats = synth::persistent_store(opts.cache_dir)->stats();
    EXPECT_EQ(stats.writes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.invalid, 0);

    opts.cache_dir = fresh_dir("generic_then_typed");
    generic = synth::select_instructions_for(e, *isa, opts);
    ASSERT_TRUE(generic.has_value());
    EXPECT_FALSE(generic->disk_hit);
    typed = synth::select_instructions(e, opts);
    ASSERT_TRUE(typed.has_value());
    EXPECT_TRUE(typed->disk_hit);
    EXPECT_EQ(hvx::to_sexpr(typed->instr),
              isa->instr_to_sexpr(generic->instr));
    stats = synth::persistent_store(opts.cache_dir)->stats();
    EXPECT_EQ(stats.writes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.invalid, 0);
}

TEST(Persist, NeonBackendRoundTripsThroughTargetIsaHooks)
{
    const std::string dir = fresh_dir("neon");
    const ExprPtr e = average_expr();
    synth::RakeOptions opts;
    opts.use_cache = false;
    opts.cache_dir = dir;

    neon::Target machine;
    auto isa1 = backend::make_neon_backend(machine);
    auto cold = synth::select_instructions_for(e, *isa1, opts);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->disk_hit);
    const std::string cold_sexpr = isa1->instr_to_sexpr(cold->instr);
    ASSERT_FALSE(cold_sexpr.empty());

    // instr_from_sexpr(instr_to_sexpr(x)) is print-stable.
    auto reparsed = isa1->instr_from_sexpr(cold_sexpr);
    ASSERT_NE(reparsed, nullptr);
    EXPECT_EQ(isa1->instr_to_sexpr(reparsed), cold_sexpr);

    auto isa2 = backend::make_neon_backend(machine);
    auto warm = synth::select_instructions_for(e, *isa2, opts);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->disk_hit);
    EXPECT_EQ(isa2->instr_to_sexpr(warm->instr), cold_sexpr);
    EXPECT_EQ(warm->lower.sketch.queries, cold->lower.sketch.queries);
    EXPECT_EQ(warm->lower.sketch.seconds, cold->lower.sketch.seconds);

    // Entries are keyed per backend: HVX misses cleanly on a
    // directory holding only Neon entries.
    const ExprPtr normalized = hir::simplify(e);
    auto hvx_isa = backend::make_hvx_backend(hvx::Target{});
    auto hvx_probe = synth::persistent_store(dir)->load_backend(
        normalized, synth::options_fingerprint(opts), *hvx_isa);
    EXPECT_FALSE(hvx_probe.hit);
}

/**
 * The Neon compile path (table1's CompileOptions::rake over a Neon
 * backend) and the serving path (the server's default RakeOptions)
 * must key one disk entry. They used to differ in
 * LowerOptions::layouts, a knob only the HVX grammar reads, so the
 * server re-ran CEGIS on every entry the compile path had written.
 */
TEST(Persist, NeonCompileAndServePathsShareDiskEntries)
{
    const std::string dir = fresh_dir("neon_xpath");
    const ExprPtr e = average_expr(32);
    synth::SynthCache &neon_table = synth::backend_synthesis_cache("neon");
    neon_table.clear();

    pipeline::CompileOptions compile;
    compile.rake.cache_dir = dir;
    auto isa = backend::make_neon_backend(neon::Target{});
    ASSERT_TRUE(
        synth::select_instructions_for(e, *isa, compile.rake).has_value());
    neon_table.clear(); // a fresh process: only the disk tier is warm

    synth::RakeOptions serve;
    serve.cache_dir = dir;
    auto served = synth::select_instructions_for(e, *isa, serve);
    ASSERT_TRUE(served.has_value());
    EXPECT_TRUE(served->disk_hit);
    const auto stats = synth::persistent_store(dir)->stats();
    EXPECT_EQ(stats.writes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.invalid, 0);
    EXPECT_EQ(neon_table.stats().disk_hits, 1);
    EXPECT_EQ(neon_table.stats().disk_invalid, 0);
}

TEST(Persist, ResolveCacheDirPrecedence)
{
    unsetenv("RAKE_CACHE_DIR");
    EXPECT_EQ(synth::resolve_cache_dir(""), "");
    EXPECT_EQ(synth::resolve_cache_dir("/a/b"), "/a/b");
    setenv("RAKE_CACHE_DIR", "/from/env", 1);
    EXPECT_EQ(synth::resolve_cache_dir(""), "/from/env");
    EXPECT_EQ(synth::resolve_cache_dir("/a/b"), "/a/b");
    unsetenv("RAKE_CACHE_DIR");

    // Empty dir = disk tier off: no store is materialized.
    EXPECT_EQ(synth::persistent_store(""), nullptr);
}

/**
 * The audit the ISSUE asks for: every synthesis-affecting RakeOptions
 * knob must perturb options_fingerprint, or a knob change would
 * replay stale disk entries. The execution-only knobs (deadline,
 * use_cache, cache_dir) are deliberately excluded — they decide how a
 * result is computed or stored, never what it is.
 */
TEST(Persist, OptionsFingerprintCoversEverySynthesisKnob)
{
    const synth::RakeOptions base;
    const uint64_t fp0 = synth::options_fingerprint(base);

    auto differs = [&](auto mutate, const char *what) {
        synth::RakeOptions o = base;
        mutate(o);
        EXPECT_NE(synth::options_fingerprint(o), fp0)
            << "fingerprint misses knob: " << what;
    };
    differs([](auto &o) { o.target.vector_bytes *= 2; },
            "target.vector_bytes");
    differs([](auto &o) { o.lower.backtracking = !o.lower.backtracking; },
            "lower.backtracking");
    differs([](auto &o) { o.lower.layouts = !o.lower.layouts; },
            "lower.layouts");
    differs(
        [](auto &o) { o.lower.lane0_pruning = !o.lower.lane0_pruning; },
        "lower.lane0_pruning");
    differs([](auto &o) { ++o.lower.swizzle_budget; },
            "lower.swizzle_budget");
    differs([](auto &o) { ++o.verifier.base_examples; },
            "verifier.base_examples");
    differs([](auto &o) { ++o.verifier.trials; }, "verifier.trials");
    differs([](auto &o) { o.verifier.dedup = !o.verifier.dedup; },
            "verifier.dedup");
    differs([](auto &o) { o.z3_prove = !o.z3_prove; }, "z3_prove");
    differs([](auto &o) { ++o.seed; }, "seed");

    // Documented exclusions: completed results are shared across
    // budgets and storage configurations.
    synth::RakeOptions excl = base;
    excl.deadline = Deadline::after_ms(1000);
    excl.use_cache = !base.use_cache;
    excl.cache_dir = "/somewhere";
    EXPECT_EQ(synth::options_fingerprint(excl), fp0);
}

} // namespace
} // namespace rake
