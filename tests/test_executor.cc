/**
 * @file
 * Tests for the tile executor: whole-image execution of generated
 * code vs the HIR reference, multi-input kernels, scalar parameters,
 * image quality helpers, input validation, buffers that view images
 * in place, the row-band split, the divergence report, and the
 * recycled storage of whole images (Cells).
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "baseline/halide_optimizer.h"
#include "hir/builder.h"
#include "pipeline/benchmarks.h"
#include "pipeline/executor.h"
#include "synth/rake.h"
#include "test_util.h"

namespace rake {
namespace {

using namespace rake::hir;
using namespace rake::pipeline;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

TEST(Image, SyntheticIsDeterministicAndInRange)
{
    Image a = Image::synthetic(u8, 64, 8, 5);
    Image b = Image::synthetic(u8, 64, 8, 5);
    Image c = Image::synthetic(u8, 64, 8, 6);
    EXPECT_EQ(a.pixels, b.pixels);
    EXPECT_NE(a.pixels, c.pixels);
    for (int64_t p : a.pixels) {
        EXPECT_GE(p, 0);
        EXPECT_LE(p, 255);
    }
}

TEST(Executor, ReferenceExecutionMatchesManualStencil)
{
    // out(x, y) = u8((u16(in(x, y)) + u16(in(x+1, y)) + 1) >> 1)
    HExpr e =
        cast(u8, (cast(u16, load(0, u8, 64)) +
                  cast(u16, load(0, u8, 64, 1)) + 1) >>
                     1);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 128, 4, 3));
    Image out = run_tiles_reference(e.ptr(), inputs);
    const Image &in = inputs.at(0);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 128; ++x) {
            const int xn = std::min(x + 1, 127); // edge clamp
            const int64_t expect =
                (in.at(x, y) + in.at(xn, y) + 1) >> 1;
            EXPECT_EQ(out.at(x, y), expect) << x << "," << y;
        }
    }
}

TEST(Executor, GeneratedCodeMatchesReferenceOnImages)
{
    HExpr e = cast(u8,
                   clamp((cast(u16, load(0, u8, 128, -1)) +
                          cast(u16, load(0, u8, 128, 0)) * 2 +
                          cast(u16, load(0, u8, 128, 1)) + 2) >>
                             2,
                         0, 255));
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 256, 8, 11));

    Image ref = run_tiles_reference(e.ptr(), inputs);
    hvx::Target target;
    Image via_base = run_tiles(
        baseline::select_instructions(e.ptr(), target), inputs);
    EXPECT_EQ(count_mismatches(ref, via_base), 0);

    auto rk = synth::select_instructions(e.ptr());
    ASSERT_TRUE(rk.has_value());
    Image via_rake = run_tiles(rk->instr, inputs);
    EXPECT_EQ(count_mismatches(ref, via_rake), 0);
    EXPECT_TRUE(std::isinf(psnr(ref, via_rake)));
}

TEST(Executor, MultiInputAndScalars)
{
    HExpr e = cast(u8, (cast(u16, load(0, u8, 64)) +
                        cast(u16, load(1, u8, 64)) +
                        broadcast(var("bias", u16), 64)) >>
                           2);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 64, 4, 1));
    inputs.emplace(1, Image::synthetic(u8, 64, 4, 2));
    std::map<std::string, int64_t> scalars{{"bias", 100}};
    Image ref = run_tiles_reference(e.ptr(), inputs, scalars);
    hvx::Target target;
    Image got = run_tiles(
        baseline::select_instructions(e.ptr(), target), inputs,
        scalars);
    EXPECT_EQ(count_mismatches(ref, got), 0);
    EXPECT_EQ(ref.at(0, 0),
              (inputs.at(0).at(0, 0) + inputs.at(1).at(0, 0) + 100) >>
                  2);
}

TEST(Executor, RejectsMisalignedWidth)
{
    HExpr e = load(0, u8, 64);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 100, 4, 1)); // 100 % 64 != 0
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);
    EXPECT_THROW(run_tiles_reference(e.ptr(), {}), UserError);
}

TEST(Executor, RejectsSecondaryInputWithMismatchedSize)
{
    // Regression: only the primary input used to be validated, so a
    // secondary image of the wrong size was silently edge-clamped
    // into wrong pixels instead of failing.
    HExpr e = cast(u8, (cast(u16, load(0, u8, 64)) +
                        cast(u16, load(1, u8, 64))) >>
                           1);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 64, 4, 1));
    inputs.emplace(1, Image::synthetic(u8, 128, 4, 2)); // wrong width
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);
    hvx::Target target;
    EXPECT_THROW(
        run_tiles(baseline::select_instructions(e.ptr(), target),
                  inputs),
        UserError);

    inputs.at(1) = Image::synthetic(u8, 64, 8, 2); // wrong height
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);

    inputs.at(1) = Image::synthetic(u8, 64, 4, 2); // matching: runs
    EXPECT_NO_THROW(run_tiles_reference(e.ptr(), inputs));
}

TEST(Executor, RejectsSecondaryInputWithMismatchedElemType)
{
    HExpr e = cast(u8, (cast(u16, load(0, u8, 64)) +
                        cast(u16, load(1, u8, 64))) >>
                           1);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 64, 4, 1));
    inputs.emplace(1, Image::synthetic(u16, 64, 4, 2)); // wrong elem
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);
    hvx::Target target;
    EXPECT_THROW(
        run_tiles(baseline::select_instructions(e.ptr(), target),
                  inputs),
        UserError);
}

TEST(Executor, RejectsMissingReferencedBuffer)
{
    HExpr e = cast(u8, (cast(u16, load(0, u8, 64)) +
                        cast(u16, load(1, u8, 64))) >>
                           1);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 64, 4, 1)); // no buffer 1
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);
    hvx::Target target;
    EXPECT_THROW(
        run_tiles(baseline::select_instructions(e.ptr(), target),
                  inputs),
        UserError);
}

TEST(Executor, RejectsUnreferencedInputWithMismatchedSize)
{
    // Even an extra input the expression never loads must share the
    // grid: it is part of the caller's contract, and a stray image is
    // almost always a bug in the test harness feeding the executor.
    HExpr e = load(0, u8, 64);
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 64, 4, 1));
    inputs.emplace(7, Image::synthetic(u8, 32, 4, 2));
    EXPECT_THROW(run_tiles_reference(e.ptr(), inputs), UserError);
}

TEST(Executor, PsnrBehaviour)
{
    Image a = Image::synthetic(u8, 64, 4, 1);
    Image b = a;
    EXPECT_TRUE(std::isinf(psnr(a, b)));
    b.at(0, 0) = wrap(u8, b.at(0, 0) + 16);
    const double p = psnr(a, b);
    EXPECT_GT(p, 30.0);
    EXPECT_FALSE(std::isinf(p));
    EXPECT_EQ(count_mismatches(a, b), 1);
    Image c(u8, 32, 4);
    EXPECT_THROW(psnr(a, c), UserError);
}

TEST(Executor, FullSobelPipelineRoundTrip)
{
    hir::ExprPtr sobel = sobel_expr();
    std::map<int, Image> inputs;
    inputs.emplace(0, Image::synthetic(u8, 256, 8, 21));
    Image ref = run_tiles_reference(sobel, inputs);
    hvx::Target target;
    Image base = run_tiles(
        baseline::select_instructions(sobel, target), inputs);
    EXPECT_EQ(count_mismatches(ref, base), 0);
}

TEST(Executor, ViewBufferReadsTheImageInPlace)
{
    const Image img = Image::synthetic(u8, 16, 5, 9);
    const Buffer view = Buffer::view_of(img.elem, img.width, img.height,
                                        img.pixels.data());
    EXPECT_EQ(view.cells(), img.pixels.data());
    EXPECT_TRUE(view.data.empty());
    const Buffer copy = view; // a copy views the same storage
    EXPECT_EQ(copy.cells(), img.pixels.data());

    Buffer owned(img.elem, img.width, img.height);
    owned.data = img.pixels;
    EXPECT_EQ(owned.cells(), owned.data.data());
    for (int y = -2; y <= img.height + 1; ++y)
        for (int x = -3; x <= img.width + 2; ++x)
            EXPECT_EQ(view.at(x, y), owned.at(x, y)) << x << "," << y;

    // Windows inside the image and crossing each edge, at the image's
    // own type and at a narrower signed one (loads wrap per lane).
    for (const VecType t : {VecType(u8, 4), VecType(u8, 8),
                            VecType(ScalarType::Int8, 8)}) {
        for (int y : {-1, 0, 2, img.height - 1, img.height}) {
            for (int x : {-6, -1, 0, 3, 8, 12, 13, img.width - 1,
                          img.width}) {
                Value a = Value::zero(t);
                Value b = Value::zero(t);
                view.load_window(x, y, a);
                owned.load_window(x, y, b);
                EXPECT_EQ(a, b) << to_string(t) << " at " << x << ","
                                << y;
            }
        }
    }
}

TEST(Executor, RowBandsAreContiguousDisjointAndCoverEveryRow)
{
    for (int height = 1; height <= 300; ++height) {
        for (int workers = 1; workers <= 8; ++workers) {
            for (int tiles : {1, 2, 3, 4, 8, 21, 31, 32, 33, 63, 64, 65,
                              127, 128, 129, 512}) {
                const std::vector<RowBand> bands =
                    row_bands(height, tiles, workers);
                const int n = static_cast<int>(bands.size());
                ASSERT_GE(n, 1);
                ASSERT_LE(n, std::min(workers, height));
                int next = 0;
                for (const RowBand &b : bands) {
                    ASSERT_EQ(b.begin, next);
                    ASSERT_LT(b.begin, b.end);
                    if (n > 1) {
                        ASSERT_GE((b.end - b.begin) * tiles,
                                  kMinBandTiles)
                            << height << " rows of " << tiles
                            << " tiles on " << workers << " workers";
                    }
                    next = b.end;
                }
                ASSERT_EQ(next, height);
                // Too small for two bands: one, on the calling thread.
                if (height * tiles < 2 * kMinBandTiles) {
                    ASSERT_EQ(n, 1);
                }
                // Large enough for a band per worker: one per worker.
                if (height >= workers &&
                    (height / workers) * tiles >= kMinBandTiles) {
                    ASSERT_EQ(n, workers);
                }
            }
        }
    }
    EXPECT_TRUE(row_bands(0, 8, 4).empty());
    EXPECT_TRUE(row_bands(8, 0, 4).empty());
}

TEST(Executor, DivergenceReportNamesFirstTileAndBothLaneVectors)
{
    const VecType tile(u8, 4);
    const Image interp = Image::synthetic(u8, 16, 3, 4);
    Image jit = interp;
    EXPECT_NO_THROW(require_equal_tiles(jit, interp, tile));

    // Two divergent tiles: (4, 1) comes first in row-major order.
    jit.at(6, 1) = wrap(u8, jit.at(6, 1) + 1);
    jit.at(1, 2) = wrap(u8, jit.at(1, 2) + 1);
    const auto lanes = [&](const Image &img) {
        return to_string(Value(tile, {img.at(4, 1), img.at(5, 1),
                                      img.at(6, 1), img.at(7, 1)}));
    };
    try {
        require_equal_tiles(jit, interp, tile, "stage 's': ");
        FAIL() << "divergent images passed";
    } catch (const UserError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "rake: stage 's': jit/interpreter divergence at (4, 1): "
                  "jit " +
                      lanes(jit) + " vs interpreter " + lanes(interp));
    }
}

/** A 256 x 128 image's cells: 256 KiB, a block the free list keeps. */
constexpr int kImageW = 256;
constexpr int kImageH = 128;
constexpr size_t kImageCells = size_t{kImageW} * kImageH;
static_assert(kImageCells * sizeof(int64_t) >= kMinCachedCellBytes);

TEST(Cells, ZeroingConstructorsClearRecycledBlocks)
{
    const auto all_zero = [](const Cells &c) {
        return std::all_of(c.begin(), c.end(),
                           [](int64_t v) { return v == 0; });
    };
    const int64_t *dirty = test::free_dirty_cells(kImageCells);
    const Image img(u8, kImageW, kImageH);
    EXPECT_EQ(img.pixels.data(), dirty);
    EXPECT_TRUE(all_zero(img.pixels));

    dirty = test::free_dirty_cells(kImageCells);
    const Buffer buf(u8, kImageW, kImageH);
    EXPECT_EQ(buf.data.data(), dirty);
    EXPECT_TRUE(all_zero(buf.data));
}

TEST(Cells, SameSizeComesBackLastFreedFirstAndAMissEmptiesTheList)
{
    const int64_t *first = nullptr;
    {
        Cells a(kImageCells);
        Cells b(kImageCells);
        first = a.data();
        Cells().swap(b);
        Cells().swap(a); // freed last
    }
    EXPECT_GE(cached_cell_bytes(), 2 * kImageCells * sizeof(int64_t));
    Cells same;
    same.resize(kImageCells);
    EXPECT_EQ(same.data(), first);

    // No block of this size is cached: the request frees every block.
    Cells other;
    other.resize(kImageCells + 1);
    EXPECT_EQ(cached_cell_bytes(), 0u);
    Cells().swap(other);
    EXPECT_EQ(cached_cell_bytes(), (kImageCells + 1) * sizeof(int64_t));

    // Small blocks bypass the list.
    Cells small(16);
    Cells().swap(small);
    EXPECT_EQ(cached_cell_bytes(), (kImageCells + 1) * sizeof(int64_t));
}

TEST(Cells, EightThreadsRecycleWholeImageBlocksAtOnce)
{
    // Two sizes, so requests both take cached blocks and miss.
    std::atomic<int> clobbered{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([t, &clobbered] {
            for (int i = 0; i < 64; ++i) {
                Cells c;
                c.resize(kImageCells + static_cast<size_t>((t + i) % 2));
                const size_t mid = c.size() / 2;
                c.front() = t;
                c[mid] = i;
                c.back() = t;
                std::this_thread::yield();
                if (c.front() != t || c[mid] != i || c.back() != t)
                    ++clobbered;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(clobbered.load(), 0);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(Cells, CachedBlocksArePoisoned)
{
    const int64_t *freed = nullptr;
    {
        Cells c(kImageCells);
        freed = c.data();
    }
    EXPECT_TRUE(__asan_address_is_poisoned(freed));
    EXPECT_TRUE(__asan_address_is_poisoned(freed + kImageCells - 1));
    Cells again(kImageCells);
    ASSERT_EQ(again.data(), freed);
    EXPECT_FALSE(__asan_address_is_poisoned(again.data()));
    EXPECT_FALSE(__asan_address_is_poisoned(again.data() + kImageCells - 1));
}
#endif

} // namespace
} // namespace rake
