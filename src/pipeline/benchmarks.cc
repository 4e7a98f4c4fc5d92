#include "pipeline/benchmarks.h"

#include "hir/builder.h"
#include "support/error.h"

namespace rake::pipeline {

namespace {

using namespace rake::hir;

constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType i16 = ScalarType::Int16;
constexpr ScalarType u16 = ScalarType::UInt16;
constexpr ScalarType i32 = ScalarType::Int32;
constexpr int kLanes = 128;

/** u8 load from the input image (buffer 0). */
HExpr
in8(int dx, int dy = 0, int buf = 0)
{
    return load(buf, u8, kLanes, dx, dy);
}

HExpr
in16(int dx, int dy = 0, int buf = 0)
{
    return load(buf, u16, kLanes, dx, dy);
}

HExpr
in16s(int dx, int dy = 0, int buf = 0)
{
    return load(buf, i16, kLanes, dx, dy);
}

HExpr
w16(HExpr e)
{
    return cast(u16, e);
}

HExpr
s16(HExpr e)
{
    return cast(i16, e);
}

HExpr
s32(HExpr e)
{
    return cast(i32, e);
}

/** min(a, max(a, b), c)-style median of three. */
HExpr
med3(HExpr a, HExpr b, HExpr c)
{
    return max(min(a, b), min(max(a, b), c));
}

// ------------------------------------------------------------------
// Image processing
// ------------------------------------------------------------------

Benchmark
make_sobel()
{
    // Fig. 3, verbatim: 3x3 Sobel without the square root.
    auto x_avg = [&](int dy) {
        return w16(in8(-1, dy)) + w16(in8(0, dy)) * 2 + w16(in8(1, dy));
    };
    auto y_avg = [&](int dx) {
        return w16(in8(dx, -1)) + w16(in8(dx, 0)) * 2 + w16(in8(dx, 1));
    };
    HExpr sobel_x = absd(x_avg(-1), x_avg(1));
    HExpr sobel_y = absd(y_avg(-1), y_avg(1));
    HExpr out = cast(u8, clamp(sobel_x + sobel_y, 0, 255));
    return {"sobel", "Image Processing", {{"sobel3x3", out, 8160}}};
}

Benchmark
make_dilate()
{
    HExpr m = in8(-1, -1);
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == -1 && dy == -1)
                continue;
            m = max(m, in8(dx, dy));
        }
    }
    return {"dilate", "Image Processing", {{"dilate3x3", m, 8160}}};
}

Benchmark
make_box_blur()
{
    // 2x2 box filter as the Hexagon SDK writes it: a tree of rounding
    // averages (both selectors map these to vavg, so the benchmark
    // ties — one of the paper's memory-bound draws).
    auto avg = [&](HExpr a, HExpr b) {
        return cast(u8, (w16(a) + w16(b) + 1) >> 1);
    };
    HExpr out = avg(avg(in8(0, 0), in8(1, 0)),
                    avg(in8(0, 1), in8(1, 1)));
    return {"box_blur", "Image Processing", {{"box2x2", out, 8160}}};
}

Benchmark
make_median()
{
    // Pseudo-median of 9 (median of row medians), as in the Hexagon
    // SDK median3x3 sample.
    auto row = [&](int dy) {
        return med3(in8(-1, dy), in8(0, dy), in8(1, dy));
    };
    HExpr out = med3(row(-1), row(0), row(1));
    return {"median", "Image Processing", {{"median3x3", out, 8160}}};
}

Benchmark
make_gaussian3x3()
{
    // Binomial [1 2 1] x [1 2 1] / 16 with rounding.
    const int w[3] = {1, 2, 1};
    HExpr sum;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            HExpr term = w16(in8(dx, dy)) * (w[dx + 1] * w[dy + 1]);
            sum = sum.defined() ? sum + term : term;
        }
    }
    HExpr out = cast(u8, (sum + 8) >> 4);
    return {"gaussian3x3", "Image Processing",
            {{"gauss3x3", out, 8160}}};
}

Benchmark
make_gaussian5x5()
{
    // Separable, as the Hexagon SDK implements it: a horizontal
    // binomial pass into a u16 buffer, then the vertical pass.
    const int w[5] = {1, 4, 6, 4, 1};
    HExpr hsum;
    for (int dx = -2; dx <= 2; ++dx) {
        HExpr term = w16(in8(dx, 0)) * w[dx + 2];
        hsum = hsum.defined() ? hsum + term : term;
    }
    HExpr hpass = (hsum + 8) >> 4; // u16, <= 255

    HExpr vsum;
    for (int dy = -2; dy <= 2; ++dy) {
        HExpr term = in16(0, dy, 1) * w[dy + 2];
        vsum = vsum.defined() ? vsum + term : term;
    }
    HExpr vpass = cast(u8, (vsum + 8) >> 4);
    return {"gaussian5x5",
            "Image Processing",
            {{"gauss5x5.h", hpass, 8160}, {"gauss5x5.v", vpass, 8160}}};
}

Benchmark
make_gaussian7x7()
{
    // Separable: horizontal pass into a u16 buffer (normalized by
    // 64), then the vertical pass reads it back.
    const int w[7] = {1, 6, 15, 20, 15, 6, 1};
    HExpr hsum;
    for (int dx = -3; dx <= 3; ++dx) {
        HExpr term = w16(in8(dx, 0)) * w[dx + 3];
        hsum = hsum.defined() ? hsum + term : term;
    }
    HExpr hpass = (hsum + 32) >> 6; // u16, <= 255

    HExpr vsum;
    for (int dy = -3; dy <= 3; ++dy) {
        HExpr term = in16(0, dy, 1) * w[dy + 3];
        vsum = vsum.defined() ? vsum + term : term;
    }
    HExpr vpass = cast(u8, (vsum + 32) >> 6);
    return {"gaussian7x7",
            "Image Processing",
            {{"gauss7x7.h", hpass, 8160}, {"gauss7x7.v", vpass, 8160}}};
}

Benchmark
make_conv3x3(const char *name, bool wide_accum)
{
    // General 3x3 convolution (sharpen-like kernel).
    const int w[3][3] = {{1, -2, 1}, {-2, 12, -2}, {1, -2, 1}};
    HExpr sum;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            HExpr tap = s16(in8(dx, dy));
            HExpr term = wide_accum ? s32(tap) * (w[dy + 1][dx + 1] * 37)
                                    : tap * w[dy + 1][dx + 1];
            sum = sum.defined() ? sum + term : term;
        }
    }
    HExpr out = wide_accum
                    ? cast(u8, clamp((sum + 128) >> 8, 0, 255))
                    : cast(u8, clamp((sum + 4) >> 3, 0, 255));
    return {name, "Image Processing", {{"conv3x3", out, 8160}}};
}

Benchmark
make_camera_pipe()
{
    // Four representative stages of the Frankencamera pipeline.
    // (a) hot-pixel suppression on the raw u16 data (buffer 2).
    HExpr center = in16(0, 0, 2);
    HExpr neigh = max(max(in16(-2, 0, 2), in16(2, 0, 2)),
                      max(in16(0, -2, 2), in16(0, 2, 2)));
    HExpr hot = min(center, neigh);

    // (b) demosaic green interpolation: rounding average of the two
    // neighboring greens.
    HExpr gv = cast(u8, (w16(in8(0, -1)) + w16(in8(0, 1)) + 1) >> 1);

    // (c) color correction: two-term matrix row with requantization.
    HExpr corr = cast(
        i16, (s32(in16s(0, 0, 3)) * var("ccm0", i32) +
              s32(in16s(1, 0, 3)) * var("ccm1", i32)) >>
                 8);

    // (d) the Fig. 12 gamma/contrast clamp: uint8(max(min(x, 127), 0)).
    HExpr curve = cast(u8, max(min(in16s(0, 0, 3), 127), 0));

    return {"camera_pipe",
            "Camera Pipeline",
            {{"hot_pixel", hot, 4096},
             {"demosaic", gv, 4096},
             {"color_correct", corr, 4096},
             {"curve", curve, 4096}}};
}

// ------------------------------------------------------------------
// Machine learning (TFLite-style layers)
// ------------------------------------------------------------------

Benchmark
make_matmul()
{
    // Quantized u8 matmul microkernel: accumulate 4 k-steps into a
    // 32-bit accumulator. A-values are broadcast scalars, B rows are
    // vector loads.
    HExpr acc;
    for (int k = 0; k < 4; ++k) {
        HExpr a = var(std::string("a").append(std::to_string(k)), u8);
        HExpr b = in8(0, k, 1);
        HExpr term = s32(s16(broadcast(a, kLanes)) * s16(b));
        acc = acc.defined() ? acc + term : term;
    }
    HExpr out = cast(u8, clamp((acc + 8192) >> 14, 0, 255));
    return {"matmul", "Matrix Multiplication", {{"matmul4", out, 16384}}};
}

Benchmark
make_add()
{
    // The paper's Fig. 12 "add" pattern: rescale one operand...
    HExpr lhs = (s16(in8(0, 0)) << 6) +
                broadcast(s16(var("off", u8)) * -64, kLanes);
    // ...then combine with the other operand and requantize.
    HExpr rhs = (s16(in8(0, 0, 1)) << 6) +
                broadcast(s16(var("off2", u8)) * -64, kLanes);
    HExpr out = cast(u8, clamp((lhs + rhs + 64) >> 7, 0, 255));
    return {"add",
            "Machine Learning",
            {{"add.lhs", lhs, 16384}, {"add.out", out, 16384}}};
}

Benchmark
make_mul()
{
    // Quantized elementwise multiply with rounding requantization.
    HExpr prod = w16(in8(0, 0)) * w16(in8(0, 0, 1));
    HExpr out = cast(u8, clamp((prod + 128) >> 8, 0, 255));
    return {"mul", "Machine Learning", {{"mul", out, 16384}}};
}

Benchmark
make_mean()
{
    // Mean over a 4-wide window (reduction along x).
    HExpr sum;
    for (int dx = 0; dx < 4; ++dx) {
        HExpr term = w16(in8(dx, 0));
        sum = sum.defined() ? sum + term : term;
    }
    HExpr out = cast(u8, (sum + 2) >> 2);
    return {"mean", "Machine Learning", {{"mean4", out, 8192}}};
}

Benchmark
make_l2norm()
{
    // The Fig. 12 l2norm pattern: broadcast word times widened
    // halfwords. The halfwords are provably non-negative (they come
    // from u8 data), which is what licenses vmpyie.
    HExpr y = s16(load(0, u8, 64)) * 16;
    HExpr prod = broadcast(var("inv_norm", i32), 64) * s32(y);
    HExpr out = cast(i16, prod >> 16);
    return {"l2norm", "Machine Learning", {{"l2norm", out, 8192}}};
}

Benchmark
make_softmax()
{
    // Two requantization stages of the TFLite u8 softmax.
    HExpr diff = s16(in8(0, 0)) - broadcast(s16(var("maxv", u8)),
                                            kLanes);
    HExpr scaled = cast(
        u8, clamp((s32(in16s(0, 0, 2)) * 23 + 16384) >> 15, 0, 255));
    return {"softmax",
            "Machine Learning",
            {{"softmax.diff", diff, 8192},
             {"softmax.scale", scaled, 8192}}};
}

Benchmark
make_average_pool()
{
    // 2x2 average pooling: a u16 partial-sum buffer plus the u8 row
    // being folded in — the Fig. 12 average_pool pattern
    // (wild_u16x + uint16x128(wild_u8x)).
    HExpr partial = in16(0, 0, 1) + w16(in8(0, 0));
    HExpr out = cast(u8, (in16(0, 0, 2) + w16(in8(0, 1)) + 2) >> 2);
    // A real two-stage DAG: pool.out's buffer 2 is pool.partial's
    // output, so the compiler can negotiate the boundary layout.
    return {"average_pool",
            "Machine Learning",
            {{"pool.partial", partial, 8192},
             {"pool.out", out, 8192, {{2, "pool.partial"}}}}};
}

Benchmark
make_max_pool()
{
    HExpr m = max(max(in8(0, 0), in8(1, 0)),
                  max(in8(0, 1), in8(1, 1)));
    return {"max_pool", "Machine Learning", {{"maxpool2x2", m, 8192}}};
}

Benchmark
make_fully_connected()
{
    // Dot-product row with bias: weights are broadcast scalars.
    HExpr acc = broadcast(var("bias", i16), kLanes);
    for (int k = 0; k < 4; ++k) {
        HExpr w = var(std::string("w").append(std::to_string(k)), u8);
        acc = acc + s16(broadcast(w, kLanes)) * s16(in8(0, k));
    }
    HExpr out = cast(u8, clamp((acc + 64) >> 7, 0, 255));
    return {"fully_connected", "Machine Learning",
            {{"fc", out, 16384}}};
}

Benchmark
make_conv_nn()
{
    // NN convolution: 3x3, 32-bit accumulators, fused requantize.
    const int w[3][3] = {{3, 11, 3}, {11, 40, 11}, {3, 11, 3}};
    HExpr sum;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            HExpr term = s32(s16(in8(dx, dy))) * (w[dy + 1][dx + 1] * 29);
            sum = sum.defined() ? sum + term : term;
        }
    }
    HExpr out = cast(u8, clamp((sum + 4096) >> 13, 0, 255));
    return {"conv_nn", "Machine Learning", {{"conv_nn", out, 16384}}};
}

Benchmark
make_depthwise_conv()
{
    // Depthwise 3x3: per-channel convolution in two stages through an
    // intermediate buffer. The paper's §7.3 regression came from Rake
    // optimizing each stage separately and being unable to re-layout
    // the intermediate; expressed as a real DAG, the compiler's layout
    // negotiation now measures (and removes) that boundary cost.
    const int w[3] = {1, 6, 1};
    HExpr row;
    for (int dx = -1; dx <= 1; ++dx) {
        HExpr term = w16(in8(dx, 0)) * w[dx + 1];
        row = row.defined() ? row + term : term;
    }
    HExpr col;
    for (int dy = -1; dy <= 1; ++dy) {
        HExpr term = in16(0, dy, 1) * w[dy + 1];
        col = col.defined() ? col + term : term;
    }
    HExpr out = cast(u8, clamp((col + 32) >> 6, 0, 255));
    return {"depthwise_conv",
            "Machine Learning",
            {{"dw.row", row, 16384},
             {"dw.out", out, 16384, {{1, "dw.row"}}}}};
}

// ------------------------------------------------------------------
// Fused multi-stage pipelines (whole-pipeline selection corpus)
// ------------------------------------------------------------------

Benchmark
make_blur_sobel_threshold()
{
    // blur -> sobel -> threshold: three chained stages. The
    // blur->sobel edge reads the intermediate at dx = +-1, so it is
    // not re-layoutable (whole-row permutes cannot express a shifted
    // read) and must stay natural — the negotiation's gating case.
    auto avg = [&](HExpr a, HExpr b) {
        return cast(u8, (w16(a) + w16(b) + 1) >> 1);
    };
    HExpr blur = avg(avg(in8(0, 0), in8(1, 0)),
                     avg(in8(0, 1), in8(1, 1)));

    auto x_avg = [&](int dy) {
        return w16(in8(-1, dy, 1)) + w16(in8(0, dy, 1)) * 2 +
               w16(in8(1, dy, 1));
    };
    auto y_avg = [&](int dx) {
        return w16(in8(dx, -1, 1)) + w16(in8(dx, 0, 1)) * 2 +
               w16(in8(dx, 1, 1));
    };
    HExpr sobel = cast(u8, clamp(absd(x_avg(-1), x_avg(1)) +
                                     absd(y_avg(-1), y_avg(1)),
                                 0, 255));

    HExpr thresh = max(min(in8(0, 0, 2), 200), 50);
    return {"blur_sobel_threshold",
            "Fused Pipelines",
            {{"bst.blur", blur, 8160},
             {"bst.sobel", sobel, 8160, {{1, "bst.blur"}}},
             {"bst.threshold", thresh, 8160, {{2, "bst.sobel"}}}}};
}

Benchmark
make_stereo_absdiff()
{
    // Two identical smoothing stages over different camera inputs
    // feeding an absolute-difference stage. In slot space the left
    // and right smooths are structurally identical, so hash-consing
    // collapses them to one canonical subtree — one synthesis query
    // and one cache entry serve both stages.
    auto smooth = [&](int buf) {
        return cast(u8, (w16(in8(0, 0, buf)) + w16(in8(1, 0, buf)) +
                         w16(in8(0, 1, buf)) + w16(in8(1, 1, buf)) + 2) >>
                            2);
    };
    HExpr left = smooth(0);
    HExpr right = smooth(1);
    HExpr diff = absd(in8(0, 0, 2), in8(0, 0, 3));
    return {"stereo_absdiff",
            "Fused Pipelines",
            {{"stereo.left", left, 8160},
             {"stereo.right", right, 8160},
             {"stereo.diff", diff, 8160,
              {{2, "stereo.left"}, {3, "stereo.right"}}}}};
}

std::vector<Benchmark>
make_suite()
{
    return {
        make_sobel(),
        make_dilate(),
        make_box_blur(),
        make_median(),
        make_gaussian3x3(),
        make_gaussian5x5(),
        make_gaussian7x7(),
        make_conv3x3("conv3x3a16", false),
        make_conv3x3("conv3x3a32", true),
        make_camera_pipe(),
        make_matmul(),
        make_add(),
        make_mul(),
        make_mean(),
        make_l2norm(),
        make_softmax(),
        make_average_pool(),
        make_max_pool(),
        make_fully_connected(),
        make_conv_nn(),
        make_depthwise_conv(),
    };
}

std::vector<Benchmark>
make_fused_suite()
{
    return {
        make_blur_sobel_threshold(),
        make_stereo_absdiff(),
        make_average_pool(),
        make_depthwise_conv(),
    };
}

} // namespace

const std::vector<Benchmark> &
benchmark_suite()
{
    static const std::vector<Benchmark> suite = make_suite();
    return suite;
}

const std::vector<Benchmark> &
fused_suite()
{
    static const std::vector<Benchmark> suite = make_fused_suite();
    return suite;
}

const Benchmark &
benchmark(const std::string &name)
{
    for (const Benchmark &b : benchmark_suite()) {
        if (b.name == name)
            return b;
    }
    for (const Benchmark &b : fused_suite()) {
        if (b.name == name)
            return b;
    }
    throw UserError("unknown benchmark: " + name);
}

hir::ExprPtr
sobel_expr()
{
    return benchmark("sobel").exprs[0].expr;
}

} // namespace rake::pipeline
