#include "ceiling.h"

#include <algorithm>

namespace perfbench {

namespace {

inline int
clampi(int v, int lo, int hi)
{
    return std::min(std::max(v, lo), hi);
}

/**
 * Run `px(xm, x, xp, rows)` over every pixel: xm/xp are the clamped
 * neighbour columns, rows the clamped row above, at and below. The
 * interior columns take a branch-free loop the compiler vectorizes.
 */
template <typename Px>
void
stencil3x3(const uint8_t *in, uint8_t *out, int width, int height, Px px)
{
    for (int y = 0; y < height; ++y) {
        const uint8_t *rows[3] = {in + clampi(y - 1, 0, height - 1) * width,
                                  in + y * width,
                                  in + clampi(y + 1, 0, height - 1) * width};
        uint8_t *o = out + y * width;
        o[0] = px(0, 0, std::min(1, width - 1), rows);
        for (int x = 1; x < width - 1; ++x)
            o[x] = px(x - 1, x, x + 1, rows);
        if (width > 1)
            o[width - 1] = px(width - 2, width - 1, width - 1, rows);
    }
}

} // namespace

void
ceiling_sobel3x3(const uint8_t *in, uint8_t *out, int width, int height)
{
    stencil3x3(in, out, width, height,
               [](int xm, int x, int xp, const uint8_t *const *r) {
                   auto absd = [](uint16_t a, uint16_t b) -> uint16_t {
                       return a > b ? a - b : b - a;
                   };
                   const uint16_t top = r[0][xm] + 2 * r[0][x] + r[0][xp];
                   const uint16_t bot = r[2][xm] + 2 * r[2][x] + r[2][xp];
                   const uint16_t lft = r[0][xm] + 2 * r[1][xm] + r[2][xm];
                   const uint16_t rgt = r[0][xp] + 2 * r[1][xp] + r[2][xp];
                   const uint16_t s = static_cast<uint16_t>(
                       absd(top, bot) + absd(lft, rgt));
                   return static_cast<uint8_t>(s > 255 ? 255 : s);
               });
}

void
ceiling_gaussian3x3(const uint8_t *in, uint8_t *out, int width, int height)
{
    stencil3x3(in, out, width, height,
               [](int xm, int x, int xp, const uint8_t *const *r) {
                   auto row = [&](const uint8_t *p) -> uint16_t {
                       return p[xm] + 2 * p[x] + p[xp];
                   };
                   const uint16_t sum = static_cast<uint16_t>(
                       row(r[0]) + 2 * row(r[1]) + row(r[2]));
                   return static_cast<uint8_t>((sum + 8) >> 4);
               });
}

} // namespace perfbench
