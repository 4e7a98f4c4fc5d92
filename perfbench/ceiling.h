/**
 * @file
 * The host ceiling: the suite's sobel and gaussian3x3 written as plain
 * C++ over u8 images and compiled at -O3 for the build machine. Borders
 * are edge-clamped and arithmetic wraps at 16 bits exactly as the HIR
 * reference does, so the outputs are bit-equal to it.
 */
#ifndef PERFBENCH_CEILING_H
#define PERFBENCH_CEILING_H

#include <cstdint>

namespace perfbench {

void ceiling_sobel3x3(const uint8_t *in, uint8_t *out, int width, int height);
void ceiling_gaussian3x3(const uint8_t *in, uint8_t *out, int width,
                         int height);

} // namespace perfbench

#endif // PERFBENCH_CEILING_H
