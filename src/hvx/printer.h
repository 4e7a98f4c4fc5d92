/**
 * @file
 * Renderers for HVX instruction DAGs: a nested intrinsic-call form
 * (like the paper's Fig. 4 / Fig. 12 listings), and the shared flat
 * listing (isa/text.h) with virtual registers v0, v1, ... named by
 * concrete_name().
 */
#ifndef RAKE_HVX_PRINTER_H
#define RAKE_HVX_PRINTER_H

#include <string>

#include "hvx/instr.h"
#include "isa/text.h"

namespace rake::hvx {

/** Nested intrinsic-call rendering with type suffixes. */
std::string to_string(const InstrPtr &n);

/** Flat listing: one instruction per line, `v3 = vadd.h(v1, v2)`. */
using isa::to_listing;

/** Concrete intrinsic name with the type suffix (e.g. "vadd.h"). */
std::string concrete_name(const Instr &n);

} // namespace rake::hvx

#endif // RAKE_HVX_PRINTER_H
