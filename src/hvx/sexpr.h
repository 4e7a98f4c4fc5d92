/**
 * @file
 * S-expression interchange for synthesized HVX code: the shared codec
 * (isa/text.h) over HVX's opcode table. The paper's implementation
 * converts the s-expressions Rake synthesizes back into Halide IR
 * through a parser inside Halide (§6); this is the same round trip
 * for our HVX instruction DAGs, so generated code can be exported,
 * stored, or re-imported.
 */
#ifndef RAKE_HVX_SEXPR_H
#define RAKE_HVX_SEXPR_H

#include <string>

#include "hvx/instr.h"
#include "isa/text.h"

namespace rake::hvx {

using isa::to_sexpr;

/** Parse an instruction back; throws UserError on malformed input. */
inline InstrPtr
parse_instr(const std::string &text)
{
    return isa::parse_instr<Traits>(text);
}

} // namespace rake::hvx

#endif // RAKE_HVX_SEXPR_H
