/**
 * @file
 * S-expression interchange for synthesized Neon code: the shared
 * codec (isa/text.h) over Neon's opcode table, so a selected DAG
 * round-trips through the persistent cache (synth/persist.h), the
 * rule tables and the compile server.
 */
#ifndef RAKE_NEON_SEXPR_H
#define RAKE_NEON_SEXPR_H

#include <string>

#include "isa/text.h"
#include "neon/instr.h"

namespace rake::neon {

using isa::to_sexpr;

/** Parse an instruction back; throws UserError on malformed input. */
inline NInstrPtr
parse_instr(const std::string &text)
{
    return isa::parse_instr<Traits>(text);
}

} // namespace rake::neon

#endif // RAKE_NEON_SEXPR_H
