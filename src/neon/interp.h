/**
 * @file
 * Executable semantics of the Neon instruction model: the shared
 * interpreter (isa/interp.h) over Neon's lane functions
 * (neon/semantics.h), instantiated once in interp.cc.
 */
#ifndef RAKE_NEON_INTERP_H
#define RAKE_NEON_INTERP_H

#include "isa/interp.h"
#include "neon/instr.h"

extern template class rake::isa::Interpreter<rake::neon::Traits>;

namespace rake::neon {

using Interpreter = isa::Interpreter<Traits>;
using isa::evaluate;

} // namespace rake::neon

#endif // RAKE_NEON_INTERP_H
