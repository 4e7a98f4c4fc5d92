/**
 * @file
 * Executable semantics of the HVX instruction model: the shared
 * interpreter (isa/interp.h) over HVX's lane functions
 * (hvx/semantics.h), instantiated once in interp.cc.
 */
#ifndef RAKE_HVX_INTERP_H
#define RAKE_HVX_INTERP_H

#include "hvx/instr.h"
#include "isa/interp.h"

extern template class rake::isa::Interpreter<rake::hvx::Traits>;

namespace rake::hvx {

using Interpreter = isa::Interpreter<Traits>;
using isa::evaluate;

} // namespace rake::hvx

#endif // RAKE_HVX_INTERP_H
