#include "hvx/interp.h"

#include "hvx/semantics.h"

template class rake::isa::Interpreter<rake::hvx::Traits>;
