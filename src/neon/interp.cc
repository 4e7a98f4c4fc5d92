#include "neon/interp.h"

#include "neon/semantics.h"

template class rake::isa::Interpreter<rake::neon::Traits>;
