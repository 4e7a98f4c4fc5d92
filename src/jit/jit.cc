#include "jit/jit.h"

#include <algorithm>
#include <cstdlib>

#include "base/arith.h"
#include "hir/interp.h"
#include "support/error.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace rake::jit {

bool
available()
{
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
    return true;
#else
    return false;
#endif
}

std::string
to_string(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "avx2";
    }
    RAKE_UNREACHABLE("bad SimdLevel");
}

namespace {

bool
cpu_has_avx2()
{
#if defined(__x86_64__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    // AVX2 instructions present?
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0 ||
        (b & (1u << 5)) == 0)
        return false;
    // OS saves ymm state? Requires OSXSAVE + AVX, then XCR0[2:1].
    if (__get_cpuid(1, &a, &b, &c, &d) == 0)
        return false;
    if ((c & (1u << 27)) == 0 || (c & (1u << 28)) == 0)
        return false;
    uint32_t xlo = 0, xhi = 0;
    __asm__ volatile("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
    return (xlo & 0x6) == 0x6;
#else
    return false;
#endif
}

SimdLevel
resolve_simd_level()
{
    // CPUID traps to the hypervisor on virtual hosts (about 7 us per
    // probe), and the answer cannot change while the process runs.
    static const bool has_avx2 = cpu_has_avx2();
    const char *env = std::getenv("RAKE_JIT_SIMD");
    if (env == nullptr || *env == '\0')
        return has_avx2 ? SimdLevel::Avx2 : SimdLevel::Scalar;
    const std::string want(env);
    if (want == "scalar")
        return SimdLevel::Scalar;
    if (want == "avx2") {
        RAKE_USER_CHECK(has_avx2,
                        "RAKE_JIT_SIMD=avx2 but this CPU/OS does not "
                        "support AVX2");
        return SimdLevel::Avx2;
    }
    RAKE_USER_CHECK(false, "RAKE_JIT_SIMD must be scalar|avx2; got \""
                               << want << "\"");
}

} // namespace

SimdLevel
simd_level()
{
    // RAKE_JIT_SIMD is read per call, not cached: tests retarget it
    // mid-process to cover every tier.
    return resolve_simd_level();
}

Runner::Runner(const Program &program, const Env &env)
    : program_(&program), bufs_(program.buf_ids_.size()),
      arena_(program.arena_)
{
    bind(env);
}

void
Runner::bind(const Env &env)
{
    const Program &p = *program_;
    for (size_t k = 0; k < p.buf_ids_.size(); ++k) {
        const int id = p.buf_ids_[k];
        const Buffer &b = env.buffer(id);
        const auto it = p.load_elems_.find(id);
        RAKE_CHECK(it != p.load_elems_.end(), "descriptor without a load");
        RAKE_USER_CHECK(b.elem == it->second,
                        "jit: buffer " << id << " is " << to_string(b.elem)
                                       << " but the program loads "
                                       << to_string(it->second));
        RAKE_USER_CHECK(b.width > 0 && b.height > 0,
                        "jit: empty buffer " << id);
        BufferDesc &desc = bufs_[k];
        desc.data = b.cells();
        desc.width = b.width;
        desc.height = b.height;
        desc.x0 = b.x0;
        desc.y0 = b.y0;
    }
    hir::Interpreter scalars(env);
    for (const Program::SplatSite &sp : p.splats_) {
        const int64_t c = wrap(sp.elem, scalars.eval(sp.expr).as_scalar());
        std::fill_n(arena_.begin() + sp.slot, sp.lanes, c);
    }
}

void
Runner::run(int x, int y, int64_t *dst)
{
    Frame frame;
    frame.x = x;
    frame.y = y;
    frame.bufs = bufs_.data();
    frame.arena = arena_.data();
    frame.dst = dst;
    program_->fn_(&frame);
}

void
Program::bind(const Env &env)
{
    if (bound_)
        bound_->bind(env);
    else
        bound_.emplace(*this, env);
}

const Value &
Program::run(int x, int y)
{
    RAKE_CHECK(bound_, "jit: run() before bind()");
    bound_->run(x, y, out_value_.lanes.data());
    return out_value_;
}

} // namespace rake::jit
