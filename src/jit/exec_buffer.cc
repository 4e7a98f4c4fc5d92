#include "jit/exec_buffer.h"

#include <cstring>

#include "support/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define RAKE_JIT_HAVE_MMAP 1
#endif

namespace rake::jit {

ExecBuffer::~ExecBuffer() { release(); }

ExecBuffer::ExecBuffer(ExecBuffer &&other) noexcept
    : base_(other.base_), size_(other.size_), mapped_(other.mapped_)
{
    other.base_ = nullptr;
    other.size_ = 0;
    other.mapped_ = 0;
}

ExecBuffer &
ExecBuffer::operator=(ExecBuffer &&other) noexcept
{
    if (this != &other) {
        release();
        base_ = other.base_;
        size_ = other.size_;
        mapped_ = other.mapped_;
        other.base_ = nullptr;
        other.size_ = 0;
        other.mapped_ = 0;
    }
    return *this;
}

void
ExecBuffer::release()
{
#ifdef RAKE_JIT_HAVE_MMAP
    if (base_ != nullptr)
        ::munmap(base_, mapped_);
#endif
    base_ = nullptr;
    size_ = 0;
    mapped_ = 0;
}

void
ExecBuffer::seal(const std::vector<uint8_t> &code)
{
    RAKE_USER_CHECK(!code.empty(), "cannot seal an empty code buffer");
    RAKE_USER_CHECK(base_ == nullptr, "ExecBuffer sealed twice");
#ifdef RAKE_JIT_HAVE_MMAP
    const long page = ::sysconf(_SC_PAGESIZE);
    const size_t ps = page > 0 ? static_cast<size_t>(page) : 4096;
    const size_t len = (code.size() + ps - 1) / ps * ps;
    void *mem = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    RAKE_USER_CHECK(mem != MAP_FAILED,
                    "jit: mmap of " << len << " bytes failed");
    std::memcpy(mem, code.data(), code.size());
    // W^X: drop write before gaining execute; the region is never
    // writable and executable at once.
    if (::mprotect(mem, len, PROT_READ | PROT_EXEC) != 0) {
        ::munmap(mem, len);
        RAKE_USER_CHECK(false,
                        "jit: mprotect(PROT_EXEC) refused (hardened "
                        "host policy?); native execution unavailable");
    }
    base_ = mem;
    size_ = code.size();
    mapped_ = len;
#else
    RAKE_USER_CHECK(false, "jit: no executable-memory support on this "
                           "platform");
#endif
}

} // namespace rake::jit
