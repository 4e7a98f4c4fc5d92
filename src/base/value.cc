#include "base/value.h"

#include <mutex>
#include <sstream>

// A cached block is freed memory to everyone but the free list:
// AddressSanitizer reports a read or write of it as it would one of
// freed memory.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, bytes) ((void)(p), (void)(bytes))
#define ASAN_UNPOISON_MEMORY_REGION(p, bytes) ((void)(p), (void)(bytes))
#endif

namespace rake {

std::string
to_string(const Value &v)
{
    std::ostringstream os;
    os << to_string(v.type) << "{";
    for (size_t i = 0; i < v.lanes.size(); ++i) {
        if (i)
            os << ", ";
        os << v.lanes[i];
    }
    os << "}";
    return os.str();
}

namespace {

/** Freed blocks of cell storage, kept for reuse (allocate_cell_bytes). */
struct CellCache {
    struct Block {
        void *p;
        size_t bytes;
    };

    std::mutex mu;
    std::vector<Block> blocks; ///< in the order freed; guarded by mu
    size_t bytes = 0;          ///< sum of blocks' bytes; guarded by mu

    /** Frees every block. Requires mu. */
    void
    release_all()
    {
        for (const Block &b : blocks) {
            ASAN_UNPOISON_MEMORY_REGION(b.p, b.bytes);
            ::operator delete(b.p);
        }
        blocks.clear();
        bytes = 0;
    }
};

CellCache &
cell_cache()
{
    // Never destroyed, so a static that frees its cells after `closer`
    // has emptied the cache at exit still finds a live mutex.
    static CellCache *const cache = new CellCache;
    static struct Closer {
        ~Closer()
        {
            std::lock_guard<std::mutex> lock(cache->mu);
            cache->release_all();
        }
    } closer;
    return *cache;
}

} // namespace

void *
allocate_cell_bytes(size_t bytes)
{
    if (bytes >= kMinCachedCellBytes) {
        CellCache &c = cell_cache();
        std::lock_guard<std::mutex> lock(c.mu);
        for (size_t i = c.blocks.size(); i-- > 0;) {
            if (c.blocks[i].bytes == bytes) {
                void *p = c.blocks[i].p;
                c.blocks.erase(c.blocks.begin() + static_cast<ptrdiff_t>(i));
                c.bytes -= bytes;
                ASAN_UNPOISON_MEMORY_REGION(p, bytes);
                return p;
            }
        }
        c.release_all();
    }
    return ::operator new(bytes);
}

void
free_cell_bytes(void *p, size_t bytes) noexcept
{
    if (bytes >= kMinCachedCellBytes) {
        CellCache &c = cell_cache();
        std::lock_guard<std::mutex> lock(c.mu);
        try {
            c.blocks.push_back({p, bytes});
            c.bytes += bytes;
            ASAN_POISON_MEMORY_REGION(p, bytes);
            return;
        } catch (const std::bad_alloc &) {
            // No room to record the block: it goes back to the heap.
        }
    }
    ::operator delete(p);
}

size_t
cached_cell_bytes()
{
    CellCache &c = cell_cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.bytes;
}

} // namespace rake
