/**
 * @file
 * Runtime values: typed lane vectors, input buffers, and evaluation
 * environments shared by all three interpreters (HIR, UIR, HVX).
 */
#ifndef RAKE_BASE_VALUE_H
#define RAKE_BASE_VALUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "base/arith.h"
#include "base/type.h"
#include "support/flat_map.h"

namespace rake {

/**
 * A concrete vector value: a VecType plus one int64 carrier per lane.
 *
 * Lane values are always kept normalized (i.e. wrap(type.elem, lane)
 * == lane) by the interpreters.
 */
struct Value {
    VecType type;
    std::vector<int64_t> lanes;

    Value() = default;

    Value(VecType t, std::vector<int64_t> l) : type(t), lanes(std::move(l))
    {
        RAKE_CHECK(static_cast<int>(lanes.size()) == type.lanes,
                   "lane count mismatch: " << lanes.size() << " vs "
                                           << type.lanes);
    }

    /** A scalar value. */
    static Value
    scalar(ScalarType t, int64_t v)
    {
        return Value(VecType(t, 1), {wrap(t, v)});
    }

    /** Broadcast a scalar to a vector of the given lane count. */
    static Value
    splat(ScalarType t, int lanes, int64_t v)
    {
        return Value(VecType(t, lanes),
                     std::vector<int64_t>(lanes, wrap(t, v)));
    }

    /** All-zero vector. */
    static Value
    zero(VecType t)
    {
        return Value(t, std::vector<int64_t>(t.lanes, 0));
    }

    int64_t operator[](int i) const { return lanes[i]; }
    int64_t &operator[](int i) { return lanes[i]; }

    /**
     * Re-type this value in place, reusing the lane vector's capacity
     * (the interpreters' scratch slots are recycled across
     * evaluations; see DESIGN.md "The equivalence-checking fast
     * path"). All lanes are reset to zero.
     */
    void
    reset(VecType t)
    {
        type = t;
        lanes.assign(static_cast<size_t>(t.lanes), 0);
    }

    /** The single lane of a scalar value. */
    int64_t
    as_scalar() const
    {
        RAKE_CHECK(type.lanes == 1, "as_scalar on " << to_string(type));
        return lanes[0];
    }

    bool
    operator==(const Value &o) const
    {
        return type == o.type && lanes == o.lanes;
    }
    bool operator!=(const Value &o) const { return !(*this == o); }
};

/** Human-readable rendering, e.g. "i16x4{1, 2, 3, 4}". */
std::string to_string(const Value &v);

/**
 * Write lane(i) into every lane of v: the loop in which the
 * interpreters run an opcode's lane function (hir/semantics.h and its
 * siblings). Kept out of line, one small function per opcode, so the
 * compiler inlines the lane function and its arithmetic into the
 * loop; expanded inside a 60-case dispatch, GCC stops inlining
 * wrap() and friends there.
 */
template <typename Lane>
[[gnu::noinline]] void
fill_lanes(Value &v, Lane lane)
{
    int64_t *out = v.lanes.data();
    for (int i = 0; i < v.type.lanes; ++i)
        out[i] = lane(i);
}

/**
 * Smallest block of cell storage the free list keeps: glibc's default
 * mmap threshold. malloc recycles smaller blocks itself, but may hand
 * a larger one back to the kernel on free, and fresh pages fault in
 * one at a time on first touch.
 */
constexpr size_t kMinCachedCellBytes = size_t{128} << 10;

/**
 * Storage of at least kMinCachedCellBytes comes from a process-wide,
 * mutex-guarded free list: a freed block waits there, and a request of
 * the same size takes back the block freed last. A request the list
 * cannot serve first frees every block it holds, so cached plus live
 * storage never exceeds what was already live at once. Smaller
 * requests go straight to operator new and delete.
 */
void *allocate_cell_bytes(size_t bytes);
void free_cell_bytes(void *p, size_t bytes) noexcept;

/** Bytes the free list holds now (read-only; for tests). */
size_t cached_cell_bytes();

/**
 * The allocator of Cells: blocks come from allocate_cell_bytes, and
 * construct() without arguments default-initializes, so resize()
 * leaves new cells unwritten.
 */
template <typename T>
struct CellAllocator {
    using value_type = T;

    CellAllocator() = default;
    template <typename U>
    CellAllocator(const CellAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(allocate_cell_bytes(n * sizeof(T)));
    }
    void
    deallocate(T *p, size_t n) noexcept
    {
        free_cell_bytes(p, n * sizeof(T));
    }

    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const CellAllocator<U> &) const noexcept
    {
        return true;
    }
};

/**
 * The cells of an image or a buffer. resize() and the count
 * constructor leave new cells unwritten, for a whole-image pass whose
 * bands write every one; the (n, value) constructor fills as usual.
 * Blocks of a whole image are recycled (allocate_cell_bytes), so a
 * pass that realizes an image of the size the previous one freed
 * touches no fresh page.
 */
using Cells = std::vector<int64_t, CellAllocator<int64_t>>;

/**
 * A 2-D input buffer an expression loads from.
 *
 * Loads address the buffer as cells()[(y - y0) * width + (x - x0)];
 * out-of-range coordinates clamp to the edge (Halide's default
 * boundary condition for these benchmarks). The cells are either
 * owned (`data`, which synthesis examples and tests fill) or viewed
 * in place (`view`, which the executor points at whole images).
 */
struct Buffer {
    ScalarType elem = ScalarType::UInt8;
    int width = 0;
    int height = 1;
    int x0 = 0; ///< x coordinate of cells()[0]
    int y0 = 0; ///< y coordinate of cells()[0]
    Cells data;
    /** Non-owning cells, width x height row-major; null when owned. */
    const int64_t *view = nullptr;

    Buffer() = default;

    Buffer(ScalarType e, int w, int h = 1, int x_origin = 0,
           int y_origin = 0)
        : elem(e), width(w), height(h), x0(x_origin), y0(y_origin),
          data(static_cast<size_t>(w) * h, 0)
    {
    }

    /**
     * A buffer reading `cells` in place, without a copy. The storage
     * must outlive the buffer and every copy of it.
     */
    static Buffer
    view_of(ScalarType e, int w, int h, const int64_t *cells)
    {
        Buffer b;
        b.elem = e;
        b.width = w;
        b.height = h;
        b.view = cells;
        return b;
    }

    /** The cells loads read: the viewed storage, else `data`. */
    const int64_t *
    cells() const
    {
        return view != nullptr ? view : data.data();
    }

    /** Element at absolute coordinates (x, y), edge-clamped. */
    int64_t
    at(int x, int y) const
    {
        int ix = x - x0;
        int iy = y - y0;
        if (ix < 0)
            ix = 0;
        if (ix >= width)
            ix = width - 1;
        if (iy < 0)
            iy = 0;
        if (iy >= height)
            iy = height - 1;
        return cells()[static_cast<size_t>(iy) * width + ix];
    }

    /**
     * The vector load every interpreter shares: lane i of `out` becomes
     * wrap(out.type.elem, at(x + i, y)). A lane window inside the row
     * is copied straight from it; one that crosses an edge clamps per
     * lane.
     */
    void
    load_window(int x, int y, Value &out) const
    {
        const ScalarType t = out.type.elem;
        const int lanes = out.type.lanes;
        const int iy = std::clamp(y - y0, 0, height - 1);
        const int64_t *row = cells() + static_cast<size_t>(iy) * width;
        int64_t *dst = out.lanes.data();
        const int ix = x - x0;
        if (ix >= 0 && ix <= width - lanes) {
            for (int i = 0; i < lanes; ++i)
                dst[i] = wrap(t, row[ix + i]);
            return;
        }
        for (int i = 0; i < lanes; ++i)
            dst[i] = wrap(t, row[std::clamp(ix + i, 0, width - 1)]);
    }

    /**
     * Mutable owned element at absolute coordinates; must be in range.
     * A view is read-only.
     */
    int64_t &
    at_mut(int x, int y)
    {
        const int ix = x - x0;
        const int iy = y - y0;
        RAKE_CHECK(view == nullptr, "store into a view buffer");
        RAKE_CHECK(ix >= 0 && ix < width && iy >= 0 && iy < height,
                   "store out of range (" << x << ", " << y << ")");
        return data[static_cast<size_t>(iy) * width + ix];
    }
};

/**
 * Evaluation environment: input buffers by id, scalar variables by
 * name, and the (x, y) origin of the vector expression being
 * evaluated (the loop indices of the innermost vectorized loop).
 */
struct Env {
    // Sorted-vector maps: Env lookups are the innermost operation of
    // every synthesis query, and these hold only a handful of
    // entries. Iteration order matches std::map (ascending by key).
    FlatMap<int, Buffer> buffers;
    FlatMap<std::string, int64_t> scalars;
    int x = 0;
    int y = 0;

    const Buffer &
    buffer(int id) const
    {
        auto it = buffers.find(id);
        RAKE_CHECK(it != buffers.end(), "no buffer with id " << id);
        return it->second;
    }

    int64_t
    scalar(const std::string &name) const
    {
        auto it = scalars.find(name);
        RAKE_CHECK(it != scalars.end(), "no scalar variable " << name);
        return it->second;
    }
};

} // namespace rake

#endif // RAKE_BASE_VALUE_H
