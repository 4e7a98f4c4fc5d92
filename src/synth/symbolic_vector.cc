#include "synth/symbolic_vector.h"

#include "base/arith.h"
#include "support/error.h"

namespace rake::synth {

std::string
to_string(Layout l)
{
    return l == Layout::Linear ? "linear" : "deinterleaved";
}

int
layout_source_lane(Layout layout, int lanes, int i)
{
    if (layout == Layout::Linear || lanes % 2 != 0)
        return i;
    const int h = lanes / 2;
    return i < h ? 2 * i : 2 * (i - h) + 1;
}

Value
apply_layout(const Value &linear, Layout layout)
{
    Value v;
    apply_layout_into(linear, layout, v);
    return v;
}

void
apply_layout_into(const Value &linear, Layout layout, Value &out)
{
    out.reset(linear.type);
    if (layout == Layout::Linear) {
        out.lanes = linear.lanes;
        return;
    }
    for (int i = 0; i < linear.type.lanes; ++i)
        out[i] = linear[layout_source_lane(layout, linear.type.lanes, i)];
}

bool
Cell::operator==(const Cell &o) const
{
    return kind == o.kind && buffer == o.buffer && dy == o.dy &&
           x == o.x && source == o.source && lane == o.lane;
}

bool
Cell::operator<(const Cell &o) const
{
    auto key = [](const Cell &c) {
        return std::make_tuple(static_cast<int>(c.kind), c.buffer, c.dy,
                               c.x, c.source, c.lane);
    };
    return key(*this) < key(o);
}

Arrangement
window_cells(int buffer, int dy, int x0, int n)
{
    Arrangement a;
    a.reserve(n);
    for (int i = 0; i < n; ++i)
        a.push_back(Cell::buf(buffer, dy, x0 + i));
    return a;
}

Arrangement
source_cells(int source, int lanes)
{
    Arrangement a;
    a.reserve(lanes);
    for (int i = 0; i < lanes; ++i)
        a.push_back(Cell::src(source, i));
    return a;
}

Arrangement
concat(const Arrangement &a, const Arrangement &b)
{
    Arrangement out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

Arrangement
deinterleave(const Arrangement &a)
{
    RAKE_CHECK(a.size() % 2 == 0, "deinterleave of odd arrangement");
    Arrangement out;
    out.reserve(a.size());
    for (size_t i = 0; i < a.size(); i += 2)
        out.push_back(a[i]);
    for (size_t i = 1; i < a.size(); i += 2)
        out.push_back(a[i]);
    return out;
}

Arrangement
interleave(const Arrangement &a)
{
    RAKE_CHECK(a.size() % 2 == 0, "interleave of odd arrangement");
    const size_t h = a.size() / 2;
    Arrangement out(a.size(), Cell::zero());
    for (size_t i = 0; i < h; ++i) {
        out[2 * i] = a[i];
        out[2 * i + 1] = a[h + i];
    }
    return out;
}

Arrangement
rotate(const Arrangement &a, int r)
{
    const int n = static_cast<int>(a.size());
    Arrangement out(a.size(), Cell::zero());
    for (int i = 0; i < n; ++i)
        out[i] = a[(i + r) % n];
    return out;
}

bool
is_window(const Arrangement &a, int *buffer, int *dy, int *x0)
{
    if (a.empty() || a[0].kind != Cell::Kind::Buf)
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Cell &c = a[i];
        if (c.kind != Cell::Kind::Buf || c.buffer != a[0].buffer ||
            c.dy != a[0].dy || c.x != a[0].x + static_cast<int>(i))
            return false;
    }
    *buffer = a[0].buffer;
    *dy = a[0].dy;
    *x0 = a[0].x;
    return true;
}

bool
is_source_identity(const Arrangement &a, int *source)
{
    if (a.empty() || a[0].kind != Cell::Kind::Src || a[0].lane != 0)
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Cell &c = a[i];
        if (c.kind != Cell::Kind::Src || c.source != a[0].source ||
            c.lane != static_cast<int>(i))
            return false;
    }
    *source = a[0].source;
    return true;
}

Value
arrangement_value_from(const Hole &hole, const Env &env,
                       const std::vector<Value> &src_values)
{
    RAKE_CHECK(static_cast<int>(hole.cells.size()) == hole.type.lanes,
               "hole arrangement size mismatch");
    Value v = Value::zero(hole.type);
    for (int i = 0; i < hole.type.lanes; ++i) {
        const Cell &c = hole.cells[i];
        switch (c.kind) {
          case Cell::Kind::Zero:
            v[i] = 0;
            break;
          case Cell::Kind::Buf: {
            const Buffer &buf = env.buffer(c.buffer);
            v[i] = wrap(hole.type.elem,
                        buf.at(env.x + c.x, env.y + c.dy));
            break;
          }
          case Cell::Kind::Src: {
            const Value &sv = src_values[c.source];
            RAKE_CHECK(c.lane >= 0 && c.lane < sv.type.lanes,
                       "source lane out of range");
            v[i] = wrap(hole.type.elem, sv[c.lane]);
            break;
          }
        }
    }
    return v;
}

} // namespace rake::synth
