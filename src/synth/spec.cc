#include "synth/spec.h"

#include "support/error.h"

namespace rake::synth {

namespace {

void
collect_var_types(const hir::ExprPtr &e,
                  std::map<std::string, ScalarType> &elem)
{
    if (e->op() == hir::Op::Var) {
        const auto [it, added] =
            elem.emplace(e->var_name(), e->type().elem);
        RAKE_USER_CHECK(added || it->second == e->type().elem,
                        "variable " << e->var_name()
                                    << " used at two types");
    }
    for (const auto &a : e->args())
        collect_var_types(a, elem);
}

void
collect_load_types(const hir::ExprPtr &e,
                   std::map<int, ScalarType> &elem,
                   std::map<int, int> &lanes)
{
    if (e->op() == hir::Op::Load) {
        const int b = e->load_ref().buffer;
        auto it = elem.find(b);
        if (it == elem.end()) {
            elem[b] = e->type().elem;
        } else {
            RAKE_USER_CHECK(it->second == e->type().elem,
                            "buffer " << b
                                      << " loaded at two element types");
        }
        lanes[b] = std::max(lanes[b], e->type().lanes);
    }
    for (const auto &a : e->args())
        collect_load_types(a, elem, lanes);
}

void
fill_buffer(Buffer &buf, int pattern, Rng &rng)
{
    const ScalarType t = buf.elem;
    for (size_t i = 0; i < buf.data.size(); ++i) {
        int64_t v = 0;
        switch (pattern) {
          case 0: // small distinct values: exposes lane permutations
            v = static_cast<int64_t>(i % 17) + 1;
            break;
          case 1: // type maximum everywhere: exposes overflow / sat
            v = max_value(t);
            break;
          case 2: // type minimum everywhere
            v = min_value(t);
            break;
          case 3: // alternating extremes: exposes even/odd mixups
            v = i % 2 == 0 ? max_value(t) : min_value(t);
            break;
          case 4: // ramp with sign flips
            v = (static_cast<int64_t>(i) - 7) * 3;
            break;
          default: // >= ExamplePool::kCornerExamples: seeded random
                 // over the full type range
            v = rng.range(min_value(t), max_value(t));
            break;
        }
        buf.data[i] = wrap(t, v);
    }
}

} // namespace

Spec
Spec::from_expr(const hir::ExprPtr &e)
{
    RAKE_USER_CHECK(e != nullptr, "null specification expression");
    Spec s;
    s.expr = e;
    s.loads = hir::collect_loads(e);
    s.vars = hir::collect_vars(e);
    std::map<int, int> lanes;
    collect_load_types(e, s.buffer_elem, lanes);
    collect_var_types(e, s.var_elem);
    return s;
}

std::map<int, BufferGeometry>
buffer_geometry(const Spec &spec)
{
    std::map<int, ScalarType> elem;
    std::map<int, int> lanes;
    collect_load_types(spec.expr, elem, lanes);

    std::map<int, BufferGeometry> geometry;
    for (const hir::LoadRef &l : spec.loads) {
        auto it = geometry.find(l.buffer);
        if (it == geometry.end()) {
            BufferGeometry g;
            g.elem = elem.at(l.buffer);
            g.min_dx = g.max_dx = l.dx;
            g.min_dy = g.max_dy = l.dy;
            g.lanes = lanes.at(l.buffer);
            geometry.emplace(l.buffer, g);
        } else {
            BufferGeometry &g = it->second;
            g.min_dx = std::min(g.min_dx, l.dx);
            g.max_dx = std::max(g.max_dx, l.dx);
            g.min_dy = std::min(g.min_dy, l.dy);
            g.max_dy = std::max(g.max_dy, l.dy);
        }
    }
    // Margin: candidates may read up to roughly one extra vector on
    // either side (sliding-window pairs, rotations).
    for (auto &[id, g] : geometry)
        g.margin = g.lanes + 8;
    return geometry;
}

Env
make_example_env(const std::map<int, BufferGeometry> &geometry,
                 const std::map<std::string, ScalarType> &vars,
                 int pattern, Rng &rng)
{
    Env env;
    env.x = 0;
    env.y = 0;
    for (const auto &[id, g] : geometry) {
        Buffer buf(g.elem, g.width(), g.height(), g.x0(), g.y0());
        fill_buffer(buf, pattern, rng);
        env.buffers.emplace(id, std::move(buf));
    }
    for (const auto &[name, t] : vars) {
        // Scalar parameters draw a small value and their type's
        // extremes first (a cast of a broadcast scalar wraps where a
        // saturating move would clamp), then random 16-bit values
        // (they mostly feed widening paths).
        int64_t v = 0;
        switch (pattern) {
          case 0:
            v = 1;
            break;
          case 1:
            v = max_value(t);
            break;
          case 2:
            v = min_value(t);
            break;
          default:
            v = rng.range(-32768, 32767);
            break;
        }
        env.scalars[name] = v;
    }
    return env;
}

ExamplePool::ExamplePool(const Spec &spec, uint64_t seed)
    : spec_(spec), rng_(seed), geometry_(buffer_geometry(spec))
{
}

const Env &
ExamplePool::at(int i)
{
    while (size() <= i)
        envs_.push_back(
            make_example_env(geometry_, spec_.var_elem, size(), rng_));
    return envs_[i];
}

const Env &
ExamplePool::next_trial()
{
    // Trials always draw the seeded-random pattern (>= kCornerExamples)
    // regardless of pool size, which is what at(size()) resolves to
    // once the corner prefix is exhausted.
    if (!scratch_valid_) {
        scratch_ = make_example_env(geometry_, spec_.var_elem,
                                    kCornerExamples, rng_);
        scratch_valid_ = true;
        return scratch_;
    }
    // Refill in place. Iteration order (ascending buffer id, then
    // ascending var name) matches make_example_env, so the rng stream
    // is consumed identically.
    for (auto &[id, buf] : scratch_.buffers)
        fill_buffer(buf, kCornerExamples, rng_);
    for (auto &[name, v] : scratch_.scalars)
        v = rng_.range(-32768, 32767);
    return scratch_;
}

void
ExamplePool::adopt_trial()
{
    RAKE_CHECK(scratch_valid_, "adopt_trial without next_trial");
    envs_.push_back(std::move(scratch_));
    scratch_ = Env{};
    scratch_valid_ = false;
}

} // namespace rake::synth
