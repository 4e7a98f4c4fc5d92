/**
 * @file
 * Structural identity of immutable DAG nodes, for every node type
 * with a cached `size_t hash() const` and a deep
 * `bool equals(const Node &) const` (isa::Node, the instruction node
 * of every ISA).
 *
 * Keyed this way, separately built but structurally equal nodes are
 * one key. Both cost models count a DAG so: one program has one cost
 * whether the search shared its nodes or an s-expression parse
 * rebuilt them unshared. sim/linearize.cc's CSE merges by the same
 * rule.
 */
#ifndef RAKE_SUPPORT_STRUCTURAL_H
#define RAKE_SUPPORT_STRUCTURAL_H

#include <cstddef>
#include <unordered_set>
#include <vector>

namespace rake {

/** Folds `v` into the running node hash `h`. */
inline size_t
hash_mix(size_t h, size_t v)
{
    return h * 1000003u ^ (v + 0x9e3779b9 + (h << 6) + (h >> 2));
}

/** Hashes a node pointer (raw or shared) by the node's structure. */
struct StructuralHash {
    template <typename P>
    size_t
    operator()(const P &n) const
    {
        return n->hash();
    }
};

/** Compares two node pointers (raw or shared) by structure. */
struct StructuralEqual {
    template <typename P>
    bool
    operator()(const P &a, const P &b) const
    {
        return a->equals(*b);
    }
};

/**
 * Calls `visit(node)` once per structurally distinct node of the DAG
 * rooted at `root`. A node equal to one already visited is skipped
 * with its operands, which are then equal too.
 */
template <typename Node, typename Visit>
void
for_each_distinct_node(const Node &root, Visit &&visit)
{
    std::unordered_set<const Node *, StructuralHash, StructuralEqual> seen;
    std::vector<const Node *> stack{&root};
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        if (seen.insert(n).second) {
            visit(*n);
            for (const auto &a : n->args())
                stack.push_back(a.get());
        }
    }
}

} // namespace rake

#endif // RAKE_SUPPORT_STRUCTURAL_H
