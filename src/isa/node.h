/**
 * @file
 * The immutable instruction-DAG node every target ISA shares: the
 * output language of Rake's lowering stage (paper §4-§5) and of the
 * baselines, for HVX (hvx/instr.h) and Neon (neon/instr.h) alike.
 *
 * A node is one instruction, or a free register rename, or one of
 * three leaves: a vector load of a buffer window, a broadcast of a
 * scalar HIR expression, and the ??-hole a sketch leaves for swizzle
 * synthesis. Its children are the producing instructions, and its
 * type counts elements, not registers. Paper §6 retargets Rake by
 * swapping only the instruction repertoire; so does this template. An
 * ISA's `Traits` type supplies it:
 *
 *  - `Op`, the opcode enumeration, and `kRead`, `kSplat` and `kHole`,
 *    its three leaf opcodes;
 *  - `info(op)`, the opcode table, whose rows give `mnemonic`,
 *    `num_args` and `num_imms` (kAnyImms for one or more), and
 *    `free(op)`: the opcode costs no issue slot;
 *  - `result_type(op, args, imms, out_elem)`, the typing rule, which
 *    refuses an ill-typed node with a UserError (see require());
 *  - `kName` and `kRegister`, which name the ISA in parse errors and
 *    its registers in listings (isa/text.h).
 *
 * The ISA's namespace holds the rest of its repertoire, found by
 * argument-dependent lookup: `lane_semantics` (the interpreter,
 * isa/interp.h, and the z3 prover), `concrete_name` (listings) and
 * `to_string(op)`.
 */
#ifndef RAKE_ISA_NODE_H
#define RAKE_ISA_NODE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/type.h"
#include "hir/expr.h"
#include "support/error.h"
#include "support/structural.h"

namespace rake::isa {

/** The num_imms of an opcode that takes one or more immediates. */
inline constexpr int kAnyImms = -1;

/** Refuse a node of opcode `op`: UserError "illegal <op>: <why>". */
template <typename Op>
[[noreturn]] void
illegal(Op op, const std::string &why)
{
    throw UserError("illegal " + to_string(op) + ": " + why);
}

/** The typing rules' check: illegal(op, why) unless `cond`. */
template <typename Op>
void
require(bool cond, Op op, const char *why)
{
    if (!cond)
        illegal(op, why);
}

/** An immutable instruction node of the ISA `Traits` describes. */
template <typename TraitsT>
class Node
{
  public:
    using Traits = TraitsT;
    using Op = typename Traits::Op;
    using Ptr = std::shared_ptr<const Node>;

    /** Vector load of `type` from buffer `ref` (elements, not bytes). */
    static Ptr
    make_read(hir::LoadRef ref, VecType type)
    {
        RAKE_USER_CHECK(type.lanes >= 1 && type.lanes <= kMaxLanes,
                        to_string(Traits::kRead) << " must load 1 to "
                                                 << kMaxLanes << " lanes");
        RAKE_USER_CHECK(ref.offsets_in_range(),
                        to_string(Traits::kRead) << " offsets past "
                                                 << kMaxOffset << ": "
                                                 << hir::to_string(ref));
        return Ptr(new Node(Traits::kRead, type, {}, {}, ref, nullptr));
    }

    /**
     * Broadcast of a scalar HIR expression (constant, variable, or
     * scalar arithmetic over them). Loop-invariant: hoisted out of
     * the loop, so it costs nothing inside it (paper Fig. 4 caption).
     */
    static Ptr
    make_splat(hir::ExprPtr scalar, int lanes)
    {
        RAKE_USER_CHECK(scalar != nullptr, "null splat payload");
        RAKE_USER_CHECK(scalar->type().lanes == 1,
                        to_string(Traits::kSplat)
                            << " payload must be scalar");
        RAKE_USER_CHECK(lanes >= 1 && lanes <= kMaxLanes,
                        to_string(Traits::kSplat) << " must have 1 to "
                                                  << kMaxLanes << " lanes");
        const VecType t(scalar->type().elem, lanes);
        return Ptr(new Node(Traits::kSplat, t, {}, {}, hir::LoadRef{},
                            std::move(scalar)));
    }

    /**
     * A ??load / ??swizzle placeholder of the given type (paper §4).
     * Only appears inside sketches during synthesis; `id` indexes the
     * sketch's hole table.
     */
    static Ptr
    make_hole(int id, VecType type)
    {
        RAKE_USER_CHECK(id >= 0, "hole id must be non-negative");
        return Ptr(new Node(Traits::kHole, type, {}, {id}, hir::LoadRef{},
                            nullptr));
    }

    /**
     * Any other node. The operand and immediate counts come from the
     * opcode table; the result type from the ISA's typing rule, with
     * `out_elem` naming the element type of ops that leave it free
     * (bitcasts, saturating narrows).
     */
    static Ptr
    make(Op op, std::vector<Ptr> args, std::vector<int64_t> imms = {},
         ScalarType out_elem = ScalarType::Int32)
    {
        RAKE_USER_CHECK(op != Traits::kRead && op != Traits::kSplat &&
                            op != Traits::kHole,
                        "use the dedicated factory for " << to_string(op));
        const auto &oi = Traits::info(op);
        if (static_cast<int>(args.size()) != oi.num_args)
            illegal(op, "expects " + std::to_string(oi.num_args) +
                            " args, got " + std::to_string(args.size()));
        const bool any = oi.num_imms == kAnyImms;
        if (any ? imms.empty()
                : static_cast<int>(imms.size()) != oi.num_imms)
            illegal(op, "expects " +
                            (any ? std::string("one or more")
                                 : std::to_string(oi.num_imms)) +
                            " imms, got " + std::to_string(imms.size()));
        for (const auto &a : args)
            RAKE_USER_CHECK(a != nullptr,
                            "null argument to " << to_string(op));
        const VecType result =
            Traits::result_type(op, args, imms, out_elem);
        // Operands are within the ceiling, so computing `result` could
        // not overflow; a result past it is refused before anything
        // grows it.
        if (result.lanes > kMaxLanes)
            illegal(op, "result of " + std::to_string(result.lanes) +
                            " lanes exceeds the ceiling of " +
                            std::to_string(kMaxLanes));
        return Ptr(new Node(op, result, std::move(args), std::move(imms),
                            hir::LoadRef{}, nullptr));
    }

    /** Hole table index (Hole nodes only). */
    int
    hole_id() const
    {
        RAKE_CHECK(op_ == Traits::kHole, "hole_id of a non-hole");
        return static_cast<int>(imms_[0]);
    }

    Op op() const { return op_; }
    const VecType &type() const { return type_; }
    const std::vector<Ptr> &args() const { return args_; }
    const Ptr &arg(int i) const { return args_[i]; }
    int num_args() const { return static_cast<int>(args_.size()); }
    const std::vector<int64_t> &imms() const { return imms_; }
    int64_t imm(int i) const { return imms_[i]; }

    /** Load payload; valid only when op() == Traits::kRead. */
    const hir::LoadRef &load_ref() const { return load_; }

    /** Scalar payload; valid only when op() == Traits::kSplat. */
    const hir::ExprPtr &splat_value() const { return splat_; }

    /** Structural hash (cached). */
    size_t hash() const { return hash_; }

    /** Deep structural equality. */
    bool
    equals(const Node &other) const
    {
        if (this == &other)
            return true;
        if (op_ != other.op_ || !(type_ == other.type_) ||
            hash_ != other.hash_ || imms_ != other.imms_ ||
            !(load_ == other.load_) ||
            args_.size() != other.args_.size() ||
            !hir::equal(splat_, other.splat_))
            return false;
        for (size_t i = 0; i < args_.size(); ++i) {
            if (!args_[i]->equals(*other.args_[i]))
                return false;
        }
        return true;
    }

    /**
     * Instructions in the DAG (structurally equal nodes once), not
     * counting the opcodes that cost no issue slot (Traits::free).
     */
    int
    instruction_count() const
    {
        int count = 0;
        for_each_distinct_node(*this, [&](const Node &n) {
            if (!Traits::free(n.op()))
                ++count;
        });
        return count;
    }

  private:
    Node(Op op, VecType type, std::vector<Ptr> args,
         std::vector<int64_t> imms, hir::LoadRef load, hir::ExprPtr splat)
        : op_(op), type_(type), args_(std::move(args)),
          imms_(std::move(imms)), load_(load), splat_(std::move(splat))
    {
        size_t h = static_cast<size_t>(op_);
        h = hash_mix(h, static_cast<size_t>(type_.elem));
        h = hash_mix(h, static_cast<size_t>(type_.lanes));
        for (int64_t i : imms_)
            h = hash_mix(h, std::hash<int64_t>{}(i));
        // Unsigned, so no buffer id can overflow; the int is the same
        // wherever the signed sum fitted.
        const unsigned at = static_cast<unsigned>(load_.buffer) * 8191u +
                            static_cast<unsigned>(load_.dx) * 31u +
                            static_cast<unsigned>(load_.dy);
        h = hash_mix(h, std::hash<int>{}(static_cast<int>(at)));
        if (splat_)
            h = hash_mix(h, splat_->hash());
        for (const auto &a : args_)
            h = hash_mix(h, a->hash());
        hash_ = h;
    }

    Op op_;
    VecType type_;
    std::vector<Ptr> args_;
    std::vector<int64_t> imms_;
    hir::LoadRef load_;
    hir::ExprPtr splat_;
    size_t hash_ = 0;
};

/** Deep equality through pointers. */
template <typename Traits>
bool
equal(const std::shared_ptr<const Node<Traits>> &a,
      const std::shared_ptr<const Node<Traits>> &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    return a->equals(*b);
}

} // namespace rake::isa

#endif // RAKE_ISA_NODE_H
