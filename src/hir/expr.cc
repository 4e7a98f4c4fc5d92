#include "hir/expr.h"

#include <functional>

#include "base/arith.h"
#include "support/error.h"
#include "support/structural.h"

namespace rake::hir {

int
arity(Op op)
{
    switch (op) {
      case Op::Load:
      case Op::Const:
      case Op::Var:
        return 0;
      case Op::Cast:
      case Op::Broadcast:
      case Op::Not:
        return 1;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Min:
      case Op::Max:
      case Op::AbsDiff:
      case Op::ShiftLeft:
      case Op::ShiftRight:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Lt:
      case Op::Le:
      case Op::Eq:
        return 2;
      case Op::Select:
        return 3;
    }
    RAKE_UNREACHABLE("bad Op");
}

std::string
to_string(Op op)
{
    switch (op) {
      case Op::Load:
        return "load";
      case Op::Const:
        return "const";
      case Op::Var:
        return "var";
      case Op::Cast:
        return "cast";
      case Op::Broadcast:
        return "broadcast";
      case Op::Add:
        return "add";
      case Op::Sub:
        return "sub";
      case Op::Mul:
        return "mul";
      case Op::Min:
        return "min";
      case Op::Max:
        return "max";
      case Op::AbsDiff:
        return "absd";
      case Op::ShiftLeft:
        return "shl";
      case Op::ShiftRight:
        return "shr";
      case Op::And:
        return "and";
      case Op::Or:
        return "or";
      case Op::Xor:
        return "xor";
      case Op::Not:
        return "not";
      case Op::Lt:
        return "lt";
      case Op::Le:
        return "le";
      case Op::Eq:
        return "eq";
      case Op::Select:
        return "select";
    }
    RAKE_UNREACHABLE("bad Op");
}

std::string
to_string(const LoadRef &l)
{
    auto off = [](int d) {
        std::string s = d > 0 ? "+" : "";
        if (d != 0)
            s += std::to_string(d);
        return s;
    };
    std::string s = "b";
    s += std::to_string(l.buffer);
    return s + "(x" + off(l.dx) + ", y" + off(l.dy) + ")";
}

Expr::Expr(Op op, VecType type, std::vector<ExprPtr> args, int64_t imm,
           LoadRef load, std::string var)
    : op_(op), type_(type), args_(std::move(args)), imm_(imm), load_(load),
      var_(std::move(var))
{
    hash_ = compute_hash(op_, type_, args_, imm_, load_, var_);
}

size_t
Expr::compute_hash(Op op, const VecType &type,
                   const std::vector<ExprPtr> &args, int64_t imm,
                   const LoadRef &load, const std::string &var)
{
    size_t h = static_cast<size_t>(op);
    h = hash_mix(h, static_cast<size_t>(type.elem));
    h = hash_mix(h, static_cast<size_t>(type.lanes));
    h = hash_mix(h, std::hash<int64_t>{}(imm));
    // Unsigned, so no buffer id can overflow; the int is the same
    // wherever the signed sum fitted.
    const unsigned at = static_cast<unsigned>(load.buffer) * 8191u +
                        static_cast<unsigned>(load.dx) * 31u +
                        static_cast<unsigned>(load.dy);
    h = hash_mix(h, std::hash<int>{}(static_cast<int>(at)));
    h = hash_mix(h, std::hash<std::string>{}(var));
    for (const auto &a : args)
        h = hash_mix(h, a->hash());
    return h;
}

ExprPtr
Expr::make_load(LoadRef ref, VecType type)
{
    RAKE_USER_CHECK(type.lanes >= 1, "load must have >= 1 lane");
    RAKE_USER_CHECK(ref.offsets_in_range(), "load offsets past "
                                                << kMaxOffset << ": "
                                                << to_string(ref));
    return ExprPtr(
        new Expr(Op::Load, type, {}, 0, ref, std::string()));
}

ExprPtr
Expr::make_const(int64_t v, VecType type)
{
    return ExprPtr(new Expr(Op::Const, type, {}, wrap(type.elem, v),
                            LoadRef{}, std::string()));
}

ExprPtr
Expr::make_var(const std::string &name, VecType type)
{
    RAKE_USER_CHECK(type.lanes == 1, "variables are scalar; broadcast to "
                                     "vectorize");
    return ExprPtr(new Expr(Op::Var, type, {}, 0, LoadRef{}, name));
}

ExprPtr
Expr::make_cast(ScalarType elem, ExprPtr a)
{
    RAKE_USER_CHECK(a != nullptr, "cast of null expression");
    VecType t = a->type().with_elem(elem);
    return ExprPtr(new Expr(Op::Cast, t, {std::move(a)}, 0, LoadRef{},
                            std::string()));
}

ExprPtr
Expr::make_broadcast(ExprPtr a, int lanes)
{
    RAKE_USER_CHECK(a != nullptr, "broadcast of null expression");
    RAKE_USER_CHECK(a->type().lanes == 1, "broadcast input must be scalar");
    RAKE_USER_CHECK(lanes > 1, "broadcast lane count must exceed 1");
    RAKE_USER_CHECK(lanes <= kMaxLanes, "broadcast of " << lanes
                                                        << " lanes exceeds "
                                                        << kMaxLanes);
    VecType t = a->type().with_lanes(lanes);
    return ExprPtr(new Expr(Op::Broadcast, t, {std::move(a)}, 0, LoadRef{},
                            std::string()));
}

ExprPtr
Expr::make(Op op, std::vector<ExprPtr> args)
{
    RAKE_USER_CHECK(op != Op::Load && op != Op::Const && op != Op::Var &&
                        op != Op::Cast && op != Op::Broadcast,
                    "use the dedicated factory for " << to_string(op));
    RAKE_USER_CHECK(static_cast<int>(args.size()) == arity(op),
                    to_string(op) << " expects " << arity(op)
                                  << " arguments, got " << args.size());
    for (const auto &a : args)
        RAKE_USER_CHECK(a != nullptr, "null argument to " << to_string(op));

    const VecType &t0 = args[0]->type();
    for (const auto &a : args) {
        RAKE_USER_CHECK(a->type().lanes == t0.lanes,
                        "lane mismatch in " << to_string(op) << ": "
                                            << to_string(a->type()) << " vs "
                                            << to_string(t0));
    }

    VecType result = t0;
    switch (op) {
      case Op::Lt:
      case Op::Le:
      case Op::Eq:
        // Element types of operands must match; result is a lane mask.
        RAKE_USER_CHECK(args[0]->type().elem == args[1]->type().elem,
                        "comparison operand element types differ");
        result = t0.with_elem(ScalarType::Int8);
        break;
      case Op::Select:
        RAKE_USER_CHECK(args[1]->type() == args[2]->type(),
                        "select branches must have identical type");
        result = args[1]->type();
        break;
      default:
        for (const auto &a : args) {
            RAKE_USER_CHECK(a->type().elem == t0.elem,
                            to_string(op)
                                << " operand element types differ: "
                                << to_string(a->type()) << " vs "
                                << to_string(t0));
        }
        break;
    }
    return ExprPtr(new Expr(op, result, std::move(args), 0, LoadRef{},
                            std::string()));
}

bool
Expr::equals(const Expr &other) const
{
    if (this == &other)
        return true;
    if (op_ != other.op_ || !(type_ == other.type_) ||
        hash_ != other.hash_ || imm_ != other.imm_ ||
        !(load_ == other.load_) || var_ != other.var_ ||
        args_.size() != other.args_.size())
        return false;
    for (size_t i = 0; i < args_.size(); ++i) {
        if (!args_[i]->equals(*other.args_[i]))
            return false;
    }
    return true;
}

int
Expr::node_count() const
{
    int n = 1;
    for (const auto &a : args_)
        n += a->node_count();
    return n;
}

int
Expr::depth() const
{
    int d = 0;
    for (const auto &a : args_)
        d = std::max(d, a->depth());
    return d + 1;
}

bool
equal(const ExprPtr &a, const ExprPtr &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    return a->equals(*b);
}

bool
is_const(const ExprPtr &e, int64_t v)
{
    return e && e->op() == Op::Const && e->const_value() == v;
}

bool
as_const(const ExprPtr &e, int64_t *v)
{
    if (e && e->op() == Op::Const) {
        *v = e->const_value();
        return true;
    }
    // Broadcast of a constant is still a constant vector.
    if (e && e->op() == Op::Broadcast)
        return as_const(e->arg(0), v);
    return false;
}

} // namespace rake::hir
