#include "hir/sexpr.h"

#include <cctype>
#include <map>

#include "support/error.h"
#include "support/parse.h"

namespace rake::hir {

namespace {

/** Cursor-based recursive-descent s-expression reader. */
class Reader
{
  public:
    explicit Reader(const std::string &text) : text_(text) {}

    SExpr
    read(int depth = 1)
    {
        skip_ws();
        RAKE_USER_CHECK(pos_ < text_.size(), "unexpected end of input");
        if (text_[pos_] == '(') {
            RAKE_USER_CHECK(depth <= kMaxSexprDepth,
                            "s-expression nests deeper than "
                                << kMaxSexprDepth << " levels");
            ++pos_;
            SExpr list;
            while (true) {
                skip_ws();
                RAKE_USER_CHECK(pos_ < text_.size(),
                                "unterminated list in s-expression");
                if (text_[pos_] == ')') {
                    ++pos_;
                    return list;
                }
                list.items.push_back(read(depth + 1));
            }
        }
        RAKE_USER_CHECK(text_[pos_] != ')', "unexpected ')' at position "
                                                << pos_);
        SExpr atom;
        atom.is_atom = true;
        const size_t start = pos_;
        while (pos_ < text_.size() && !std::isspace(text_[pos_]) &&
               text_[pos_] != '(' && text_[pos_] != ')')
            ++pos_;
        atom.atom = text_.substr(start, pos_ - start);
        return atom;
    }

    void
    expect_end()
    {
        skip_ws();
        RAKE_USER_CHECK(pos_ == text_.size(),
                        "trailing characters after s-expression");
    }

  private:
    void
    skip_ws()
    {
        while (pos_ < text_.size() && std::isspace(text_[pos_]))
            ++pos_;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

const std::map<std::string, Op> &
op_table()
{
    static const std::map<std::string, Op> table = {
        {"add", Op::Add},   {"sub", Op::Sub},   {"mul", Op::Mul},
        {"min", Op::Min},   {"max", Op::Max},   {"absd", Op::AbsDiff},
        {"shl", Op::ShiftLeft}, {"shr", Op::ShiftRight},
        {"and", Op::And},   {"or", Op::Or},     {"xor", Op::Xor},
        {"not", Op::Not},   {"lt", Op::Lt},     {"le", Op::Le},
        {"eq", Op::Eq},     {"select", Op::Select},
    };
    return table;
}

} // namespace

SExpr
parse_sexpr(const std::string &text)
{
    Reader r(text);
    SExpr s = r.read();
    r.expect_end();
    return s;
}

ExprPtr
expr_from_sexpr(const SExpr &s)
{
    RAKE_USER_CHECK(!s.is_atom, "expected a list, got atom '" << s.atom
                                                              << "'");
    RAKE_USER_CHECK(!s.items.empty() && s.items[0].is_atom,
                    "expected (op ...) form");
    const std::string &head = s.items[0].atom;
    const int n = static_cast<int>(s.items.size()) - 1;

    auto atom = [&](int i) -> const std::string & {
        RAKE_USER_CHECK(i + 1 < static_cast<int>(s.items.size()) &&
                            s.items[i + 1].is_atom,
                        head << ": argument " << i << " must be an atom");
        return s.items[i + 1].atom;
    };
    auto sub = [&](int i) {
        RAKE_USER_CHECK(i + 1 < static_cast<int>(s.items.size()),
                        head << ": missing argument " << i);
        return expr_from_sexpr(s.items[i + 1]);
    };

    if (head == "load") {
        RAKE_USER_CHECK(n == 4, "load expects 4 arguments");
        VecType t = vec_type_from_string(atom(0));
        LoadRef ref{parse_int_as<int>(atom(1), "buffer id"),
                    parse_int_as<int>(atom(2), "load dx"),
                    parse_int_as<int>(atom(3), "load dy")};
        return Expr::make_load(ref, t);
    }
    if (head == "const") {
        RAKE_USER_CHECK(n == 2, "const expects 2 arguments");
        return Expr::make_const(
            parse_int_as<int64_t>(atom(1), "constant"),
            vec_type_from_string(atom(0)));
    }
    if (head == "var") {
        RAKE_USER_CHECK(n == 2, "var expects 2 arguments");
        return Expr::make_var(atom(1), vec_type_from_string(atom(0)));
    }
    if (head == "broadcast") {
        RAKE_USER_CHECK(n == 2, "broadcast expects 2 arguments");
        return Expr::make_broadcast(
            sub(1), parse_int_as<int>(atom(0), "broadcast lanes"));
    }
    if (head == "cast") {
        RAKE_USER_CHECK(n == 2, "cast expects 2 arguments");
        return Expr::make_cast(scalar_type_from_string(atom(0)), sub(1));
    }

    auto it = op_table().find(head);
    RAKE_USER_CHECK(it != op_table().end(), "unknown HIR op: " << head);
    std::vector<ExprPtr> args;
    args.reserve(n);
    for (int i = 0; i < n; ++i)
        args.push_back(sub(i));
    return Expr::make(it->second, std::move(args));
}

ExprPtr
parse_expr(const std::string &text)
{
    return expr_from_sexpr(parse_sexpr(text));
}

} // namespace rake::hir
