/**
 * @file
 * The one reading discipline for text that comes from outside the
 * process: CLI flags and environment knobs, and the line-record
 * formats read from disk or the wire (persistent-cache entries, rule
 * tables, compile-server payloads).
 *
 * Integers go through parse_int: strtoll, a full-consumption check
 * and the range of the value's destination, failing with a UserError
 * that names the value. An unchecked conversion maps "abc" to 0 and
 * "4abc" to 4, and a cast into a narrower destination silently wraps
 * (a lane count of 4294967304 read as 8), so neither is used on
 * outside text.
 *
 * LineReader walks a line-record text (`key value` per line, required
 * fields in order, a mandatory trailer) and names its format in every
 * error. Each caller maps the UserError to its own verdict: an invalid
 * cache entry, an invalid rule table, a protocol_error.
 */
#ifndef RAKE_SUPPORT_PARSE_H
#define RAKE_SUPPORT_PARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.h"

namespace rake {

/**
 * Parse `text` as a decimal integer in [min, max], the range of the
 * value's destination. `what` names the value in the error ("--jobs",
 * "lane count"). Throws UserError on empty input, trailing garbage
 * (an embedded NUL included), overflow, or a value outside the range.
 */
inline int64_t
parse_int(const std::string &text, const char *what, int64_t min,
          int64_t max)
{
    RAKE_USER_CHECK(!text.empty(), what << " needs an integer value");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    RAKE_USER_CHECK(errno != ERANGE,
                    what << " value out of range: " << text);
    RAKE_USER_CHECK(end != text.c_str() &&
                        end == text.c_str() + text.size(),
                    what << " expects an integer, got: " << text);
    RAKE_USER_CHECK(v >= min && v <= max,
                    what << " must be in [" << min << ", " << max
                         << "], got: " << text);
    return static_cast<int64_t>(v);
}

/** parse_int over the whole range of the destination type `Int`. */
template <typename Int>
Int
parse_int_as(const std::string &text, const char *what)
{
    return static_cast<Int>(parse_int(text, what,
                                      std::numeric_limits<Int>::min(),
                                      std::numeric_limits<Int>::max()));
}

/** parse_int for a CLI flag or environment knob, which may be unset. */
inline int64_t
parse_int_knob(const char *text, const char *what, int64_t min,
               int64_t max)
{
    RAKE_USER_CHECK(text != nullptr, what << " needs an integer value");
    return parse_int(std::string(text), what, min, max);
}

/** std::string convenience overload. */
inline int64_t
parse_int_knob(const std::string &text, const char *what, int64_t min,
               int64_t max)
{
    return parse_int(text, what, min, max);
}

/** The whitespace-separated fields of one record value. */
inline std::vector<std::string>
split_ws(const std::string &s)
{
    std::istringstream is(s);
    std::vector<std::string> out;
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** A value a line record can carry: one that holds no newline, which
 *  would smuggle in a record of its own. */
inline bool
is_single_line(const std::string &s)
{
    return s.find('\n') == std::string::npos;
}

/**
 * Walks a line-record text: one `key value` record per line, required
 * fields consumed in order, optional ones probed with peek_is(). Any
 * structural problem throws UserError naming the format, e.g.
 * "truncated cache entry at field: status". Each format ends in a
 * mandatory trailer record (take_bare("end"), then done()), so a
 * truncated text never reads as a shorter valid one.
 */
class LineReader
{
  public:
    /** `format` names the text in errors ("cache entry", "payload"). */
    LineReader(const std::string &text, const char *format)
        : format_(format)
    {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            lines_.push_back(line);
    }

    /** Consume the next line, which must start with `key `; returns
     *  the remainder of the line. */
    std::string
    take(const std::string &key)
    {
        RAKE_USER_CHECK(next_ < lines_.size(),
                        "truncated " << format_ << " at field: " << key);
        const std::string &line = lines_[next_++];
        RAKE_USER_CHECK(line.size() > key.size() &&
                            line.compare(0, key.size(), key) == 0 &&
                            line[key.size()] == ' ',
                        "expected '" << key << " ...', got: " << line);
        return line.substr(key.size() + 1);
    }

    /** Like take(), but the line is exactly `key`. */
    void
    take_bare(const std::string &key)
    {
        RAKE_USER_CHECK(next_ < lines_.size(),
                        "truncated " << format_ << " at field: " << key);
        RAKE_USER_CHECK(lines_[next_] == key,
                        "expected '" << key
                                     << "', got: " << lines_[next_]);
        ++next_;
    }

    /** Is the next line the record `key`, bare or with a value? */
    bool
    peek_is(const std::string &key) const
    {
        return next_ < lines_.size() &&
               lines_[next_].compare(0, key.size(), key) == 0 &&
               (lines_[next_].size() == key.size() ||
                lines_[next_][key.size()] == ' ');
    }

    /** Every line has been consumed. */
    void
    done() const
    {
        RAKE_USER_CHECK(next_ == lines_.size(),
                        "trailing data after " << format_);
    }

  private:
    const char *format_;
    std::vector<std::string> lines_;
    size_t next_ = 0;
};

} // namespace rake

#endif // RAKE_SUPPORT_PARSE_H
