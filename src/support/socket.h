/**
 * @file
 * Unix-domain stream sockets plus the length-prefixed frame layer the
 * compile server speaks (serve/protocol.h carries the text inside a
 * frame; this header only moves opaque payload bytes).
 *
 * Framing: one frame is `<decimal-length>\n<payload>`, where the
 * length line is 1..8 ASCII digits counting the payload bytes. The
 * decoder (FrameReader) is a pure incremental state machine with no
 * I/O dependency, so the protocol fuzz corpus can drive it byte by
 * byte without a socket in sight. Every malformed input — a non-digit
 * in the length line, a length over the configured cap, an unbounded
 * length line — is a structured error carrying a message, never a
 * crash or an unbounded buffer; a stream that ends mid-frame is
 * detectable via mid_frame().
 *
 * Sockets: thin RAII wrappers over AF_UNIX/SOCK_STREAM. Sends use
 * MSG_NOSIGNAL so a vanished peer is an error return, not SIGPIPE.
 * The listener's accept() takes a poll timeout so a serving loop can
 * interleave shutdown checks without signals.
 */
#ifndef RAKE_SUPPORT_SOCKET_H
#define RAKE_SUPPORT_SOCKET_H

#include <cerrno>
#include <cstring>
#include <optional>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/error.h"

namespace rake {

/** Hard cap on one frame's payload; oversized lengths are rejected
 *  before any buffering happens. */
inline constexpr size_t kMaxFrameBytes = 1 << 20; // 1 MiB
inline constexpr int kMaxFrameDigits = 8;

/** Encode one frame: decimal length line + payload. */
inline std::string
frame_encode(const std::string &payload)
{
    RAKE_USER_CHECK(payload.size() <= kMaxFrameBytes,
                    "frame payload too large: " << payload.size()
                                                << " bytes");
    return std::to_string(payload.size()) + "\n" + payload;
}

/**
 * Incremental frame decoder. feed() buffers bytes; next() yields one
 * decoded payload per call until the buffer runs dry. Once an error
 * is reported the reader is poisoned — a stream that mis-framed once
 * cannot be resynchronized, the session must drop it.
 */
class FrameReader
{
  public:
    enum class Status {
        Frame,    ///< *payload holds one complete frame's payload
        NeedMore, ///< no complete frame buffered; feed() more bytes
        Error,    ///< malformed stream; *error says how (terminal)
    };

    explicit FrameReader(size_t max_frame = kMaxFrameBytes)
        : max_frame_(max_frame)
    {
    }

    void
    feed(const char *data, size_t n)
    {
        buffer_.append(data, n);
    }

    Status
    next(std::string *payload, std::string *error)
    {
        if (poisoned_) {
            *error = error_;
            return Status::Error;
        }
        // Parse the length line. A frame's length prefix is 1..8
        // digits terminated by '\n'; anything else poisons the
        // stream. The digit cap bounds the buffered prefix even when
        // the terminator never arrives.
        size_t i = 0;
        uint64_t len = 0;
        bool have_digit = false;
        for (; i < buffer_.size(); ++i) {
            const char c = buffer_[i];
            if (c == '\n')
                break;
            if (c < '0' || c > '9')
                return poison(error, "bad frame length: non-digit byte "
                                     "in length line");
            if (i >= static_cast<size_t>(kMaxFrameDigits))
                return poison(error, "bad frame length: more than 8 "
                                     "digits");
            len = len * 10 + static_cast<uint64_t>(c - '0');
            have_digit = true;
        }
        if (i == buffer_.size()) {
            // No terminator yet. Still bounded: past the digit cap the
            // stream can never become a valid frame.
            if (buffer_.size() > static_cast<size_t>(kMaxFrameDigits))
                return poison(error, "bad frame length: unterminated "
                                     "length line");
            return Status::NeedMore;
        }
        if (!have_digit)
            return poison(error, "bad frame length: empty length line");
        if (len > max_frame_)
            return poison(error, "oversized frame: " +
                                     std::to_string(len) + " bytes");
        const size_t header = i + 1;
        if (buffer_.size() - header < len)
            return Status::NeedMore;
        *payload = buffer_.substr(header, len);
        buffer_.erase(0, header + len);
        return Status::Frame;
    }

    /** Bytes buffered but not yet decoded — nonzero at end-of-stream
     *  means the peer vanished mid-frame (a truncated frame). */
    bool mid_frame() const { return !poisoned_ && !buffer_.empty(); }

  private:
    Status
    poison(std::string *error, std::string message)
    {
        poisoned_ = true;
        error_ = std::move(message);
        *error = error_;
        return Status::Error;
    }

    std::string buffer_;
    size_t max_frame_;
    bool poisoned_ = false;
    std::string error_;
};

/** RAII stream socket. Movable, not copyable. */
class UnixSocket
{
  public:
    UnixSocket() = default;
    explicit UnixSocket(int fd) : fd_(fd) {}
    ~UnixSocket() { close(); }

    UnixSocket(UnixSocket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    UnixSocket &
    operator=(UnixSocket &&o) noexcept
    {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    UnixSocket(const UnixSocket &) = delete;
    UnixSocket &operator=(const UnixSocket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Send the whole buffer; false when the peer is gone. */
    bool
    send_all(const std::string &data) const
    {
        size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Receive up to `cap` bytes; 0 = orderly close, -1 = error. */
    ssize_t
    recv_some(char *buf, size_t cap) const
    {
        for (;;) {
            const ssize_t n = ::recv(fd_, buf, cap, 0);
            if (n < 0 && errno == EINTR)
                continue;
            return n;
        }
    }

    /** Unblock any reader/writer on this socket (drain/stop paths). */
    void
    shutdown_both() const
    {
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_RDWR);
    }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

  private:
    int fd_ = -1;
};

/** Connect to a Unix-domain socket path; throws UserError. */
inline UnixSocket
unix_connect(const std::string &path)
{
    RAKE_USER_CHECK(!path.empty(), "socket path must be non-empty");
    RAKE_USER_CHECK(path.size() < sizeof(sockaddr_un{}.sun_path),
                    "socket path too long: " << path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RAKE_USER_CHECK(fd >= 0,
                    "cannot create socket: " << std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw UserError("cannot connect to " + path + ": " +
                        std::strerror(err));
    }
    return UnixSocket(fd);
}

/** Bound + listening Unix-domain socket. Unlinks the path on close. */
class UnixListener
{
  public:
    UnixListener() = default;

    /** Bind and listen; throws UserError (stale path is unlinked). */
    explicit UnixListener(const std::string &path) : path_(path)
    {
        RAKE_USER_CHECK(!path.empty(), "socket path must be non-empty");
        RAKE_USER_CHECK(path.size() < sizeof(sockaddr_un{}.sun_path),
                        "socket path too long: " << path);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        RAKE_USER_CHECK(fd >= 0,
                        "cannot create socket: " << std::strerror(errno));
        ::unlink(path.c_str());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            const int err = errno;
            ::close(fd);
            throw UserError("cannot listen on " + path + ": " +
                            std::strerror(err));
        }
        fd_ = fd;
    }

    ~UnixListener() { close(); }

    UnixListener(UnixListener &&o) noexcept
        : path_(std::move(o.path_)), fd_(o.fd_)
    {
        o.fd_ = -1;
    }
    UnixListener &
    operator=(UnixListener &&o) noexcept
    {
        if (this != &o) {
            close();
            path_ = std::move(o.path_);
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    bool valid() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /**
     * Accept one connection, waiting at most `timeout_ms`. nullopt on
     * timeout or once shutdown() has run (the accept loop's stop
     * path).
     */
    std::optional<UnixSocket>
    accept(int timeout_ms) const
    {
        pollfd p{};
        p.fd = fd_;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, timeout_ms);
        if (r <= 0)
            return std::nullopt;
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd < 0)
            return std::nullopt;
        return UnixSocket(fd);
    }

    /**
     * Make accept() in another thread return nullopt now and after.
     * The fd stays open, so that thread never polls a closed or reused
     * fd: join it, then close().
     */
    void
    shutdown() const
    {
        if (fd_ >= 0)
            ::shutdown(fd_, SHUT_RDWR);
    }

    /** Close the fd and unlink the path; no accept() may be running. */
    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
            ::unlink(path_.c_str());
        }
    }

  private:
    std::string path_;
    int fd_ = -1;
};

/**
 * Resolve the socket-path knob: an explicit path wins, then the
 * RAKE_SOCKET environment variable, then "" (the caller decides
 * whether a missing path is an error or a default).
 */
inline std::string
resolve_socket_path(const std::string &requested)
{
    if (!requested.empty())
        return requested;
    if (const char *env = std::getenv("RAKE_SOCKET"))
        return env;
    return "";
}

} // namespace rake

#endif // RAKE_SUPPORT_SOCKET_H
