#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/backends.h"
#include "support/error.h"

namespace rake::serve {

namespace {

const char *
status_string(synth::SynthStatus status)
{
    switch (status) {
      case synth::SynthStatus::Ok:
        return "ok";
      case synth::SynthStatus::NoSolution:
        return "no_solution";
      case synth::SynthStatus::TimedOut:
        return "timed_out";
      case synth::SynthStatus::Error:
        return "error";
    }
    return "error";
}

} // namespace

/**
 * One accepted connection. Sessions are held by shared_ptr: pool
 * tasks answering a session's requests can outlive its reader thread
 * (client hangs up with work still queued), so the socket and its
 * write mutex must survive until the last task drops its reference.
 */
struct Server::Session {
    UnixSocket sock;
    std::mutex write_mutex;   ///< serializes response frames
    std::atomic<bool> finished{false};

    explicit Session(UnixSocket s) : sock(std::move(s)) {}

    /** Frame + send one response; quietly drops it when the peer is
     *  gone (the pool task has nowhere else to deliver). */
    void
    send_response(const Response &response)
    {
        const std::string frame = frame_encode(encode_response(response));
        std::unique_lock<std::mutex> lock(write_mutex);
        sock.send_all(frame);
    }
};

Server::Server(ServeOptions options) : options_(std::move(options))
{
    socket_path_ = resolve_socket_path(options_.socket_path);
    RAKE_USER_CHECK(!socket_path_.empty(),
                    "no socket path (use --socket or RAKE_SOCKET)");
    RAKE_USER_CHECK(options_.queue_depth > 0,
                    "queue depth must be positive, got "
                        << options_.queue_depth);
    RAKE_USER_CHECK(options_.drain_ms >= 0,
                    "drain budget must be >= 0, got "
                        << options_.drain_ms);

    synth::ServiceConfig config;
    config.rake = options_.rake;
    config.backends = options_.backends.empty()
                          ? default_backend_registry()
                          : options_.backends;
    service_ = std::make_unique<synth::SelectService>(std::move(config));
    pool_ = std::make_unique<ThreadPool>(resolve_jobs(options_.jobs));

    listener_ = UnixListener(socket_path_);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

bool
Server::stop()
{
    if (stopped_.exchange(true))
        return true;
    stopping_.store(true);

    // Phase 1: no new connections. Sessions already reading keep
    // going so in-flight responses can still be delivered. The
    // listener is closed only once the accept loop that polls it has
    // been joined.
    listener_.shutdown();
    if (accept_thread_.joinable())
        accept_thread_.join();
    listener_.close();

    // Phase 2: drain. In-flight selects finish and flush within the
    // budget or get abandoned.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_ms);
    bool clean = true;
    while (inflight_.load() > 0) {
        if (std::chrono::steady_clock::now() >= deadline) {
            clean = false;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Phase 3: unblock session readers and join them. shutdown (not
    // close) so a pool task still holding the session can't race on
    // a recycled fd.
    {
        std::unique_lock<std::mutex> lock(sessions_mutex_);
        for (SessionHandle &h : sessions_)
            h.session->sock.shutdown_both();
    }
    for (;;) {
        SessionHandle handle;
        {
            std::unique_lock<std::mutex> lock(sessions_mutex_);
            if (sessions_.empty())
                break;
            handle = std::move(sessions_.front());
            sessions_.pop_front();
        }
        if (handle.thread.joinable())
            handle.thread.join();
    }

    // Phase 4: tear down the pool. Abandoned tasks are dropped by
    // cancel_pending() in the destructor; running ones see the cancel
    // token... which select tasks don't observe, so an over-budget
    // drain still waits here for the stragglers to finish. That keeps
    // destruction safe at the cost of a slow exit in the worst case.
    pool_.reset();
    return clean;
}

void
Server::accept_loop()
{
    while (!stopping_.load()) {
        std::optional<UnixSocket> sock = listener_.accept(100);
        if (!sock)
            continue; // timeout or listener shut down
        reap_finished_sessions();
        auto session = std::make_shared<Session>(std::move(*sock));
        std::unique_lock<std::mutex> lock(sessions_mutex_);
        if (stopping_.load()) {
            session->sock.shutdown_both();
            return;
        }
        SessionHandle handle;
        handle.session = session;
        handle.thread =
            std::thread([this, session] { session_loop(session); });
        sessions_.push_back(std::move(handle));
    }
}

void
Server::reap_finished_sessions()
{
    std::list<SessionHandle> done;
    {
        std::unique_lock<std::mutex> lock(sessions_mutex_);
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if (it->session->finished.load())
                done.splice(done.end(), sessions_, it++);
            else
                ++it;
        }
    }
    // Join outside the lock; these threads are past their last
    // socket use, so this never blocks on synthesis.
    for (SessionHandle &h : done)
        if (h.thread.joinable())
            h.thread.join();
}

void
Server::session_loop(const std::shared_ptr<Session> &session)
{
    FrameReader frames;
    char buf[4096];
    bool drop = false;
    while (!drop) {
        const ssize_t n = session->sock.recv_some(buf, sizeof(buf));
        if (n <= 0)
            break; // peer closed (or stop() shut the socket down)
        frames.feed(buf, static_cast<size_t>(n));
        for (;;) {
            std::string payload, frame_error;
            const FrameReader::Status st =
                frames.next(&payload, &frame_error);
            if (st == FrameReader::Status::NeedMore)
                break;
            if (st == FrameReader::Status::Error) {
                Response resp;
                resp.status = "protocol_error";
                resp.error = frame_error;
                session->send_response(resp);
                drop = true;
                break;
            }
            Request request;
            try {
                request = parse_request(payload);
            } catch (const UserError &e) {
                // A mis-parsed payload is unrecoverable: ids can't be
                // trusted, so answer once and drop the session.
                Response resp;
                resp.status = "protocol_error";
                resp.error = e.what();
                session->send_response(resp);
                drop = true;
                break;
            }
            switch (request.op) {
              case Op::Ping: {
                Response resp;
                resp.id = request.id;
                resp.status = "ok";
                session->send_response(resp);
                break;
              }
              case Op::Metrics: {
                Response resp;
                resp.id = request.id;
                resp.status = "ok";
                resp.metrics_json = service_->metrics().to_json();
                session->send_response(resp);
                break;
              }
              case Op::Select:
                handle_select(session, request);
                break;
            }
        }
    }
    // A dropped session is hung up on actively: the protocol_error
    // response above is the last frame, and the client is owed an EOF
    // rather than a silent stall. shutdown (not close) so pool tasks
    // still holding the session can't race on a recycled fd; their
    // late responses fail the send and are quietly dropped.
    if (drop)
        session->sock.shutdown_both();
    session->finished.store(true);
}

void
Server::handle_select(const std::shared_ptr<Session> &session,
                      const Request &request)
{
    // Admission control: reserve a slot or shed. fetch_add-then-check
    // keeps the bound strict under concurrent sessions.
    if (inflight_.fetch_add(1) >= options_.queue_depth) {
        inflight_.fetch_sub(1);
        service_->note_shed();
        Response resp;
        resp.id = request.id;
        resp.status = "overloaded";
        resp.error = "admission queue full";
        session->send_response(resp);
        return;
    }

    // Arm the deadline now, at receipt: time spent queued behind
    // other requests counts against the client's budget. The server
    // cap can only shorten a client's budget, never extend it.
    synth::ServiceRequest query;
    query.backend = request.backend;
    query.expr = request.expr;
    int timeout_ms = request.timeout_ms;
    if (options_.timeout_cap_ms > 0)
        timeout_ms = timeout_ms > 0
                         ? std::min(timeout_ms, options_.timeout_cap_ms)
                         : options_.timeout_cap_ms;
    if (timeout_ms > 0)
        query.deadline = Deadline::after_ms(timeout_ms);

    const int64_t id = request.id;
    pool_->submit([this, session, query = std::move(query), id] {
        Response resp;
        resp.id = id;
        try {
            const synth::ServiceReply reply = service_->select(query);
            resp.status = status_string(reply.status);
            resp.degraded = reply.degraded;
            resp.tier = reply.tier;
            resp.instr = reply.instr;
            resp.error = reply.error;
        } catch (const std::exception &e) {
            resp.status = "error";
            resp.error = e.what();
        }
        session->send_response(resp);
        inflight_.fetch_sub(1);
    });
}

} // namespace rake::serve
