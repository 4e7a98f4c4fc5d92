#include "serve/protocol.h"

#include <climits>
#include <sstream>

#include "support/error.h"
#include "support/parse.h"
#include "support/socket.h"

namespace rake::serve {

namespace {

constexpr const char *kReqMagic = "rake-req";
constexpr const char *kRespMagic = "rake-resp";

bool
known_status(const std::string &s)
{
    return s == "ok" || s == "no_solution" || s == "timed_out" ||
           s == "overloaded" || s == "error" || s == "protocol_error";
}

} // namespace

const char *
to_string(Op op)
{
    switch (op) {
      case Op::Select:
        return "select";
      case Op::Metrics:
        return "metrics";
      case Op::Ping:
        return "ping";
    }
    return "ping";
}

std::string
encode_request(const Request &request)
{
    std::ostringstream os;
    os << kReqMagic << " " << kProtocolVersion << "\n"
       << "id " << request.id << "\n"
       << "op " << to_string(request.op) << "\n";
    if (request.op == Op::Select) {
        RAKE_USER_CHECK(is_single_line(request.backend),
                        "backend must be single-line");
        RAKE_USER_CHECK(is_single_line(request.expr),
                        "expr must be single-line");
        RAKE_USER_CHECK(!request.expr.empty(),
                        "select request needs an expression");
        os << "backend " << request.backend << "\n";
        if (request.timeout_ms > 0)
            os << "timeout-ms " << request.timeout_ms << "\n";
        os << "expr " << request.expr << "\n";
    }
    os << "end\n";
    return os.str();
}

/**
 * Payloads are line records read with the shared LineReader
 * (support/parse.h): required fields in order, integers range-checked
 * against their destination, the `end` trailer catching truncation.
 * Every violation is a UserError, which the server answers with a
 * protocol_error.
 */
Request
parse_request(const std::string &payload)
{
    LineReader r(payload, "payload");
    RAKE_USER_CHECK(parse_int_as<int>(r.take(kReqMagic),
                                      "protocol version") ==
                        kProtocolVersion,
                    "protocol version mismatch");
    Request req;
    req.id = parse_int_as<int64_t>(r.take("id"), "request id");
    const std::string op = r.take("op");
    if (op == "select") {
        req.op = Op::Select;
        req.backend = r.take("backend");
        RAKE_USER_CHECK(!req.backend.empty(), "empty backend name");
        if (r.peek_is("timeout-ms"))
            req.timeout_ms = static_cast<int>(
                parse_int(r.take("timeout-ms"), "timeout-ms", 1, INT_MAX));
        req.expr = r.take("expr");
        RAKE_USER_CHECK(!req.expr.empty(), "empty expression");
    } else if (op == "metrics") {
        req.op = Op::Metrics;
    } else if (op == "ping") {
        req.op = Op::Ping;
    } else {
        RAKE_USER_CHECK(false, "unknown op: " << op);
    }
    r.take_bare("end");
    r.done();
    return req;
}

std::string
encode_response(const Response &response)
{
    RAKE_USER_CHECK(known_status(response.status),
                    "unknown response status: " << response.status);
    std::ostringstream os;
    os << kRespMagic << " " << kProtocolVersion << "\n"
       << "id " << response.id << "\n"
       << "status " << response.status << "\n";
    if (response.degraded)
        os << "degraded 1\n";
    if (!response.tier.empty()) {
        RAKE_USER_CHECK(is_single_line(response.tier),
                        "tier must be single-line");
        os << "tier " << response.tier << "\n";
    }
    if (!response.instr.empty()) {
        RAKE_USER_CHECK(is_single_line(response.instr),
                        "instr must be single-line");
        os << "instr " << response.instr << "\n";
    }
    if (!response.error.empty()) {
        // Error text can quote arbitrary exception messages; flatten
        // any newlines instead of rejecting the response.
        std::string flat = response.error;
        for (char &c : flat)
            if (c == '\n')
                c = ' ';
        os << "error " << flat << "\n";
    }
    if (!response.metrics_json.empty()) {
        RAKE_USER_CHECK(is_single_line(response.metrics_json),
                        "metrics must be single-line");
        os << "metrics " << response.metrics_json << "\n";
    }
    os << "end\n";
    return os.str();
}

Response
parse_response(const std::string &payload)
{
    LineReader r(payload, "payload");
    RAKE_USER_CHECK(parse_int_as<int>(r.take(kRespMagic),
                                      "protocol version") ==
                        kProtocolVersion,
                    "protocol version mismatch");
    Response resp;
    resp.id = parse_int_as<int64_t>(r.take("id"), "response id");
    resp.status = r.take("status");
    RAKE_USER_CHECK(known_status(resp.status),
                    "unknown response status: " << resp.status);
    if (r.peek_is("degraded")) {
        const std::string d = r.take("degraded");
        RAKE_USER_CHECK(d == "1", "bad degraded flag: " << d);
        resp.degraded = true;
    }
    if (r.peek_is("tier"))
        resp.tier = r.take("tier");
    if (r.peek_is("instr"))
        resp.instr = r.take("instr");
    if (r.peek_is("error"))
        resp.error = r.take("error");
    if (r.peek_is("metrics"))
        resp.metrics_json = r.take("metrics");
    r.take_bare("end");
    r.done();
    return resp;
}

FrameDrill
drill_frames(const std::string &bytes)
{
    FrameDrill drill;
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    for (;;) {
        std::string payload, frame_error;
        const FrameReader::Status st =
            reader.next(&payload, &frame_error);
        if (st == FrameReader::Status::NeedMore)
            break;
        if (st == FrameReader::Status::Error) {
            drill.framing_error = true;
            if (drill.error.empty())
                drill.error = frame_error;
            break;
        }
        ++drill.frames;
        try {
            parse_request(payload);
            ++drill.requests;
        } catch (const UserError &e) {
            ++drill.protocol_errors;
            if (drill.error.empty())
                drill.error = e.what();
        }
    }
    drill.mid_frame = reader.mid_frame();
    if (drill.mid_frame && drill.error.empty())
        drill.error = "stream ends mid-frame";
    return drill;
}

} // namespace rake::serve
