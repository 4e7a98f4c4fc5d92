/**
 * @file
 * Tests for the serving layer: the latency histogram, the frame
 * decoder and wire protocol (golden round trips plus malformed-input
 * rejection), the SelectService facade, and the compile server end to
 * end — concurrent-client stress with exactly one CEGIS run per
 * distinct expression, admission-control overload shedding that never
 * caches a negative, counter determinism across job counts, and
 * graceful drain.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "backend/hvx_backend.h"
#include "hir/builder.h"
#include "hir/printer.h"
#include "hir/sexpr.h"
#include "hir/simplify.h"
#include "pipeline/benchmarks.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/histogram.h"
#include "support/socket.h"
#include "synth/cache.h"

namespace rake {
namespace {

using namespace rake::hir;
constexpr ScalarType u8 = ScalarType::UInt8;
constexpr ScalarType u16 = ScalarType::UInt16;

/** A fast-to-synthesize two-tap average (same as the persist tests). */
ExprPtr
average_expr(int offset = 1)
{
    return cast(u8, (cast(u16, load(0, u8, 64)) +
                     cast(u16, load(0, u8, 64, offset)) + 1) >>
                        1)
        .ptr();
}

/**
 * A five-tap convolution with taps `offset` apart. Its synthesis takes
 * several times longer than average_expr's (about 4 ms against 1 ms in
 * a Release build), long enough for a duplicate query to arrive while
 * it is in flight.
 */
ExprPtr
conv_expr(int offset)
{
    HExpr sum = cast(u16, load(0, u8, 64));
    for (int k = 1; k < 5; ++k)
        sum = sum + cast(u16, load(0, u8, 64, k * offset)) * ((k % 3) + 1);
    return cast(u8, (sum + 8) >> 4).ptr();
}

std::string
fresh_socket(const std::string &name)
{
    const std::string path = "/tmp/rake_serve_test_" +
                             std::to_string(::getpid()) + "_" + name +
                             ".sock";
    ::unlink(path.c_str());
    return path;
}

/** Feed a whole string and expect exactly one well-formed frame. */
FrameReader::Status
decode_one(const std::string &wire, std::string *payload,
           std::string *error, size_t max_frame = kMaxFrameBytes)
{
    FrameReader reader(max_frame);
    reader.feed(wire.data(), wire.size());
    return reader.next(payload, error);
}

// ---------------------------------------------------------------------
// LatencyHistogram

TEST(Histogram, EmptyReportsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.quantile_us(0.5), 0.0);
    EXPECT_EQ(h.quantile_us(0.99), 0.0);
}

TEST(Histogram, QuantilesAreBucketUpperBounds)
{
    LatencyHistogram h;
    // 100 samples at ~3 us: bucket [2, 4) us, upper bound 4.
    for (int i = 0; i < 100; ++i)
        h.record_seconds(3e-6);
    EXPECT_EQ(h.count(), 100);
    EXPECT_EQ(h.quantile_us(0.5), 4.0);
    EXPECT_EQ(h.quantile_us(0.99), 4.0);

    // One outlier at ~1 ms moves p100 but not p50.
    h.record_seconds(1e-3);
    EXPECT_EQ(h.quantile_us(0.5), 4.0);
    EXPECT_EQ(h.quantile_us(1.0), 1024.0); // [512, 1024) us bucket
}

TEST(Histogram, TailQuantileNeverBelowMedian)
{
    LatencyHistogram h;
    const double samples[] = {1e-7, 5e-6, 3e-4, 0.002, 0.25, 70.0};
    for (double s : samples)
        for (int i = 0; i < 7; ++i)
            h.record_seconds(s);
    for (double q = 0.5; q <= 1.0; q += 0.05)
        EXPECT_GE(h.quantile_us(q), h.quantile_us(0.5)) << "q=" << q;
    // The 70 s sample lands in the catch-all bucket, not past it.
    EXPECT_EQ(h.quantile_us(1.0),
              LatencyHistogram::bucket_upper_us(
                  LatencyHistogram::kBuckets - 1));
}

TEST(Histogram, RankIsCeilOfQTimesCount)
{
    // The regression this pins: rank must be ceil(q * count), not
    // floor. With 4 fast and 5 slow samples the median is the 5th of
    // 9 (ceil(4.5)), which is a slow sample — the floored rank 4
    // reported the fast bucket instead.
    LatencyHistogram h;
    for (int i = 0; i < 4; ++i)
        h.record_seconds(1e-6); // bucket [1, 2) us
    for (int i = 0; i < 5; ++i)
        h.record_seconds(1e-3); // bucket [512, 1024) us
    EXPECT_EQ(h.quantile_us(0.5), 1024.0);
    // q=0 degenerates to the minimum (rank clamps up to 1), q=1 to
    // the maximum (rank = count exactly).
    EXPECT_EQ(h.quantile_us(0.0), 2.0);
    EXPECT_EQ(h.quantile_us(1.0), 1024.0);
}

TEST(Histogram, SingleSampleAnswersEveryQuantile)
{
    LatencyHistogram h;
    h.record_seconds(3e-6); // bucket [2, 4) us
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.quantile_us(q), 4.0) << "q=" << q;
    // Out-of-range q clamps instead of under/overflowing the rank.
    EXPECT_EQ(h.quantile_us(-0.5), 4.0);
    EXPECT_EQ(h.quantile_us(7.0), 4.0);
}

TEST(Histogram, TopBucketAbsorbsPathologies)
{
    LatencyHistogram h;
    h.record_seconds(1e9); // absurd: ~31 years
    EXPECT_EQ(h.quantile_us(0.5),
              LatencyHistogram::bucket_upper_us(
                  LatencyHistogram::kBuckets - 1));
    EXPECT_EQ(h.quantile_us(1.0),
              LatencyHistogram::bucket_upper_us(
                  LatencyHistogram::kBuckets - 1));
}

TEST(Histogram, ConcurrentRecordersLoseNothing)
{
    LatencyHistogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&h] {
            for (int i = 0; i < 1000; ++i)
                h.record_seconds(1e-5);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(h.count(), 4000);
    EXPECT_EQ(h.quantile_us(0.5), 16.0); // [8, 16) us bucket
}

// ---------------------------------------------------------------------
// Framing

TEST(Framing, EncodeDecodeRoundTrip)
{
    const std::string payload = "hello\nworld";
    std::string out, error;
    ASSERT_EQ(decode_one(frame_encode(payload), &out, &error),
              FrameReader::Status::Frame);
    EXPECT_EQ(out, payload);
}

TEST(Framing, EmptyPayloadRoundTrips)
{
    std::string out = "sentinel", error;
    ASSERT_EQ(decode_one(frame_encode(""), &out, &error),
              FrameReader::Status::Frame);
    EXPECT_EQ(out, "");
}

TEST(Framing, MultipleFramesInOneFeed)
{
    FrameReader reader;
    const std::string wire =
        frame_encode("one") + frame_encode("two") + frame_encode("three");
    reader.feed(wire.data(), wire.size());
    std::string out, error;
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Frame);
    EXPECT_EQ(out, "one");
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Frame);
    EXPECT_EQ(out, "two");
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Frame);
    EXPECT_EQ(out, "three");
    EXPECT_EQ(reader.next(&out, &error), FrameReader::Status::NeedMore);
    EXPECT_FALSE(reader.mid_frame());
}

TEST(Framing, ByteAtATimeDelivery)
{
    const std::string wire = frame_encode("incremental payload");
    FrameReader reader;
    std::string out, error;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(&wire[i], 1);
        ASSERT_EQ(reader.next(&out, &error),
                  FrameReader::Status::NeedMore)
            << "at byte " << i;
    }
    reader.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Frame);
    EXPECT_EQ(out, "incremental payload");
}

TEST(Framing, TruncatedFrameIsDetectable)
{
    const std::string wire = frame_encode("full payload");
    FrameReader reader;
    reader.feed(wire.data(), wire.size() - 4); // peer vanished here
    std::string out, error;
    EXPECT_EQ(reader.next(&out, &error), FrameReader::Status::NeedMore);
    EXPECT_TRUE(reader.mid_frame());
}

TEST(Framing, NonDigitLengthPoisons)
{
    std::string out, error;
    EXPECT_EQ(decode_one("12x\npayload", &out, &error),
              FrameReader::Status::Error);
    EXPECT_NE(error.find("non-digit"), std::string::npos);
}

TEST(Framing, NegativeLengthIsNonDigit)
{
    std::string out, error;
    EXPECT_EQ(decode_one("-5\njunk", &out, &error),
              FrameReader::Status::Error);
}

TEST(Framing, EmptyLengthLinePoisons)
{
    std::string out, error;
    EXPECT_EQ(decode_one("\npayload", &out, &error),
              FrameReader::Status::Error);
    EXPECT_NE(error.find("empty length"), std::string::npos);
}

TEST(Framing, OversizedLengthPoisons)
{
    // 8 digits, parseable, but past the 1 MiB payload cap.
    std::string out, error;
    EXPECT_EQ(decode_one("99999999\n", &out, &error),
              FrameReader::Status::Error);
    EXPECT_NE(error.find("oversized"), std::string::npos);
}

TEST(Framing, TooManyDigitsPoisons)
{
    std::string out, error;
    EXPECT_EQ(decode_one("123456789\n", &out, &error),
              FrameReader::Status::Error);
    EXPECT_NE(error.find("8 digits"), std::string::npos);
}

TEST(Framing, UnterminatedLengthLinePoisons)
{
    // All digits, no terminator, already past the digit cap: this
    // stream can never become a valid frame, so it must not buffer
    // unboundedly waiting for one.
    FrameReader reader;
    const std::string digits = "1111111111111111";
    reader.feed(digits.data(), digits.size());
    std::string out, error;
    EXPECT_EQ(reader.next(&out, &error), FrameReader::Status::Error);
}

TEST(Framing, PoisonIsTerminal)
{
    FrameReader reader;
    const std::string junk = "junk!\n";
    reader.feed(junk.data(), junk.size());
    std::string out, error;
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Error);
    // A later, well-formed frame cannot resurrect the stream.
    const std::string good = frame_encode("fine");
    reader.feed(good.data(), good.size());
    EXPECT_EQ(reader.next(&out, &error), FrameReader::Status::Error);
}

TEST(Framing, FrameAtExactCapRoundTrips)
{
    FrameReader reader(64);
    const std::string payload(64, 'x');
    const std::string wire = frame_encode(payload);
    reader.feed(wire.data(), wire.size());
    std::string out, error;
    ASSERT_EQ(reader.next(&out, &error), FrameReader::Status::Frame);
    EXPECT_EQ(out, payload);

    FrameReader small(63);
    small.feed(wire.data(), wire.size());
    EXPECT_EQ(small.next(&out, &error), FrameReader::Status::Error);
}

// ---------------------------------------------------------------------
// Protocol

TEST(Protocol, SelectRequestRoundTrip)
{
    serve::Request req;
    req.op = serve::Op::Select;
    req.id = 42;
    req.backend = "neon";
    req.expr = "(vadd u8x64 (vmem u8x64 0 0 0) (vmem u8x64 0 0 1))";
    req.timeout_ms = 1500;
    const serve::Request back =
        serve::parse_request(serve::encode_request(req));
    EXPECT_EQ(back.op, serve::Op::Select);
    EXPECT_EQ(back.id, 42);
    EXPECT_EQ(back.backend, "neon");
    EXPECT_EQ(back.expr, req.expr);
    EXPECT_EQ(back.timeout_ms, 1500);

    // The timeout line is optional; absent means "no deadline".
    req.timeout_ms = 0;
    const serve::Request no_deadline =
        serve::parse_request(serve::encode_request(req));
    EXPECT_EQ(no_deadline.timeout_ms, 0);
}

TEST(Protocol, MetricsAndPingRoundTrip)
{
    for (const serve::Op op : {serve::Op::Metrics, serve::Op::Ping}) {
        serve::Request req;
        req.op = op;
        req.id = 7;
        const serve::Request back =
            serve::parse_request(serve::encode_request(req));
        EXPECT_EQ(back.op, op);
        EXPECT_EQ(back.id, 7);
    }
}

TEST(Protocol, ResponseRoundTripAllFields)
{
    serve::Response resp;
    resp.id = 9;
    resp.status = "timed_out";
    resp.degraded = true;
    resp.tier = "none";
    resp.instr = "(vmem u8x64 0 0 0)";
    resp.error = "deadline expired during sketch search";
    const serve::Response back =
        serve::parse_response(serve::encode_response(resp));
    EXPECT_EQ(back.id, 9);
    EXPECT_EQ(back.status, "timed_out");
    EXPECT_TRUE(back.degraded);
    EXPECT_TRUE(back.degraded_like_timeout());
    EXPECT_EQ(back.tier, "none");
    EXPECT_EQ(back.instr, resp.instr);
    EXPECT_EQ(back.error, resp.error);

    serve::Response metrics;
    metrics.id = 10;
    metrics.metrics_json = "{\"requests\":3}";
    const serve::Response mback =
        serve::parse_response(serve::encode_response(metrics));
    EXPECT_EQ(mback.metrics_json, "{\"requests\":3}");
    EXPECT_FALSE(mback.degraded);
    EXPECT_FALSE(mback.degraded_like_timeout());
}

TEST(Protocol, MalformedRequestPayloadsThrowNeverCrash)
{
    const std::string good = serve::encode_request([] {
        serve::Request r;
        r.op = serve::Op::Select;
        r.id = 1;
        r.expr = "(vmem u8x64 0 0 0)";
        return r;
    }());
    const std::vector<std::string> bad = {
        "",                                  // empty payload
        "garbage\n",                         // no magic
        "rake-resp 1\nid 1\nop ping\nend\n", // response magic
        "rake-req 2\nid 1\nop ping\nend\n",  // future version
        "rake-req 1\nid 1\nop ping\n",       // missing end trailer
        "rake-req 1\nop ping\nid 1\nend\n",  // fields out of order
        "rake-req 1\nid 1\nop explode\nend\n",        // unknown op
        "rake-req 1\nid x\nop ping\nend\n",           // bad integer
        "rake-req 1\nid 99999999999999999999\nop ping\nend\n",
        "rake-req 1\nid 1\nop ping\nend\nextra\n",    // trailing data
        "rake-req 1\nid 1\nop select\nbackend hvx\nend\n", // no expr
        "rake-req 1\nid 1\nop select\nbackend hvx\nexpr \nend\n",
        "rake-req 1\nid 1\nop select\nbackend hvx\ntimeout-ms 0\n"
        "expr (vmem u8x64 0 0 0)\nend\n",             // zero timeout
        "rake-req 1\nid 1\nop select\nbackend hvx\ntimeout-ms -4\n"
        "expr (vmem u8x64 0 0 0)\nend\n",
        good.substr(0, good.size() / 2),              // truncated
    };
    for (const std::string &payload : bad)
        EXPECT_THROW(serve::parse_request(payload), UserError)
            << "payload: " << payload;
    // And the good payload is actually good (the list above mutates
    // real structure, not a strawman).
    EXPECT_NO_THROW(serve::parse_request(good));
}

TEST(Protocol, MalformedResponsePayloadsThrowNeverCrash)
{
    const std::vector<std::string> bad = {
        "",
        "rake-resp 1\nid 1\n",                         // no status
        "rake-resp 1\nid 1\nstatus great\nend\n",      // unknown status
        "rake-resp 1\nid 1\nstatus ok\ndegraded 2\nend\n",
        "rake-resp 1\nid 1\nstatus ok\n",              // missing end
        "rake-req 1\nid 1\nstatus ok\nend\n",          // request magic
        "rake-resp 1\nid 1\nstatus ok\nend\njunk\n",   // trailing data
    };
    for (const std::string &payload : bad)
        EXPECT_THROW(serve::parse_response(payload), UserError)
            << "payload: " << payload;
}

TEST(Protocol, EncodersRejectLineSmuggling)
{
    serve::Request req;
    req.op = serve::Op::Select;
    req.expr = "(vmem u8x64 0 0 0)\nend";
    EXPECT_THROW(serve::encode_request(req), UserError);

    serve::Response resp;
    resp.status = "made_up";
    EXPECT_THROW(serve::encode_response(resp), UserError);

    // Error text legitimately quotes exception messages; newlines are
    // flattened rather than rejected.
    serve::Response err;
    err.status = "error";
    err.error = "line one\nline two";
    const serve::Response back =
        serve::parse_response(serve::encode_response(err));
    EXPECT_EQ(back.error, "line one line two");
}

// ---------------------------------------------------------------------
// SelectService

synth::ServiceConfig
hvx_only_config()
{
    synth::ServiceConfig config;
    config.backends["hvx"] = [] {
        return backend::make_hvx_backend(hvx::Target{});
    };
    return config;
}

TEST(Service, UnknownBackendIsAnErrorNotACrash)
{
    synth::SelectService service(hvx_only_config());
    synth::ServiceRequest req;
    req.backend = "riscv";
    req.expr = "(vmem u8x64 0 0 0)";
    const synth::ServiceReply reply = service.select(req);
    EXPECT_EQ(reply.status, synth::SynthStatus::Error);
    EXPECT_NE(reply.error.find("unknown backend"), std::string::npos);
    EXPECT_EQ(service.metrics().errors, 1);
}

TEST(Service, MalformedExpressionIsAnError)
{
    synth::SelectService service(hvx_only_config());
    synth::ServiceRequest req;
    req.expr = "(vadd";
    const synth::ServiceReply reply = service.select(req);
    EXPECT_EQ(reply.status, synth::SynthStatus::Error);
    EXPECT_FALSE(reply.error.empty());
    // Errors are rejected before synthesis: no latency sample.
    EXPECT_EQ(service.metrics().latency_count, 0);
}

TEST(Service, MetricsJsonKeysAreStable)
{
    synth::SelectService service(hvx_only_config());
    const std::string json = service.metrics().to_json();
    // CI smokes grep these exact keys; the order is part of the
    // contract (DESIGN.md "Serving").
    const char *keys[] = {
        "\"requests\":",    "\"memory_hits\":", "\"disk_hits\":",
        "\"rule_hits\":",   "\"cegis_runs\":",  "\"no_solution\":",
        "\"timed_out\":",   "\"degraded\":",    "\"overloaded\":",
        "\"errors\":",      "\"inflight_dedup\":",
        "\"latency_count\":", "\"latency_p50_us\":",
        "\"latency_p99_us\":",
    };
    size_t pos = 0;
    for (const char *key : keys) {
        const size_t at = json.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        EXPECT_GE(at, pos) << key << " out of order in " << json;
        pos = at;
    }
}

// ---------------------------------------------------------------------
// Server end to end

/** A fresh server on a fresh socket with a cleared HVX memory tier,
 *  so per-test counters start at zero. */
struct TestServer {
    std::string path;
    std::unique_ptr<serve::Server> server;

    explicit TestServer(const std::string &name, int jobs = 2,
                        serve::ServeOptions opts = {})
        : path(fresh_socket(name))
    {
        synth::backend_synthesis_cache("hvx").clear();
        opts.socket_path = path;
        opts.jobs = jobs;
        server = std::make_unique<serve::Server>(opts);
    }

    serve::RemoteSelect
    client(bool degrade_locally = true)
    {
        serve::ClientOptions copts;
        copts.socket_path = path;
        copts.degrade_locally = degrade_locally;
        return serve::RemoteSelect(copts);
    }
};

TEST(Serve, PingSelectMetricsRoundTrip)
{
    TestServer ts("basic");
    serve::RemoteSelect client = ts.client();
    EXPECT_TRUE(client.ping());

    const std::string expr = to_sexpr(average_expr());
    const serve::Response resp = client.select("hvx", expr);
    ASSERT_EQ(resp.status, "ok");
    EXPECT_EQ(resp.tier, "cegis");
    ASSERT_FALSE(resp.instr.empty());

    // Same query again: answered by the memory tier.
    const serve::Response warm = client.select("hvx", expr);
    EXPECT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.tier, "memory");
    EXPECT_EQ(warm.instr, resp.instr);

    // Snapshot the metrics before running any in-process synthesis:
    // the service reports cache-counter deltas, and a local reference
    // run in this very process would count against them.
    const synth::ServiceMetrics m = ts.server->service().metrics();
    EXPECT_EQ(m.requests, 2);
    EXPECT_EQ(m.cegis_runs, 1);
    EXPECT_EQ(m.memory_hits, 1);
    EXPECT_EQ(m.latency_count, 2);
    EXPECT_GE(m.latency_p99_us, m.latency_p50_us);

    // Independent in-process reference: fresh CEGIS (no cache), same
    // options — the remote answer must be byte-identical.
    synth::RakeOptions opts;
    opts.use_cache = false;
    auto isa = backend::make_hvx_backend(hvx::Target{});
    auto local = synth::select_instructions_for(parse_expr(expr), *isa,
                                                opts);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(resp.instr, isa->instr_to_sexpr(local->instr));
}

TEST(Serve, ServerSideErrorsAreStructured)
{
    TestServer ts("errors");
    serve::RemoteSelect client = ts.client();

    const serve::Response bad_backend =
        client.select("riscv", "(vmem u8x64 0 0 0)");
    EXPECT_EQ(bad_backend.status, "error");
    EXPECT_NE(bad_backend.error.find("unknown backend"),
              std::string::npos);

    const serve::Response bad_expr = client.select("hvx", "(vadd");
    EXPECT_EQ(bad_expr.status, "error");
    EXPECT_FALSE(bad_expr.error.empty());

    // The session survives per-request errors.
    EXPECT_TRUE(client.ping());
}

TEST(Serve, DeeplyNestedExpressionIsAStructuredError)
{
    // 100,000 '(' is well inside one frame and nests past the
    // s-expression depth limit. Like any malformed expression it is a
    // per-request error, and the session and server carry on.
    TestServer ts("deep");
    serve::RemoteSelect client = ts.client();
    const serve::Response deep =
        client.select("hvx", std::string(100000, '('));
    EXPECT_EQ(deep.status, "error");
    EXPECT_NE(deep.error.find("nests deeper than"), std::string::npos)
        << deep.error;
    EXPECT_TRUE(client.ping());
    EXPECT_TRUE(ts.client().ping());
}

TEST(Serve, ServerDeathMidBatchKeepsPartialResults)
{
    // The regression this pins: a server that dies after answering
    // part of a batch used to make select_batch throw, discarding the
    // answers already on the wire. A hand-rolled fake server makes
    // the failure deterministic — it reads the whole batch, answers
    // exactly the first request, and hangs up.
    const std::string path = fresh_socket("midbatch");
    UnixListener listener(path);

    std::thread fake([&] {
        std::optional<UnixSocket> conn = listener.accept(5000);
        if (!conn)
            return;
        FrameReader frames;
        char buf[4096];
        std::vector<serve::Request> reqs;
        std::string payload, error;
        while (reqs.size() < 3) {
            const FrameReader::Status st = frames.next(&payload, &error);
            if (st == FrameReader::Status::Frame) {
                reqs.push_back(serve::parse_request(payload));
                continue;
            }
            if (st == FrameReader::Status::Error)
                return;
            const ssize_t n = conn->recv_some(buf, sizeof(buf));
            if (n <= 0)
                return;
            frames.feed(buf, static_cast<size_t>(n));
        }
        serve::Response resp;
        resp.id = reqs[0].id;
        resp.status = "no_solution";
        (void)conn->send_all(
            frame_encode(serve::encode_response(resp)));
        // conn goes out of scope here: EOF for the other two.
    });

    serve::ClientOptions copts;
    copts.socket_path = path;
    serve::RemoteSelect client(copts);
    std::vector<serve::Request> batch(3);
    for (serve::Request &r : batch) {
        r.backend = "hvx";
        r.expr = "(vmem u8x64 0 0 0)";
    }
    const std::vector<serve::Response> responses =
        client.select_batch(std::move(batch));
    fake.join();

    ASSERT_EQ(responses.size(), 3u);
    // The answer that made it back survives verbatim...
    EXPECT_EQ(responses[0].status, "no_solution");
    // ...and the lost remainder surfaces as structured errors in the
    // right slots, not an exception that throws the batch away.
    for (size_t i = 1; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].status, "error") << "slot " << i;
        EXPECT_NE(responses[i].error.find("connection lost"),
                  std::string::npos)
            << responses[i].error;
        // A dead connection is not a shed query: it must not trigger
        // the local greedy degradation path.
        EXPECT_FALSE(responses[i].degraded_like_timeout());
        EXPECT_GT(responses[i].id, 0);
    }
}

TEST(Serve, ProtocolErrorAnswersThenDropsSession)
{
    TestServer ts("proto");
    UnixSocket raw = unix_connect(ts.path);

    // Junk bytes that can never be a frame header.
    ASSERT_TRUE(raw.send_all("!!!!\n"));
    FrameReader frames;
    char buf[4096];
    std::string payload, error;
    for (;;) {
        const FrameReader::Status st = frames.next(&payload, &error);
        if (st == FrameReader::Status::Frame)
            break;
        ASSERT_EQ(st, FrameReader::Status::NeedMore);
        const ssize_t n = raw.recv_some(buf, sizeof(buf));
        ASSERT_GT(n, 0);
        frames.feed(buf, static_cast<size_t>(n));
    }
    const serve::Response resp = serve::parse_response(payload);
    EXPECT_EQ(resp.status, "protocol_error");
    EXPECT_FALSE(resp.error.empty());
    // ...and the server hangs up: a mis-framed stream cannot be
    // resynchronized.
    EXPECT_EQ(raw.recv_some(buf, sizeof(buf)), 0);

    // A well-framed but malformed payload gets the same treatment.
    UnixSocket raw2 = unix_connect(ts.path);
    ASSERT_TRUE(raw2.send_all(frame_encode("rake-req 1\nid 1\n"
                                           "op explode\nend\n")));
    FrameReader frames2;
    std::string payload2;
    for (;;) {
        const FrameReader::Status st = frames2.next(&payload2, &error);
        if (st == FrameReader::Status::Frame)
            break;
        ASSERT_EQ(st, FrameReader::Status::NeedMore);
        const ssize_t n = raw2.recv_some(buf, sizeof(buf));
        ASSERT_GT(n, 0);
        frames2.feed(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(serve::parse_response(payload2).status, "protocol_error");
    EXPECT_EQ(raw2.recv_some(buf, sizeof(buf)), 0);

    // The server as a whole is unharmed.
    EXPECT_TRUE(ts.client().ping());
}

TEST(Serve, DuplicateInFlightQueriesDedupeToOneSynthesis)
{
    // Eight copies of one expression in a single batch on four
    // workers: exactly one CEGIS run; the duplicates either wait on
    // the in-flight entry or hit the published one. The counter
    // arithmetic is deterministic and asserted on every attempt.
    // Actually *witnessing* a waiter (inflight_dedup >= 1) is a
    // scheduling observation: on a loaded machine the first synthesis
    // can finish before the duplicates are dispatched. The batch asks
    // for a convolution, whose synthesis outlasts dispatch by more
    // than a two-tap average's does, and the race is retried with a
    // fresh server and expression until one duplicate provably blocked
    // on the in-flight entry.
    bool witnessed = false;
    for (int attempt = 0; attempt < 5 && !witnessed; ++attempt) {
        TestServer ts("dedupe" + std::to_string(attempt), /*jobs=*/4);
        serve::RemoteSelect client = ts.client();

        const std::string expr = to_sexpr(conv_expr(attempt + 1));
        std::vector<serve::Request> batch(8);
        for (serve::Request &r : batch)
            r.expr = expr;
        const std::vector<serve::Response> responses =
            client.select_batch(std::move(batch));
        ASSERT_EQ(responses.size(), 8u);
        for (const serve::Response &r : responses) {
            EXPECT_EQ(r.status, "ok");
            EXPECT_EQ(r.instr, responses[0].instr);
        }

        const synth::ServiceMetrics m = ts.server->service().metrics();
        EXPECT_EQ(m.requests, 8);
        EXPECT_EQ(m.cegis_runs, 1);
        EXPECT_EQ(m.memory_hits, 7);
        EXPECT_LE(m.inflight_dedup, 7);
        witnessed = m.inflight_dedup >= 1;
    }
    EXPECT_TRUE(witnessed)
        << "no attempt overlapped a duplicate with its in-flight "
           "synthesis";
}

TEST(Serve, CountersDeterministicAcrossJobCounts)
{
    // The same workload — 3 distinct expressions, each asked 3 times —
    // against a 1-worker and a 4-worker server. Every counter the
    // protocol promises as deterministic must match exactly; only
    // inflight_dedup (a scheduling observation) may differ, and at
    // jobs=1 it must be exactly zero since queries never overlap.
    std::vector<std::string> exprs;
    for (int offset = 1; offset <= 3; ++offset)
        exprs.push_back(to_sexpr(average_expr(offset)));

    auto run = [&](const std::string &name, int jobs) {
        TestServer ts(name, jobs);
        serve::RemoteSelect client = ts.client();
        std::vector<serve::Request> batch;
        for (int round = 0; round < 3; ++round)
            for (const std::string &e : exprs) {
                serve::Request r;
                r.expr = e;
                batch.push_back(std::move(r));
            }
        auto responses = client.select_batch(std::move(batch));
        for (const auto &r : responses)
            EXPECT_EQ(r.status, "ok");
        return ts.server->service().metrics();
    };

    const synth::ServiceMetrics seq = run("jobs1", 1);
    const synth::ServiceMetrics par = run("jobs4", 4);

    EXPECT_EQ(seq.requests, 9);
    EXPECT_EQ(par.requests, 9);
    EXPECT_EQ(seq.cegis_runs, 3);
    EXPECT_EQ(par.cegis_runs, 3);
    EXPECT_EQ(seq.memory_hits, 6);
    EXPECT_EQ(par.memory_hits, 6);
    EXPECT_EQ(seq.no_solution, par.no_solution);
    EXPECT_EQ(seq.errors, par.errors);
    EXPECT_EQ(seq.overloaded, par.overloaded);
    // Sequential dispatch can never observe an in-flight entry.
    EXPECT_EQ(seq.inflight_dedup, 0);
}

TEST(Serve, OverloadShedsWithoutCachingNegatives)
{
    // One worker, a two-deep admission queue, and a flood of 48
    // distinct queries with 1 ms budgets: most are shed immediately
    // with `overloaded`, the admitted few blow their deadline and
    // degrade. Nothing about either outcome may stick to the keys.
    serve::ServeOptions opts;
    opts.queue_depth = 2;
    TestServer ts("overload", /*jobs=*/1, opts);
    serve::RemoteSelect client = ts.client();

    std::vector<serve::Request> flood;
    for (int offset = 1; offset <= 48; ++offset) {
        serve::Request r;
        r.expr = to_sexpr(average_expr(offset));
        r.timeout_ms = 1;
        flood.push_back(std::move(r));
    }
    const std::vector<serve::Response> responses =
        client.select_batch(flood);

    int shed = 0, admitted = 0;
    for (const serve::Response &r : responses) {
        ASSERT_TRUE(r.status == "overloaded" || r.status == "ok" ||
                    r.status == "timed_out" || r.status == "no_solution")
            << r.status << " " << r.error;
        if (r.status == "overloaded") {
            ++shed;
            // Clients degrade sheds exactly like timeouts: the local
            // greedy fallback filled in a runnable program.
            EXPECT_TRUE(r.degraded_like_timeout());
            EXPECT_TRUE(r.degraded);
            EXPECT_FALSE(r.instr.empty());
        } else {
            ++admitted;
        }
    }
    // 48 requests into a depth-2 queue on one worker: the flood must
    // actually shed, and admission control must actually admit.
    EXPECT_GE(shed, 1);
    EXPECT_GE(admitted, 1);

    const synth::ServiceMetrics mid = ts.server->service().metrics();
    EXPECT_EQ(mid.overloaded, shed);
    EXPECT_EQ(mid.requests, 48);
    if (mid.latency_count > 0) {
        EXPECT_GE(mid.latency_p99_us, mid.latency_p50_us);
    }

    // Recovery: the very expressions that were just shed or timed out
    // answer normally on a calm resubmission — a shed is stateless
    // and a timeout never publishes, so neither cached a negative.
    // One at a time: a 3-request batch would itself overflow the
    // deliberately tiny depth-2 queue.
    for (int offset = 1; offset <= 3; ++offset) {
        const serve::Response r =
            client.select("hvx", to_sexpr(average_expr(offset)));
        EXPECT_EQ(r.status, "ok") << r.error;
        EXPECT_FALSE(r.degraded);
        EXPECT_FALSE(r.instr.empty());
    }
}

TEST(Serve, GracefulStopDrainsCleanly)
{
    TestServer ts("drain");
    serve::RemoteSelect client = ts.client();
    const serve::Response resp =
        client.select("hvx", to_sexpr(average_expr()));
    EXPECT_EQ(resp.status, "ok");

    EXPECT_TRUE(ts.server->stop());
    // Idempotent.
    EXPECT_TRUE(ts.server->stop());
    // The socket path is gone: no stale rendezvous left behind.
    EXPECT_THROW(ts.client(), UserError);
}

/**
 * The stress satellite: N client threads submit overlapping batches
 * of the benchmark-suite expressions concurrently. Every response
 * must be bit-identical across clients (and to an independent
 * in-process reference for a sample), and the server must run CEGIS
 * exactly once per distinct expression — the cross-client dedupe
 * guarantee.
 */
TEST(Serve, StressSuiteConcurrentClients)
{
    std::vector<std::string> queries;
    std::set<std::string> distinct;
    for (const pipeline::Benchmark &b : pipeline::benchmark_suite()) {
        for (const pipeline::KernelExpr &k : b.exprs) {
            queries.push_back(to_sexpr(k.expr));
            // The cache keys on the *simplified* expression, so the
            // expected CEGIS count dedupes the same way.
            distinct.insert(to_sexpr(hir::simplify(k.expr)));
        }
    }
    ASSERT_GE(queries.size(), 21u);

    TestServer ts("stress", /*jobs=*/4);
    constexpr int kClients = 3;
    std::vector<std::vector<serve::Response>> results(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            serve::RemoteSelect client = ts.client();
            std::vector<serve::Request> batch;
            for (const std::string &e : queries) {
                serve::Request r;
                r.expr = e;
                batch.push_back(std::move(r));
            }
            results[c] = client.select_batch(std::move(batch));
        });
    for (std::thread &t : clients)
        t.join();

    // Every client got every answer, and the answers are
    // bit-identical across clients.
    int solved = 0;
    for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(results[c].size(), queries.size()) << "client " << c;
        for (size_t i = 0; i < queries.size(); ++i) {
            const serve::Response &r = results[c][i];
            ASSERT_TRUE(r.status == "ok" || r.status == "no_solution")
                << r.status << " " << r.error;
            EXPECT_EQ(r.status, results[0][i].status)
                << "client " << c << " query " << i;
            EXPECT_EQ(r.instr, results[0][i].instr)
                << "client " << c << " query " << i;
        }
    }
    for (size_t i = 0; i < queries.size(); ++i)
        if (results[0][i].status == "ok")
            ++solved;
    // Solve rate is the backend's business (no_solution is a valid,
    // deterministic answer); the server's obligations are agreement
    // and dedupe. But a server that solved nothing proves nothing.
    EXPECT_GE(solved, 1);

    const synth::ServiceMetrics m = ts.server->service().metrics();
    EXPECT_EQ(m.requests,
              static_cast<int64_t>(kClients * queries.size()));
    // THE dedupe guarantee: one CEGIS run per distinct expression,
    // across three concurrent clients.
    EXPECT_EQ(m.cegis_runs, static_cast<int64_t>(distinct.size()));
    EXPECT_EQ(m.errors, 0);
    EXPECT_EQ(m.overloaded, 0);
    EXPECT_GE(m.latency_p99_us, m.latency_p50_us);
    // With three identical concurrent batches, cross-client in-flight
    // dedupe is what keeps cegis_runs at the distinct count.
    EXPECT_GE(m.inflight_dedup, 1);

    // Independent reference for a sample: fresh uncached synthesis
    // must reproduce the remote answers byte for byte.
    synth::RakeOptions opts;
    opts.use_cache = false;
    for (size_t i = 0; i < std::min<size_t>(3, queries.size()); ++i) {
        auto isa = backend::make_hvx_backend(hvx::Target{});
        auto local = synth::select_instructions_for(
            parse_expr(queries[i]), *isa, opts);
        if (results[0][i].status == "ok") {
            ASSERT_TRUE(local.has_value()) << queries[i];
            EXPECT_EQ(results[0][i].instr,
                      isa->instr_to_sexpr(local->instr))
                << queries[i];
        } else {
            EXPECT_TRUE(!local.has_value() || !local->instr)
                << queries[i];
        }
    }
}

} // namespace
} // namespace rake
