/**
 * @file
 * The benchmark program. One run = the setup of one workload (setup_s
 * is main's entry to the first timed op), then whole timed passes
 * until `--seconds` have elapsed, each followed by a host probe, then
 * the workload's post-run checks. An untraced run prints the end-to-end
 * metrics, each timed one the median of its per-pass values; a traced
 * run (`--trace 1`) records spans in memory, probes each layer
 * and prints the per-layer metrics instead. The last stdout line is the
 * result object; a steadiness record (per-pass values and quartiles,
 * host fingerprint and probe, deterministic counters) goes to the
 * output directory.
 *
 *   rake_perfbench --workload suite_compile|execute_jit
 *                  --seed N --seconds S --trace 0|1
 *                  [--jobs N] [--tiny] [--out-dir DIR]
 */
#include <sys/resource.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "ceiling.h"
#include "common.h"
#include "jit/jit.h"
#include "support/parse.h"

namespace perfbench {

// ------------------------------------------------------------------
// Shared helpers (declared in common.h)
// ------------------------------------------------------------------

int
online_cpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

int
resolve_workers(const Args &args)
{
    return args.jobs > 0 ? args.jobs : std::max(1, online_cpus() / 2);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

void
Tracer::enable(Clock::time_point origin)
{
    origin_ = origin;
    enabled_ = true;
}

namespace {

thread_local int64_t current_span = 0;

uint64_t
thread_tag()
{
    return std::hash<std::thread::id>()(std::this_thread::get_id()) &
           0xffffff;
}

} // namespace

int64_t
Tracer::open(int64_t *parent_slot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    *parent_slot = current_span;
    current_span = next_id_++;
    return current_span;
}

void
Tracer::close(int64_t id, const char *name, Clock::time_point start,
              int64_t parent)
{
    const auto end = Clock::now();
    Record r;
    r.name = name;
    r.start_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    r.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    r.tid = thread_tag();
    r.id = id;
    r.parent = parent;
    current_span = parent;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(r));
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                      "\"parent\":%lld}}%s\n",
                      r.name.c_str(), static_cast<unsigned long long>(r.tid),
                      r.start_us, r.dur_us, static_cast<long long>(r.id),
                      static_cast<long long>(r.parent),
                      i + 1 < records_.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

Span::Span(const char *name) : name_(name)
{
    if (!tracer().enabled())
        return;
    id_ = tracer().open(&parent_);
    start_ = Clock::now();
}

Span::~Span()
{
    if (id_ != 0)
        tracer().close(id_, name_, start_, parent_);
}

namespace {

// ------------------------------------------------------------------
// Running one workload
// ------------------------------------------------------------------

struct PassMetric {
    const char *name;
    const char *unit;
    double (*of)(const PassLog &);
};

/** The timed end-to-end metrics, each computed from one pass. */
const std::vector<PassMetric> &
pass_metrics()
{
    static const std::vector<PassMetric> metrics = {
        {"throughput_per_s", "1/s",
         [](const PassLog &p) {
             return static_cast<double>(p.latency_ms.size()) / p.seconds;
         }},
        {"latency_ms_p50", "ms",
         [](const PassLog &p) { return quantile(p.latency_ms, 0.50); }},
        {"latency_ms_p90", "ms",
         [](const PassLog &p) { return quantile(p.latency_ms, 0.90); }},
        {"latency_ms_p99", "ms",
         [](const PassLog &p) { return quantile(p.latency_ms, 0.99); }},
    };
    return metrics;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rake_perfbench: " << why
              << "\nusage: rake_perfbench --workload "
                 "suite_compile|execute_jit --seed N --seconds S "
                 "--trace 0|1 [--jobs N] [--tiny] [--out-dir DIR]\n";
    std::exit(2);
}

Args
parse_args(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                a.workload = value();
                have_workload = true;
            } else if (flag == "--seed") {
                a.seed = static_cast<uint64_t>(rake::parse_int_knob(
                    value(), "--seed", 0, INT64_MAX));
            } else if (flag == "--seconds") {
                a.seconds = static_cast<double>(
                    rake::parse_int_knob(value(), "--seconds", 1, 3600));
            } else if (flag == "--trace") {
                a.trace =
                    rake::parse_int_knob(value(), "--trace", 0, 1) == 1;
            } else if (flag == "--jobs") {
                a.jobs = static_cast<int>(
                    rake::parse_int_knob(value(), "--jobs", 1, 1024));
            } else if (flag == "--tiny") {
                a.tiny = true;
            } else if (flag == "--out-dir") {
                a.out_dir = value();
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception &e) {
            usage(e.what());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** The CPU's brand string, from cpuid (no file is read). */
std::string
cpu_model()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
    s = s.c_str();
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

/**
 * Host speed after a pass: median time of a fixed plain-C++ kernel (the
 * sobel ceiling over a constant 1024x256 image) that no change to the
 * program can touch. It moves only when the host does.
 */
double
host_probe_us()
{
    static std::vector<uint8_t> in, out;
    if (in.empty()) {
        in.resize(1024 * 256);
        out.resize(in.size());
        for (size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<uint8_t>((i * 7 + i / 1024 * 3) % 251);
    }
    std::vector<double> us;
    for (int r = 0; r < 9; ++r) {
        const auto t0 = Clock::now();
        ceiling_sobel3x3(in.data(), out.data(), 1024, 256);
        us.push_back(seconds_since(t0) * 1e6);
    }
    return median(us);
}

/** A pass-level series and its quartiles. */
std::string
series_json(const std::vector<double> &v)
{
    std::string s = "{\"q1\":" + num(quantile(v, 0.25)) +
                    ",\"median\":" + num(quantile(v, 0.5)) +
                    ",\"q3\":" + num(quantile(v, 0.75)) + ",\"passes\":[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            s += ",";
        s += num(v[i]);
    }
    return s + "]}";
}

/**
 * The steadiness record of one run: every timed metric per pass with
 * its quartiles, the setup time, the host fingerprint, the host probe after
 * each pass and the deterministic counters, so a later run can tell
 * host drift from a program change.
 */
void
write_steadiness(const Args &args, const std::vector<PassLog> &passes,
                 double setup_s,
                 const std::vector<double> &host_probe, const Outcome &out,
                 const std::string &path)
{
    std::ostringstream os;
    os << "{\"workload\":" << json_str(args.workload)
       << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
       << ",\"passes\":" << passes.size() << ",\"host\":{\"cpu\":"
       << json_str(cpu_model()) << ",\"nproc\":" << online_cpus()
       << ",\"jobs\":" << resolve_workers(args) << ",\"jit_simd\":"
       << json_str(rake::jit::to_string(rake::jit::simd_level()))
       << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << json_str("gcc " __VERSION__) << "}"
       << ",\"setup_s\":" << num(setup_s)
       << ",\"host_probe_us\":" << series_json(host_probe)
       << ",\"per_pass\":{";
    const char *sep = "";
    for (const PassMetric &m : pass_metrics()) {
        std::vector<double> v;
        for (const PassLog &p : passes)
            v.push_back(m.of(p));
        os << sep << json_str(m.name) << ":" << series_json(v);
        sep = ",";
    }
    os << "},\"counters\":{";
    sep = "";
    for (const auto &[name, v] : out.counters) {
        os << sep << json_str(name) << ":" << v;
        sep = ",";
    }
    os << "}}\n";
    std::ofstream f(path);
    f << os.str();
}

int
run(const Args &args, Clock::time_point process_start)
{
    std::unique_ptr<Workload> wl;
    if (args.workload == "suite_compile")
        wl = make_suite_compile(args);
    else if (args.workload == "execute_jit")
        wl = make_execute_jit(args);
    else
        usage("unknown workload " + args.workload);
    std::filesystem::create_directories(args.out_dir);
    if (args.trace)
        tracer().enable(process_start);

    // One setup, timed from main's entry so one-time start-up (the
    // first z3 context, lazily built tables) counts too.
    wl->setup();
    const double setup_s = seconds_since(process_start);

    // Whole passes until the budget is spent.
    std::vector<PassLog> passes;
    std::vector<double> host_probe;
    const auto t0 = Clock::now();
    do {
        passes.emplace_back();
        wl->pass(passes.back());
        host_probe.push_back(host_probe_us());
    } while (seconds_since(t0) < args.seconds);

    Outcome out;
    int64_t completed = 0;
    for (const PassLog &p : passes) {
        out.attempted += p.attempted;
        out.failed += p.failed;
        completed += static_cast<int64_t>(p.latency_ms.size());
    }
    wl->finish(out);

    Metrics printed;
    if (args.trace) {
        out.metrics.clear();
        wl->layers(out);
        printed = out.metrics;
        tracer().write(args.out_dir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json");
    } else {
        // Each timed metric is the median of its per-pass values: a
        // pass the host stalled moves one sample, not the result.
        printed = out.metrics;
        printed["setup_s"] = {setup_s, "s"};
        for (const PassMetric &m : pass_metrics()) {
            std::vector<double> v;
            for (const PassLog &p : passes)
                v.push_back(m.of(p));
            printed[m.name] = {median(v), m.unit};
        }
        printed["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    }

    const std::string record = args.out_dir + "/steadiness-" +
                               args.workload + "-" +
                               std::to_string(args.seed) +
                               (args.trace ? "-trace" : "") + ".json";
    write_steadiness(args, passes, setup_s, host_probe, out, record);
    std::cerr << "rake_perfbench: " << args.workload << " seed " << args.seed
              << ": " << passes.size() << " passes, " << completed
              << " ops, " << out.failed << " failed; steadiness record "
              << record << "\n";
    for (const std::string &f : out.failures)
        std::cerr << "  failure: " << f << "\n";

    std::ostringstream os;
    os << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : printed) {
        os << (first ? "" : ",") << json_str(name) << ":{\"value\":"
           << num(m.value) << ",\"unit\":" << json_str(m.unit) << "}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const auto process_start = perfbench::Clock::now();
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    try {
        return perfbench::run(args, process_start);
    } catch (const std::exception &e) {
        std::cerr << "rake_perfbench: " << e.what() << "\n";
        return 1;
    }
}
