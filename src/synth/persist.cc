#include "synth/persist.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

#include "hir/printer.h"
#include "support/error.h"
#include "support/parse.h"

namespace rake::synth {

namespace fs = std::filesystem;

namespace {

constexpr const char *kMagic = "rake-cache";
constexpr const char *kEntrySuffix = ".rakecache";

/** FNV-1a over the key material: stable across processes, unlike
 *  hir::Expr::hash() or std::hash<std::string>. */
uint64_t
fnv1a(const std::string &s, uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Hexfloat so stats seconds round-trip bit-exactly. */
std::string
fmt_double(double d)
{
    std::ostringstream os;
    os << std::hexfloat << d;
    return os.str();
}

std::string
fmt_query(const QueryStats &q)
{
    std::ostringstream os;
    os << q.queries << " " << q.accepted << " " << q.counterexamples
       << " " << q.dedup_skips << " " << q.ref_cache_hits << " "
       << fmt_double(q.seconds);
    return os.str();
}

std::string
fmt_swizzle(const SwizzleStats &s)
{
    std::ostringstream os;
    os << s.queries << " " << s.solved << " " << s.unsat << " "
       << s.memo_hits << " " << fmt_double(s.seconds);
    return os.str();
}

const char *
proof_name(ProofResult p)
{
    switch (p) {
      case ProofResult::Proved: return "proved";
      case ProofResult::Refuted: return "refuted";
      case ProofResult::Unknown: return "unknown";
    }
    return "unknown";
}

double
parse_d(const std::string &s)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    RAKE_USER_CHECK(errno != ERANGE && end != s.c_str() && *end == '\0',
                    "bad double in cache entry: " << s);
    return v;
}

QueryStats
parse_query(const std::string &s)
{
    const auto t = split_ws(s);
    RAKE_USER_CHECK(t.size() == 6, "query stats want 6 fields: " << s);
    QueryStats q;
    q.queries = parse_int_as<int>(t[0], "query count");
    q.accepted = parse_int_as<int>(t[1], "accepted count");
    q.counterexamples = parse_int_as<int>(t[2], "counterexample count");
    q.dedup_skips = parse_int_as<int>(t[3], "dedup-skip count");
    q.ref_cache_hits = parse_int_as<int>(t[4], "ref-cache-hit count");
    q.seconds = parse_d(t[5]);
    return q;
}

SwizzleStats
parse_swizzle(const std::string &s)
{
    const auto t = split_ws(s);
    RAKE_USER_CHECK(t.size() == 5, "swizzle stats want 5 fields: " << s);
    SwizzleStats w;
    w.queries = parse_int_as<int>(t[0], "swizzle query count");
    w.solved = parse_int_as<int>(t[1], "solved count");
    w.unsat = parse_int_as<int>(t[2], "unsat count");
    w.memo_hits = parse_int_as<int>(t[3], "memo-hit count");
    w.seconds = parse_d(t[4]);
    return w;
}

ProofResult
parse_proof(const std::string &s)
{
    if (s == "proved")
        return ProofResult::Proved;
    if (s == "refuted")
        return ProofResult::Refuted;
    RAKE_USER_CHECK(s == "unknown", "bad proof outcome: " << s);
    return ProofResult::Unknown;
}

/** The version header and key every entry starts with. */
struct EntryHeader {
    std::string backend;
    int grammar = 0;
    int cost_model = 0;
    std::string options_hex;
    std::string expr;
};

void
write_header(std::ostringstream &os, const EntryHeader &h)
{
    os << kMagic << " " << kPersistFormatVersion << "\n"
       << "backend " << h.backend << "\n"
       << "grammar " << h.grammar << "\n"
       << "cost-model " << h.cost_model << "\n"
       << "options " << h.options_hex << "\n"
       << "expr " << h.expr << "\n";
}

/**
 * Validate the header against the expected key. Format / grammar /
 * cost-model version mismatches and key mismatches (a filename-hash
 * collision) all land in the same bucket: reject the entry, let the
 * next store overwrite it.
 */
void
check_header(LineReader &r, const EntryHeader &want)
{
    RAKE_USER_CHECK(parse_int_as<int>(r.take(kMagic), "format version") ==
                        kPersistFormatVersion,
                    "cache entry format version mismatch");
    RAKE_USER_CHECK(r.take("backend") == want.backend,
                    "cache entry backend mismatch");
    RAKE_USER_CHECK(parse_int_as<int>(r.take("grammar"), "grammar") ==
                        want.grammar,
                    "cache entry grammar version mismatch");
    RAKE_USER_CHECK(parse_int_as<int>(r.take("cost-model"),
                                      "cost model") == want.cost_model,
                    "cache entry cost-model version mismatch");
    RAKE_USER_CHECK(r.take("options") == want.options_hex,
                    "cache entry options fingerprint mismatch");
    RAKE_USER_CHECK(r.take("expr") == want.expr,
                    "cache entry expression mismatch");
}

void
write_stats(std::ostringstream &os, const LiftStats &lift,
            const LowerStats &lower)
{
    os << "lift-update " << fmt_query(lift.update) << "\n"
       << "lift-replace " << fmt_query(lift.replace) << "\n"
       << "lift-extend " << fmt_query(lift.extend) << "\n"
       << "sketch " << fmt_query(lower.sketch) << "\n"
       << "swizzle " << fmt_swizzle(lower.swizzle) << "\n"
       << "backtracks " << lower.backtracks << "\n";
}

void
read_stats(LineReader &r, LiftStats &lift, LowerStats &lower)
{
    lift.update = parse_query(r.take("lift-update"));
    lift.replace = parse_query(r.take("lift-replace"));
    lift.extend = parse_query(r.take("lift-extend"));
    lower.sketch = parse_query(r.take("sketch"));
    lower.swizzle = parse_swizzle(r.take("swizzle"));
    lower.backtracks = parse_int_as<int>(r.take("backtracks"), "backtracks");
}

/** True for outcomes that may land on disk: a verified Ok result or a
 *  deterministic no-solution. Timed-out / degraded runs never
 *  qualify (an aborted search says nothing about the key). */
bool
persistable(const std::optional<BackendRakeResult> &result)
{
    if (!result)
        return true; // deterministic no-solution
    return result->status == SynthStatus::Ok && !result->degraded &&
           result->instr != nullptr;
}

/**
 * Durability knob: RAKE_CACHE_FSYNC=0 skips the fsyncs below for
 * benchmarking on slow filesystems. Default on — a published entry
 * should survive power loss, not just process death.
 */
bool
fsync_enabled()
{
    const char *env = std::getenv("RAKE_CACHE_FSYNC");
    return env == nullptr || std::string(env) != "0";
}

/** Slurp one entry file; nullopt when it does not exist. */
std::optional<std::string>
read_file(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    if (!is.good() && !is.eof())
        return std::nullopt;
    return os.str();
}

} // namespace

/**
 * Crash-safe write: unique temp file in the same directory, then an
 * atomic rename over the final name. Readers either see the old
 * entry or the complete new one, never a torn write. Best-effort:
 * any I/O failure turns the store into a no-op.
 *
 * Durable, too (the regression this encodes): the temp file is
 * fsync'd before the rename — otherwise the rename can be journaled
 * ahead of the data and a power cut publishes a complete-looking
 * entry full of zeros — and the directory is fsync'd after it, or
 * the new name itself may vanish on replay. RAKE_CACHE_FSYNC=0
 * trades that durability back for speed.
 */
bool
atomic_write(const std::string &path, const std::string &payload)
{
    static std::atomic<uint64_t> counter{0};
    std::ostringstream tmp;
    tmp << path << ".tmp." << ::getpid() << "."
        << counter.fetch_add(1, std::memory_order_relaxed);
    const std::string tmp_path = tmp.str();
    const bool durable = fsync_enabled();

    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0)
        return false;
    size_t off = 0;
    while (off < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            std::error_code ec;
            fs::remove(tmp_path, ec);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    if (durable && ::fsync(fd) != 0) {
        ::close(fd);
        std::error_code ec;
        fs::remove(tmp_path, ec);
        return false;
    }
    if (::close(fd) != 0) {
        std::error_code ec;
        fs::remove(tmp_path, ec);
        return false;
    }

    std::error_code ec;
    fs::rename(tmp_path, path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return false;
    }

    if (durable) {
        // Publish the rename itself: fsync the containing directory.
        // Failure here is not unwound — the entry is already live and
        // well-formed, merely not yet guaranteed on stable storage.
        const std::string dir = fs::path(path).parent_path().string();
        const int dfd =
            ::open(dir.empty() ? "." : dir.c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC);
        if (dfd >= 0) {
            (void)::fsync(dfd);
            ::close(dfd);
        }
    }
    return true;
}

PersistentStore::PersistentStore(std::string dir) : dir_(std::move(dir))
{
    RAKE_USER_CHECK(!dir_.empty(), "cache directory must be non-empty");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    RAKE_USER_CHECK(!ec, "cannot create cache directory " << dir_ << ": "
                                                          << ec.message());
    RAKE_USER_CHECK(fs::is_directory(dir_),
                    "cache path is not a directory: " << dir_);
}

std::string
PersistentStore::entry_path(const std::string &backend,
                            const hir::ExprPtr &normalized,
                            uint64_t options_fp) const
{
    // Content address over the full key. Version keys are *not* part
    // of the filename: a version bump must find the stale file so it
    // can be counted (disk_invalid) and overwritten in place.
    uint64_t h = fnv1a(backend);
    h = fnv1a(std::string(1, '\0'), h);
    h = fnv1a(hir::to_sexpr(normalized), h);
    h = fnv1a(std::string(1, '\0'), h);
    h = fnv1a(hex64(options_fp), h);
    return dir_ + "/" + hex64(h) + kEntrySuffix;
}

DiskLookup
PersistentStore::load_backend(const hir::ExprPtr &normalized,
                              uint64_t options_fp,
                              const backend::TargetISA &isa)
{
    DiskLookup out;
    const EntryHeader want{isa.name(), isa.grammar_version(),
                           isa.cost_model_version(), hex64(options_fp),
                           hir::to_sexpr(normalized)};
    const auto text =
        read_file(entry_path(want.backend, normalized, options_fp));
    if (!text)
        return out;
    try {
        LineReader r(*text, "cache entry");
        check_header(r, want);
        const std::string status = r.take("status");
        if (status == "ok") {
            BackendRakeResult res;
            res.instr = isa.instr_from_sexpr(r.take("instr"));
            read_stats(r, res.lift, res.lower);
            res.proof = parse_proof(r.take("proof"));
            r.take_bare("end");
            r.done();
            out.result = std::move(res);
        } else {
            RAKE_USER_CHECK(status == "no_solution",
                            "bad cache entry status: " << status);
            r.take_bare("end");
            r.done();
        }
    } catch (const UserError &) {
        out.invalid = true;
        invalid_.fetch_add(1, std::memory_order_relaxed);
        return out;
    }
    out.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

bool
PersistentStore::store_backend(const hir::ExprPtr &normalized,
                               uint64_t options_fp,
                               const backend::TargetISA &isa,
                               const std::optional<BackendRakeResult> &result)
{
    if (!persistable(result))
        return false;
    const EntryHeader header{isa.name(), isa.grammar_version(),
                             isa.cost_model_version(), hex64(options_fp),
                             hir::to_sexpr(normalized)};
    // S-expressions are single-line by construction; refuse to encode
    // anything that would break the line-record format.
    if (!is_single_line(header.expr))
        return false;
    std::ostringstream os;
    write_header(os, header);
    if (result) {
        const std::string instr = isa.instr_to_sexpr(result->instr);
        if (!is_single_line(instr))
            return false;
        os << "status ok\n"
           << "instr " << instr << "\n";
        write_stats(os, result->lift, result->lower);
        os << "proof " << proof_name(result->proof) << "\n";
    } else {
        os << "status no_solution\n";
    }
    os << "end\n";
    if (!atomic_write(entry_path(header.backend, normalized, options_fp),
                      os.str()))
        return false;
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

DiskCacheStats
PersistentStore::stats() const
{
    DiskCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    return s;
}

PersistentStore *
persistent_store(const std::string &dir)
{
    if (dir.empty())
        return nullptr;
    static std::mutex mutex;
    static auto &stores =
        *new std::map<std::string, std::unique_ptr<PersistentStore>>;
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = stores[dir];
    if (!slot)
        slot = std::make_unique<PersistentStore>(dir);
    return slot.get();
}

std::vector<CacheEntryView>
scan_cache_dir(const std::string &dir)
{
    std::vector<CacheEntryView> out;
    if (dir.empty())
        return out;
    std::error_code ec;
    std::vector<std::string> paths;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path &p = it->path();
        if (p.extension() == kEntrySuffix)
            paths.push_back(p.string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        const auto text = read_file(path);
        if (!text)
            continue;
        // Lenient field walk: the miner only needs the version keys
        // and the solved pair; stats and proof lines are skipped, and
        // anything structurally off means the file is not an entry.
        try {
            LineReader r(*text, "cache entry");
            CacheEntryView view;
            RAKE_USER_CHECK(parse_int_as<int>(r.take(kMagic),
                                              "format version") ==
                                kPersistFormatVersion,
                            "cache entry format version mismatch");
            view.backend = r.take("backend");
            view.grammar = parse_int_as<int>(r.take("grammar"), "grammar");
            view.cost_model =
                parse_int_as<int>(r.take("cost-model"), "cost model");
            r.take("options");
            view.expr = r.take("expr");
            const std::string status = r.take("status");
            if (status == "ok") {
                view.instr = r.take("instr");
            } else {
                RAKE_USER_CHECK(status == "no_solution",
                                "bad cache entry status: " << status);
            }
            out.push_back(std::move(view));
        } catch (const UserError &) {
            continue;
        }
    }
    return out;
}

std::string
resolve_cache_dir(const std::string &requested)
{
    if (!requested.empty())
        return requested;
    if (const char *env = std::getenv("RAKE_CACHE_DIR"))
        return env;
    return "";
}

} // namespace rake::synth
