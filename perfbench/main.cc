/**
 * @file
 * perfbench: the repository's end-to-end benchmark (see README.md in
 * this directory for the workloads, the metrics and how to read them).
 *
 * One process runs one workload:
 *
 *   perfbench --workload fig5_sim|cold_cell|serve_run|serve_sweep
 *             --seed N --seconds S --trace 0|1
 *             --reference perfbench/reference.json
 *             [--work-dir DIR] [--spans-out FILE]
 *
 * Every run covers whole passes over a fixed op list whose order the
 * seed permutes, checks every op against the committed reference, and
 * prints one JSON result object as its last line of stdout. Other
 * modes: --regen-reference (rewrite the reference through the same
 * library path `msctool sweep` takes), --check-sweep-json FILE
 * (compare an `msctool sweep --json` document against the reference)
 * and --self-test (tiny-size checks of the benchmark itself).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <csignal>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "arch/processor.h"
#include "client/client.h"
#include "pipeline/pool.h"
#include "report/record.h"
#include "report/sweep.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "workloads/workload.h"

using namespace msc;
using report::Json;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

double
secondsSince(uint64_t t0)
{
    return double(nowNs() - t0) * 1e-9;
}

// ------------------------------------------------------------------
// Digests and seeded permutations.

/** "<length>:<FNV-1a 64 hex>" of @p bytes. */
std::string
digest(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%zu:%016llx", bytes.size(),
                  (unsigned long long)h);
    return buf;
}

uint64_t
splitmix(uint64_t &s)
{
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Op order of pass @p pass under @p seed (Fisher-Yates). */
std::vector<size_t>
passOrder(size_t n, uint64_t seed, uint64_t pass)
{
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = i;
    uint64_t s = seed * 0x2545f4914f6cdd1dull + pass;
    for (size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[splitmix(s) % i]);
    return v;
}

// ------------------------------------------------------------------
// Spans. A traced run records one span per call the benchmark makes
// into a layer's public function; untraced runs record nothing.

enum class Layer : uint8_t
{
    Bench,
    Workloads,
    Pipeline,
    Arch,
    Report,
    Client,
    Serve,
    Router,
    Count
};

const char *const LAYER_NAMES[] = {"bench",  "workloads", "pipeline",
                                   "arch",   "report",    "client",
                                   "serve",  "router"};

enum SpanKind : uint16_t
{
    K_OP,
    K_SETUP,
    K_POOL_SESSION,
    K_BUILD,
    K_TRANSFORM,
    K_PROFILE,
    K_SELECT,
    K_TRACE,
    K_SIMULATE,
    K_ARCH_SIMULATE,
    K_RECORD,
    K_ENCODE,
    K_DECODE,
    K_SEND,
    K_SERVE_FIRST,
    K_SERVE_NEXT,
    K_ROUTER_FIRST,
    K_ROUTER_NEXT,
    NUM_KINDS
};

struct KindDef
{
    const char *name;
    Layer layer;
};

const KindDef KINDS[NUM_KINDS] = {
    {"op", Layer::Bench},
    {"setup", Layer::Bench},
    {"pipeline.SessionPool::session", Layer::Pipeline},
    {"workloads.buildWorkload", Layer::Workloads},
    {"pipeline.Session::transform", Layer::Pipeline},
    {"pipeline.Session::profile", Layer::Pipeline},
    {"pipeline.Session::select", Layer::Pipeline},
    {"pipeline.Session::trace", Layer::Pipeline},
    {"pipeline.Session::simulate", Layer::Pipeline},
    {"arch.simulate", Layer::Arch},
    {"report.record", Layer::Report},
    {"client.RequestBuilder::payload", Layer::Client},
    {"client.parseResponseFrame", Layer::Client},
    {"serve.writeFrame", Layer::Serve},
    {"serve.readFrame(first)", Layer::Serve},
    {"serve.readFrame(next)", Layer::Serve},
    {"router.readFrame(first)", Layer::Router},
    {"router.readFrame(next)", Layer::Router},
};

constexpr uint32_t NO_OP = ~0u;

struct Span
{
    uint64_t start = 0;
    uint64_t end = 0;
    uint32_t op = NO_OP;  ///< Id shared by every span of one op.
    int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
    uint16_t kind = 0;
};

/** One thread's spans, in memory until the run ends. */
struct SpanLog
{
    bool on = false;
    uint32_t op = NO_OP;
    int32_t cur = -1;
    std::vector<Span> spans;
};

class Scope
{
  public:
    Scope(SpanLog &log, SpanKind k) : _log(log.on ? &log : nullptr)
    {
        if (!_log)
            return;
        _idx = int32_t(_log->spans.size());
        Span s;
        s.op = _log->op;
        s.parent = _log->cur;
        s.kind = k;
        _log->spans.push_back(s);
        _log->cur = _idx;
        _log->spans[size_t(_idx)].start = nowNs();
    }

    ~Scope()
    {
        if (!_log)
            return;
        Span &s = _log->spans[size_t(_idx)];
        s.end = nowNs();
        _log->cur = s.parent;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *_log;
    int32_t _idx = -1;
};

struct KindAgg
{
    uint64_t calls = 0;
    double totalNs = 0;
    uint64_t inOpCalls = 0;  ///< Calls made inside an op span.
    double inOpSelfNs = 0;
};

std::array<KindAgg, NUM_KINDS>
aggregate(const std::vector<const SpanLog *> &logs)
{
    std::array<KindAgg, NUM_KINDS> a{};
    for (const SpanLog *log : logs) {
        std::vector<double> self(log->spans.size());
        for (size_t i = 0; i < log->spans.size(); ++i)
            self[i] = double(log->spans[i].end - log->spans[i].start);
        for (const Span &s : log->spans)
            if (s.parent >= 0)
                self[size_t(s.parent)] -= double(s.end - s.start);
        for (size_t i = 0; i < log->spans.size(); ++i) {
            const Span &s = log->spans[i];
            KindAgg &k = a[s.kind];
            ++k.calls;
            k.totalNs += double(s.end - s.start);
            if (s.op != NO_OP) {
                ++k.inOpCalls;
                k.inOpSelfNs += self[i];
            }
        }
    }
    return a;
}

/** Spans per thread the span file keeps; serve runs record ~10^6. */
constexpr size_t SPANS_WRITTEN = 20000;

/** Writes each thread's first SPANS_WRITTEN spans as a Chrome
 *  trace-event document (loads in Perfetto UI / chrome://tracing). The
 *  metrics aggregate every span. */
void
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    if (path.empty())
        return;
    fs::create_directories(fs::path(path).parent_path());
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    uint64_t t0 = ~0ull;
    size_t total = 0;
    for (const SpanLog *log : logs) {
        total += log->spans.size();
        for (const Span &s : log->spans)
            t0 = std::min(t0, s.start);
    }
    std::fprintf(f, "{\"otherData\":{\"spans_recorded\":%zu,"
                    "\"spans_written_per_thread\":%zu},\n"
                    "\"traceEvents\":[",
                 total, SPANS_WRITTEN);
    bool first = true;
    for (size_t tid = 0; tid < logs.size(); ++tid) {
        const auto &spans = logs[tid]->spans;
        for (size_t i = 0; i < std::min(spans.size(), SPANS_WRITTEN); ++i) {
            const Span &s = spans[i];
            const KindDef &k = KINDS[s.kind];
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld}}",
                first ? "" : ",", k.name, LAYER_NAMES[size_t(k.layer)],
                tid, double(s.start - t0) / 1e3,
                double(s.end - s.start) / 1e3, i, s.parent,
                s.op == NO_OP ? -1LL : (long long)s.op);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

// ------------------------------------------------------------------
// The grid.

const std::vector<std::string> &
figureWorkloads()
{
    // Figure 5's order: integer suite, then floating point.
    static const std::vector<std::string> names = {
        "go",      "m88ksim", "gcc",    "compress", "li",    "ijpeg",
        "perl",    "vortex",  "tomcatv", "swim",    "su2cor", "hydro2d",
        "mgrid",   "applu",   "turb3d", "apsi",     "fpppp", "wave5"};
    return names;
}

bool
respondsToSize(const std::string &n)
{
    return n == "compress" || n == "fpppp";
}

constexpr uint64_t FULL_INSTS = 250'000;
constexpr uint64_t SMALL_INSTS = 60'000;

using tasksel::Strategy;
const Strategy STRATEGIES[] = {Strategy::BasicBlock, Strategy::ControlFlow,
                               Strategy::DataDependence};

/**
 * The Figure-5 grid in bench_figure5's order at its MSC_SMALL scale:
 * 224 cells. A full-scale pass takes 13-20 s on a 4-vCPU Xeon, so a
 * run could hold only one; at this scale a 50 s run holds 12-17, and
 * each op's fastest run is taken over them (see bestPerOp()).
 */
std::vector<report::RunSpec>
fig5Specs()
{
    std::vector<report::RunSpec> v;
    for (bool ooo : {true, false})
        for (unsigned pus : {4u, 8u})
            for (const auto &n : figureWorkloads()) {
                for (Strategy s : STRATEGIES)
                    v.push_back(report::makeSpec(n, s, pus, ooo,
                                                 workloads::Scale::Small,
                                                 SMALL_INSTS));
                if (respondsToSize(n))
                    v.push_back(report::makeSpec(
                        n, Strategy::DataDependence, pus, ooo,
                        workloads::Scale::Small, SMALL_INSTS, true));
            }
    return v;
}

/** 18 workloads x bb/cf/dd at 4 PUs, out of order: 54 cells. */
std::vector<report::RunSpec>
coldSpecs()
{
    std::vector<report::RunSpec> v;
    for (const auto &n : figureWorkloads())
        for (Strategy s : STRATEGIES)
            v.push_back(report::makeSpec(n, s, 4, true,
                                         workloads::Scale::Full,
                                         FULL_INSTS));
    return v;
}

client::RequestBuilder
runRequest(const std::string &id, const std::string &workload)
{
    client::RequestBuilder b = client::RequestBuilder::run(id, workload);
    b.strategy("cf").pusCount(4).smallScale(true).insts(SMALL_INSTS);
    return b;
}

/** One workload's out-of-order row of the small-scale Figure-5 grid
 *  (bb/cf/dd x 4/8 PUs): 6 cells. */
client::RequestBuilder
rowRequest(const std::string &id, const std::string &workload)
{
    client::RequestBuilder b = client::RequestBuilder::sweep(id);
    b.workloads({workload})
        .strategies({"bb", "cf", "dd"})
        .pus({4, 8})
        .smallScale(true)
        .insts(SMALL_INSTS);
    return b;
}

// ------------------------------------------------------------------
// The committed reference.

/** Digests by op: cell id for the compute workloads (their
 *  msc.sweep run objects), workload name for the serve workloads (the
 *  reassembled msc.sweep documents). */
struct Reference
{
    std::map<std::string, std::string> fig5Sim, coldCell, serveRun,
        serveSweep;
    /** Per workload, the exact counts a run of the whole op list must
     *  repeat (see exactCounts()). */
    std::map<std::string, std::map<std::string, double>> exact;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Reference
loadReference(const std::string &path)
{
    Json doc = Json::parse(readFile(path));
    if (doc.get("schema").asString() != "msc.perfbench.reference")
        throw std::runtime_error(path + ": not a perfbench reference");
    Reference r;
    auto load = [&](const char *key,
                    std::map<std::string, std::string> &m) {
        for (const auto &[k, v] : doc.get(key).members())
            m[k] = v.asString();
    };
    load("fig5_sim", r.fig5Sim);
    load("cold_cell", r.coldCell);
    load("serve_run", r.serveRun);
    load("serve_sweep", r.serveSweep);
    for (const auto &[w, counts] : doc.get("exact").members())
        for (const auto &[k, v] : counts.members())
            r.exact[w][k] = v.asDouble();
    return r;
}

void
writeReference(const std::string &path, const Reference &r)
{
    Json doc = Json::object();
    doc["schema"] = "msc.perfbench.reference";
    doc["schema_version"] = 1;
    doc["digest"] = "<bytes>:<FNV-1a 64 of the compact JSON bytes>";
    auto put = [&](const char *key,
                   const std::map<std::string, std::string> &m) {
        Json o = Json::object();
        for (const auto &[k, v] : m)
            o[k] = v;
        doc[key] = std::move(o);
    };
    put("fig5_sim", r.fig5Sim);
    put("cold_cell", r.coldCell);
    put("serve_run", r.serveRun);
    put("serve_sweep", r.serveSweep);
    Json exact = Json::object();
    for (const auto &[w, counts] : r.exact) {
        Json o = Json::object();
        for (const auto &[k, v] : counts)
            o[k] = v;
        exact[w] = std::move(o);
    }
    doc["exact"] = std::move(exact);
    report::writeFile(path, doc.dump(1) + "\n");
}

/** Every digest, computed through report::SweepRunner on one thread
 *  and serialized exactly as `msctool sweep --json` does. */
Reference
computeDigests()
{
    Reference r;
    report::SweepRunner runner(1);
    auto cells = [&](const std::vector<report::RunSpec> &specs,
                     std::map<std::string, std::string> &out) {
        for (const auto &rec : runner.run(specs))
            out[rec.spec.id] = digest(report::runToJson(rec).dump());
    };
    cells(fig5Specs(), r.fig5Sim);
    cells(coldSpecs(), r.coldCell);
    auto document = [&](const client::RequestBuilder &req) {
        std::vector<Json> runs;
        for (const auto &rec :
             runner.run(serve::parseRequest(req.payload(), {}).specs))
            runs.push_back(report::runToJson(rec));
        return digest(report::sweepDocFromRuns(std::move(runs)).dump());
    };
    for (const auto &w : figureWorkloads()) {
        r.serveRun[w] = document(runRequest("ref", w));
        r.serveSweep[w] = document(rowRequest("ref", w));
    }
    return r;
}

// ------------------------------------------------------------------
// Run bookkeeping shared by all workloads.

/** Exact simulated counts of the timing model. */
struct ArchCounts
{
    uint64_t cycles = 0, insts = 0, skipped = 0, l1dMisses = 0,
             taskMispredicts = 0, tasksSquashed = 0, arbStalls = 0;

    void add(const arch::SimStats &s)
    {
        cycles += s.cycles;
        insts += s.retiredInsts;
        skipped += s.eventSkippedCycles;
        l1dMisses += s.l1dMisses;
        taskMispredicts += s.taskMispredictions;
        tasksSquashed += s.tasksSquashedCtrl + s.tasksSquashedMem;
        arbStalls += s.arbOverflowStalls;
    }

    bool operator==(const ArchCounts &) const = default;
};

bool
sameCounts(const pipeline::CacheStats &a, const pipeline::CacheStats &b)
{
    for (size_t i = 0; i < pipeline::NUM_STAGES; ++i)
        if (a.stage[i].hits != b.stage[i].hits ||
            a.stage[i].computed != b.stage[i].computed ||
            a.stage[i].diskHits != b.stage[i].diskHits)
            return false;
    return true;
}

pipeline::CacheStats
diffStats(const pipeline::CacheStats &after,
          const pipeline::CacheStats &before)
{
    pipeline::CacheStats d;
    for (size_t i = 0; i < pipeline::NUM_STAGES; ++i) {
        d.stage[i].hits = after.stage[i].hits - before.stage[i].hits;
        d.stage[i].computed =
            after.stage[i].computed - before.stage[i].computed;
        d.stage[i].diskHits =
            after.stage[i].diskHits - before.stage[i].diskHits;
    }
    return d;
}

/** The ops one thread ran in a phase: the compute thread, or one
 *  serve client, each running its own passes over its own op list. */
struct Stream
{
    std::vector<double> latUs;
    std::vector<uint32_t> latPass;  ///< Pass of each latUs sample.
    std::vector<uint32_t> latOp;    ///< Op-list index of each sample.
    std::vector<double> passS;      ///< Wall time of each pass.

    uint64_t passes() const { return passS.size(); }
};

/** One timed phase (untraced measurement or traced run). */
struct Phase
{
    std::vector<Stream> streams;
    size_t opsPerPass = 0;  ///< Ops in one pass over the whole op list.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double wallS = 0;

    /** Exact counts: per pass on the compute workloads, where
     *  `countsStable` turns false if two passes disagree; whole-phase
     *  totals on the serve workloads. */
    ArchCounts arch;
    pipeline::CacheStats pipe;
    bool countsStable = true;
    std::vector<std::string> problems;
    /** Trace-stage instructions computed per pass (cold_cell). */
    uint64_t traceInsts = 0;

    /** Passes over the whole op list, as a fraction on serve_*. */
    double passes() const
    {
        return opsPerPass ? double(attempted) / double(opsPerPass) : 0.0;
    }
};

/** Records one compute pass's exact counts in @p ph. */
void
notePass(Phase &ph, const ArchCounts &a, const pipeline::CacheStats &p)
{
    if (ph.streams[0].passes() == 1) {
        ph.arch = a;
        ph.pipe = p;
    } else if (!(ph.arch == a) || !sameCounts(ph.pipe, p)) {
        ph.countsStable = false;
    }
}

/**
 * Nearest-rank percentile of @p v, or nothing when fewer than 10
 * samples lie past it (a p99 over a few hundred ops is two samples).
 */
std::optional<double>
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    if (v.size() - rank < 10)
        return std::nullopt;
    return v[rank - 1];
}

/** Pass scheduling: at least @p min_passes, then more while another
 *  pass of the average length still fits in @p seconds. */
bool
anotherPass(uint64_t passes, uint64_t min_passes, double seconds,
            double elapsed)
{
    if (passes < min_passes)
        return true;
    double per = elapsed / double(std::max<uint64_t>(passes, 1));
    return elapsed + per <= seconds;
}

/** Ops a window needs for p50/p90 and for p99 (10 samples past). */
constexpr size_t WINDOW_OPS = 100;
constexpr size_t WINDOW_OPS_P99 = 1000;

/** Per-window figures of a phase; see windowed(). */
struct Windows
{
    std::vector<double> p50, p90, p99, opsPerS;
    std::vector<size_t> ops;  ///< Samples in each window.
};

/**
 * Splits @p st into consecutive windows of whole passes holding at
 * least @p min_ops ops each (the last window takes the remainder) and
 * computes each window's percentiles and throughput. The reported
 * figures are the best tenth over windows (bestDecile()), so a host
 * spell that slows even most windows does not move them.
 */
Windows
windowed(const Stream &st, size_t min_ops)
{
    const size_t passes = st.passes();
    std::vector<std::vector<double>> byPass(passes);
    for (size_t i = 0; i < st.latUs.size(); ++i)
        byPass[st.latPass[i]].push_back(st.latUs[i]);
    std::vector<size_t> rest(passes + 1, 0);  // ops in passes >= p
    for (size_t p = passes; p-- > 0;)
        rest[p] = rest[p + 1] + byPass[p].size();
    Windows w;
    std::vector<double> lat;
    double wall = 0;
    auto close = [&] {
        if (auto p = percentile(lat, 0.50))
            w.p50.push_back(*p);
        if (auto p = percentile(lat, 0.90))
            w.p90.push_back(*p);
        if (auto p = percentile(lat, 0.99))
            w.p99.push_back(*p);
        w.opsPerS.push_back(double(lat.size()) / wall);
        w.ops.push_back(lat.size());
    };
    for (size_t p = 0; p < passes; ++p) {
        lat.insert(lat.end(), byPass[p].begin(), byPass[p].end());
        wall += st.passS[p];
        if (lat.size() >= min_ops && rest[p + 1] >= min_ops) {
            close();
            lat.clear();
            wall = 0;
        }
    }
    if (lat.size() >= min_ops)
        close();
    return w;
}

/** Median of @p v, or nothing when @p v is empty. */
std::optional<double>
median(std::vector<double> v)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The value a tenth of the way into @p v from its best end: nearest
 * rank 10% for a latency, 90% for a throughput. Interference from the
 * rest of the host only ever makes a window worse, and on a shared
 * host it can last longer than half a run; the windows it missed are
 * the steady figure. Nothing when @p v is empty.
 */
std::optional<double>
bestDecile(std::vector<double> v, bool higher_is_better)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(0.1 * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return higher_is_better ? v[v.size() - rank] : v[rank - 1];
}

/** The end-to-end timing figures of one phase. */
struct Figures
{
    double opsPerS = 0;
    std::optional<double> p50, p90, p99;
    size_t samples = 0;  ///< Latencies the percentiles are taken over.
};

/**
 * Each op's fastest run over the passes of the one stream of a compute
 * workload. Interference from the rest of the host only ever slows an
 * op, and on a shared host it comes and goes within seconds, so the
 * fastest of several runs spread over the whole run is the steady
 * figure; a median is not.
 */
std::vector<double>
bestPerOp(const Stream &st)
{
    std::map<uint32_t, double> best;
    for (size_t i = 0; i < st.latUs.size(); ++i) {
        auto [it, fresh] = best.emplace(st.latOp[i], st.latUs[i]);
        if (!fresh)
            it->second = std::min(it->second, st.latUs[i]);
    }
    std::vector<double> v;
    for (const auto &kv : best)
        v.push_back(kv.second);
    return v;
}

/**
 * Compute workloads (one stream): the percentiles of the ops' fastest
 * runs (bestPerOp), and ops_per_s of one pass made of them. Serve
 * workloads (one stream per client): every client's windows pooled,
 * percentiles the best decile over windows, ops_per_s the clients'
 * summed best-decile window throughput.
 */
Figures
figures(const Phase &ph)
{
    Figures f;
    if (ph.streams.size() == 1) {
        std::vector<double> best = bestPerOp(ph.streams[0]);
        double sumUs = 0;
        for (double b : best)
            sumUs += b;
        if (sumUs > 0)
            f.opsPerS = double(best.size()) / (sumUs * 1e-6);
        f.p50 = percentile(best, 0.50);
        f.p90 = percentile(best, 0.90);
        f.p99 = percentile(best, 0.99);
        f.samples = best.size();
        return f;
    }
    std::vector<double> p50, p90, p99;
    for (const Stream &st : ph.streams) {
        Windows w = windowed(st, WINDOW_OPS);
        p50.insert(p50.end(), w.p50.begin(), w.p50.end());
        p90.insert(p90.end(), w.p90.begin(), w.p90.end());
        Windows w99 = windowed(st, WINDOW_OPS_P99);
        p99.insert(p99.end(), w99.p99.begin(), w99.p99.end());
        f.opsPerS += bestDecile(w.opsPerS, true).value_or(0);
        f.samples += st.latUs.size();
    }
    f.p50 = bestDecile(p50, false);
    f.p90 = bestDecile(p90, false);
    f.p99 = bestDecile(p99, false);
    return f;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string reference = "perfbench/reference.json";
    std::string workDir = ".bench_build/perfbench/work";
    std::string spansOut;
    /// Self-test: cap the op list (0 = whole list) and the passes.
    size_t maxOps = 0;
    uint64_t minPassesOverride = 0;
};

/** Everything one run of a workload reports. */
struct Result
{
    std::vector<double> setupS;
    Phase untraced;
    Phase traced;  ///< Only with --trace 1.
    std::vector<const SpanLog *> logs;
    std::map<std::string, double> layer;  ///< Workload-specific extras.
    /** fig5_sim's exact set-up counts (its ops never enter the
     *  pipeline). */
    std::optional<pipeline::CacheStats> setupPipe;
    /** Instructions of the traces produced under trace spans. */
    double traceInsts = 0;
};

// ------------------------------------------------------------------
// fig5_sim: arch::simulate over the shared frontend.

struct Frontend
{
    std::shared_ptr<const pipeline::TransformedProgram> transformed;
    std::shared_ptr<const pipeline::ProfileArtifact> profile;
    std::shared_ptr<const pipeline::PartitionArtifact> partition;
    std::shared_ptr<const pipeline::TaskTrace> trace;
};

struct Fig5Setup
{
    std::unique_ptr<pipeline::SessionPool> pool;
    std::vector<Frontend> frontends;
    std::vector<size_t> cellFrontend;  ///< Cell index -> frontend.
};

std::string
frontendKey(const report::RunSpec &s)
{
    return s.workload + "/" + report::strategyId(s.opts.sel.strategy) +
           (s.opts.sel.taskSizeHeuristic ? "/size" : "");
}

/** Runs the four frontend stages of @p spec on @p session, one span
 *  per stage call. */
Frontend
runFrontend(SpanLog &log, pipeline::Session &session,
            const pipeline::StageOptions &o)
{
    Frontend fe;
    {
        Scope s(log, K_TRANSFORM);
        fe.transformed = session.transform(o);
    }
    {
        Scope s(log, K_PROFILE);
        fe.profile = session.profile(o);
    }
    {
        Scope s(log, K_SELECT);
        fe.partition = session.select(o);
    }
    {
        Scope s(log, K_TRACE);
        fe.trace = session.trace(o);
    }
    return fe;
}

Fig5Setup
fig5Setup(SpanLog &log, const std::vector<report::RunSpec> &cells)
{
    Scope setup(log, K_SETUP);
    Fig5Setup st;
    st.pool = std::make_unique<pipeline::SessionPool>();
    std::map<std::string, size_t> seen;
    for (const auto &spec : cells) {
        std::string key = frontendKey(spec);
        auto it = seen.find(key);
        if (it == seen.end()) {
            std::shared_ptr<pipeline::Session> session;
            {
                Scope s(log, K_POOL_SESSION);
                session = st.pool->session(
                    report::sessionKey(spec), [&] {
                        Scope b(log, K_BUILD);
                        return workloads::buildWorkload(spec.workload,
                                                        spec.scale);
                    });
            }
            st.frontends.push_back(runFrontend(log, *session, spec.opts));
            it = seen.emplace(key, st.frontends.size() - 1).first;
        }
        st.cellFrontend.push_back(it->second);
    }
    return st;
}

/** True when the msc.sweep record of @p spec built from @p r has the
 *  reference digest in @p want. */
bool
recordMatches(SpanLog &log, const report::RunSpec &spec,
              const pipeline::StageResults &r,
              const std::map<std::string, std::string> &want)
{
    std::string bytes;
    {
        Scope s(log, K_RECORD);
        bytes = report::runToJson(report::recordFromResults(spec, r)).dump();
    }
    auto it = want.find(spec.id);
    return it != want.end() && digest(bytes) == it->second;
}

/** The CPUs the calling thread may run on, in ascending order (empty
 *  when the affinity mask cannot be read). */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                v.push_back(c);
    return v;
}

/** Restricts the calling thread to @p cpus; best effort, a refused
 *  call leaves the thread where it was. */
void
pinThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    if (!cpus.empty())
        sched_setaffinity(0, sizeof set, &set);
}

/**
 * Runs whole passes over @p cells in seeded order on this thread:
 * @p op(i) runs cell i inside its op span and returns whether its
 * output matched the reference; @p pass_end(ph) runs after each pass.
 *
 * Pass k runs pinned to the (k mod n)-th of the n CPUs the thread may
 * use. On a shared host the vCPUs run at different speeds that change
 * over seconds to minutes (a neighbour on the same physical core), so
 * a thread the scheduler leaves on one slow vCPU for a whole run reads
 * up to 1.5x slow. Rotating puts every op on every vCPU in turn, and
 * bestPerOp() then takes each op's run on whichever was fastest.
 */
template <typename Op, typename PassEnd>
void
runPasses(Phase &ph, SpanLog &log, const Options &opt,
          const std::vector<report::RunSpec> &cells, double seconds,
          uint64_t min_passes, Op &&op, PassEnd &&pass_end)
{
    ph.streams.assign(1, Stream{});
    ph.opsPerPass = cells.size();
    Stream &st = ph.streams[0];
    const std::vector<int> cpus = allowedCpus();
    uint64_t t0 = nowNs();
    uint32_t opId = 0;
    do {
        const uint32_t pass = uint32_t(st.passes());
        if (!cpus.empty())
            pinThread({cpus[pass % cpus.size()]});
        const uint64_t p0 = nowNs();
        for (size_t i : passOrder(cells.size(), opt.seed, pass)) {
            log.op = opId++;
            uint64_t a = nowNs();
            bool ok;
            {
                Scope s(log, K_OP);
                ok = op(i);
            }
            st.latUs.push_back(double(nowNs() - a) / 1e3);
            st.latPass.push_back(pass);
            st.latOp.push_back(uint32_t(i));
            ++ph.attempted;
            if (!ok) {
                ++ph.failed;
                ph.problems.push_back("digest mismatch: " + cells[i].id);
            }
        }
        log.op = NO_OP;
        st.passS.push_back(secondsSince(p0));
        pass_end(ph);
    } while (anotherPass(st.passes(), min_passes, seconds, secondsSince(t0)));
    ph.wallS = secondsSince(t0);
    pinThread(cpus);
}

void
runFig5Phase(Phase &ph, SpanLog &log, const Options &opt,
             const Fig5Setup &st, const std::vector<report::RunSpec> &cells,
             const Reference &ref, double seconds, uint64_t min_passes)
{
    ArchCounts counts;
    auto op = [&](size_t i) {
        const report::RunSpec &spec = cells[i];
        const Frontend &fe = st.frontends[st.cellFrontend[i]];
        auto sim = std::make_shared<pipeline::SimArtifact>();
        sim->trace = fe.trace;
        {
            Scope s(log, K_ARCH_SIMULATE);
            sim->stats = arch::simulate(fe.partition->partition,
                                        fe.trace->tasks, spec.opts.config);
        }
        counts.add(sim->stats);
        return recordMatches(
            log, spec,
            {fe.transformed, fe.profile, fe.partition, fe.trace, sim},
            ref.fig5Sim);
    };
    runPasses(ph, log, opt, cells, seconds, min_passes, op,
              [&](Phase &p) {
                  notePass(p, counts, {});
                  counts = {};
              });
}

// ------------------------------------------------------------------
// cold_cell: everything from the program build on, in a fresh Session.

void
runColdPhase(Phase &ph, SpanLog &log, const Options &opt,
             const std::vector<report::RunSpec> &cells,
             const Reference &ref, double seconds, uint64_t min_passes)
{
    ArchCounts counts;
    pipeline::CacheStats pipe;
    uint64_t traceInsts = 0;
    auto op = [&](size_t i) {
        const report::RunSpec &spec = cells[i];
        std::shared_ptr<const ir::Program> prog;
        {
            Scope s(log, K_BUILD);
            prog = std::make_shared<const ir::Program>(
                workloads::buildWorkload(spec.workload, spec.scale));
        }
        pipeline::Session session(prog);
        Frontend fe = runFrontend(log, session, spec.opts);
        std::shared_ptr<const pipeline::SimArtifact> sim;
        {
            Scope s(log, K_SIMULATE);
            sim = session.simulate(spec.opts);
        }
        counts.add(sim->stats);
        pipe.add(session.cacheStats());
        traceInsts += fe.trace->traceInsts;
        return recordMatches(
            log, spec,
            {fe.transformed, fe.profile, fe.partition, fe.trace, sim},
            ref.coldCell);
    };
    runPasses(ph, log, opt, cells, seconds, min_passes, op,
              [&](Phase &p) {
                  p.traceInsts = traceInsts;
                  notePass(p, counts, pipe);
                  counts = {};
                  pipe = {};
                  traceInsts = 0;
              });
}

// ------------------------------------------------------------------
// serve_run / serve_sweep: in-process daemons on Unix sockets.

/** Polls until @p ep accepts a connection. */
void
awaitListening(const client::Endpoint &ep)
{
    for (int i = 0;; ++i) {
        try {
            ::close(client::connectEndpoint(ep));
            return;
        } catch (const std::exception &) {
            if (i >= 500)
                throw;
            ::usleep(2'000);
        }
    }
}

class InProcServer
{
  public:
    InProcServer(std::string sock, unsigned jobs) : _sock(std::move(sock))
    {
        serve::ServerConfig cfg;
        cfg.dispatch.jobs = jobs;
        _server = std::make_unique<serve::Server>(std::move(cfg));
        _th = std::thread([this] { _server->serveUnix(_sock); });
        try {
            awaitListening(endpoint());
        } catch (...) {
            _server->requestStop();
            _th.join();
            throw;
        }
    }

    ~InProcServer()
    {
        _server->requestStop();
        _th.join();
    }

    InProcServer(const InProcServer &) = delete;
    InProcServer &operator=(const InProcServer &) = delete;

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + _sock);
    }

    pipeline::CacheStats cache()
    {
        return _server->dispatcher().pool().stats();
    }

  private:
    std::string _sock;
    std::unique_ptr<serve::Server> _server;
    std::thread _th;
};

class InProcRouter
{
  public:
    InProcRouter(std::string sock, std::vector<client::Endpoint> shards)
        : _sock(std::move(sock))
    {
        serve::RouterConfig cfg;
        cfg.shards = std::move(shards);
        _router = std::make_unique<serve::Router>(std::move(cfg));
        _th = std::thread([this] { _router->serveUnix(_sock); });
        try {
            awaitListening(endpoint());
        } catch (...) {
            _router->requestStop();
            _th.join();
            throw;
        }
    }

    ~InProcRouter()
    {
        _router->requestStop();
        _th.join();
    }

    InProcRouter(const InProcRouter &) = delete;
    InProcRouter &operator=(const InProcRouter &) = delete;

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + _sock);
    }

  private:
    std::string _sock;
    std::unique_ptr<serve::Router> _router;
    std::thread _th;
};

/** The serving topology of one serve_* workload. */
struct Topology
{
    std::vector<std::unique_ptr<InProcServer>> servers;
    std::unique_ptr<InProcRouter> router;  ///< serve_sweep only.

    /** One persistent `stats` connection per server. A daemon answers
     *  stats inline on the connection's reader thread, so each earlier
     *  reply on it is already counted in mscd.frames.out when the next
     *  snapshot is taken; statsCalls[i] snapshots so far. */
    std::vector<std::unique_ptr<client::ClientConn>> statsConns;
    std::vector<uint64_t> statsCalls;

    client::Endpoint front() const
    {
        return router ? router->endpoint() : servers[0]->endpoint();
    }

    pipeline::CacheStats cache() const
    {
        pipeline::CacheStats s;
        for (const auto &srv : servers)
            s.add(srv->cache());
        return s;
    }
};

/** A client connection spoken frame by frame, so that encode, the
 *  wait for each frame and decode are separate calls. */
class Wire
{
  public:
    explicit Wire(const client::Endpoint &ep)
        : _fd(client::connectEndpoint(ep)), _t(_fd, _fd)
    {}

    ~Wire() { ::close(_fd); }

    Wire(const Wire &) = delete;
    Wire &operator=(const Wire &) = delete;

    serve::Transport &transport() { return _t; }

  private:
    int _fd;
    serve::FdTransport _t;
};

struct ServeOp
{
    bool ok = false;
    std::string problem;
    std::vector<uint64_t> shards;  ///< Router summary provenance.
};

/**
 * One request on @p wire: encode, send, read every frame up to the
 * terminal one, decode each, reassemble the msc.sweep document and
 * compare its digest with @p want.
 */
ServeOp
serveOnce(SpanLog &log, Wire &wire, bool routed,
          const client::RequestBuilder &req, const std::string &want)
{
    ServeOp out;
    std::string payload;
    {
        Scope s(log, K_ENCODE);
        payload = req.payload();
    }
    {
        Scope s(log, K_SEND);
        serve::writeFrame(wire.transport(), payload);
    }
    std::vector<Json> runs;
    client::ResponseFrame f;
    for (bool first = true;; first = false) {
        serve::FrameResult fr;
        {
            Scope s(log, routed ? (first ? K_ROUTER_FIRST : K_ROUTER_NEXT)
                                : (first ? K_SERVE_FIRST : K_SERVE_NEXT));
            fr = serve::readFrame(wire.transport());
        }
        if (fr.status != serve::FrameStatus::Ok)
            throw std::runtime_error("connection lost mid-request");
        {
            Scope s(log, K_DECODE);
            f = client::parseResponseFrame(fr.payload);
        }
        if (f.id != req.id())
            throw std::runtime_error("frame for unexpected request " + f.id);
        if (f.type == client::ResponseFrame::Type::Cell) {
            if (f.index != runs.size()) {
                out.problem = "cell out of order";
                return out;
            }
            runs.push_back(f.run);
        }
        if (f.terminal())
            break;
    }
    if (f.type != client::ResponseFrame::Type::Summary) {
        out.problem = "error frame: " + f.raw.dump();
        return out;
    }
    if (f.status != "ok") {
        out.problem = "summary status " + f.status;
        return out;
    }
    out.shards = f.shards;
    std::string bytes;
    {
        Scope s(log, K_RECORD);
        bytes = report::sweepDocFromRuns(std::move(runs)).dump();
    }
    if (digest(bytes) != want) {
        out.problem = "digest mismatch";
        return out;
    }
    out.ok = true;
    return out;
}

/** The `stats` document served on @p c. */
Json
fetchMetrics(client::ClientConn &c)
{
    client::ResponseFrame f =
        c.call(client::RequestBuilder::stats("perfbench-stats"));
    if (f.type != client::ResponseFrame::Type::Result)
        throw std::runtime_error("stats request failed");
    return f.raw.get("metrics");
}

uint64_t
counterOf(const Json &m, const std::string &name)
{
    const Json *c = m.get("counters").find(name);
    return c ? c->asUInt() : 0;
}

/** (count, sum) of a histogram, zeros when absent. */
std::pair<uint64_t, uint64_t>
histOf(const Json &m, const std::string &name)
{
    const Json *h = m.get("histograms").find(name);
    if (!h)
        return {0, 0};
    return {h->get("count").asUInt(), h->get("sum").asUInt()};
}

/** router.cells.forwarded of the topology's router. */
uint64_t
routerForwarded(const Topology &topo)
{
    client::ClientConn c(topo.router->endpoint());
    return counterOf(fetchMetrics(c), "router.cells.forwarded");
}

/** Starts the topology and fills its cache with every cell of the op
 *  list (cold), checking each response like a timed op. */
std::unique_ptr<Topology>
serveSetup(const Options &opt, bool routed, size_t setup_no,
           const std::vector<std::string> &ops, const Reference &ref,
           SpanLog &log)
{
    auto topo = std::make_unique<Topology>();
    std::string tag = opt.workDir + "/s" + std::to_string(setup_no);
    if (routed) {
        std::vector<client::Endpoint> eps;
        for (int i = 0; i < 2; ++i) {
            topo->servers.push_back(std::make_unique<InProcServer>(
                tag + "-shard" + std::to_string(i) + ".sock", 1));
            eps.push_back(topo->servers.back()->endpoint());
        }
        topo->router = std::make_unique<InProcRouter>(
            tag + "-router.sock", std::move(eps));
    } else {
        topo->servers.push_back(
            std::make_unique<InProcServer>(tag + "-mscd.sock", 2));
    }
    // Digests are left to the timed ops, where a mismatch is a failed
    // op; anything else going wrong here ends the run.
    Wire wire(topo->front());
    for (size_t i = 0; i < ops.size(); ++i) {
        const std::string &w = ops[i];
        std::string id = "fill" + std::to_string(i);
        ServeOp r = serveOnce(
            log, wire, routed,
            routed ? rowRequest(id, w) : runRequest(id, w), "");
        if (!r.ok && r.problem != "digest mismatch")
            throw std::runtime_error("cache fill failed on " + w + ": " +
                                     r.problem);
    }
    return topo;
}

/**
 * Requests one connection carries before the clients reconnect (and,
 * on serve_sweep, the router is replaced in front of the same warm
 * shards). serve::Server and serve::Router park every finished
 * per-request thread of a connection until that connection closes, so
 * a connection that carries ~30k requests exhausts the process's
 * memory-map limit; rounds keep each connection well below that,
 * and keep the parked threads' share of peak RSS small and steady.
 */
constexpr size_t ROUND_CELLS = 1000;

/** Clients of the serve workloads' closed loop. */
constexpr unsigned CLIENTS = 2;

/**
 * The closed loop: two client threads, one connection each, one
 * outstanding request each. Client c owns the ops whose index is c
 * modulo 2 and runs its own passes over them in its own seeded order,
 * so no two identical cells are ever in flight together (dedup counts
 * stay exact) and neither client waits for the other. After every
 * round a client hangs up and reconnects; on serve_sweep the two
 * clients then meet, so that a new router can replace the old one in
 * front of the same warm shards. Time between passes (reconnects, the
 * meeting) is in no pass. @p min_passes is per client. Returns the
 * cells the routers forwarded.
 */
uint64_t
runServePhase(Phase &ph, std::vector<SpanLog> &logs, const Options &opt,
              Topology &topo, bool routed,
              const std::vector<std::string> &ops, const Reference &ref,
              double seconds, uint64_t min_passes)
{
    const auto &want = routed ? ref.serveSweep : ref.serveRun;
    const size_t cellsPerPass = ops.size() * (routed ? 6 : 1);
    // A client pass covers half the op list, so a round of this many
    // passes by both clients carries about ROUND_CELLS cells.
    const uint64_t roundPasses =
        std::max<size_t>(1, ROUND_CELLS / cellsPerPass);
    std::vector<std::vector<size_t>> owned(CLIENTS);
    for (size_t i = 0; i < ops.size(); ++i)
        owned[i % CLIENTS].push_back(i);
    struct ClientOut
    {
        uint64_t attempted = 0, failed = 0;
        std::vector<std::string> problems;
        std::string fatal;
    };
    std::vector<ClientOut> outs(CLIENTS);
    ph.streams.assign(CLIENTS, Stream{});
    ph.opsPerPass = ops.size();
    std::atomic<bool> stop{false};
    std::atomic<unsigned> active{CLIENTS};
    std::string turnoverError;
    uint64_t forwarded = 0, routers = 0;
    auto newRouter = [&] {
        if (topo.router)
            forwarded += routerForwarded(topo);
        topo.router.reset();
        std::vector<client::Endpoint> eps;
        for (const auto &srv : topo.servers)
            eps.push_back(srv->endpoint());
        topo.router = std::make_unique<InProcRouter>(
            opt.workDir + "/router" + std::to_string(routers++) + ".sock",
            std::move(eps));
    };
    if (routed) {
        newRouter();  // replaces the set-up router, whose cells were fills
        forwarded = 0;
    }
    // Runs once both clients have hung up (or left for good).
    std::barrier meet(CLIENTS, [&]() noexcept {
        if (!active)
            return;
        try {
            newRouter();
        } catch (const std::exception &e) {
            turnoverError = e.what();
            stop = true;
        }
    });
    const pipeline::CacheStats before = topo.cache();
    const uint64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < CLIENTS; ++c)
        threads.emplace_back([&, c] {
            ClientOut &out = outs[c];
            Stream &st = ph.streams[c];
            SpanLog &log = logs[c];
            const std::vector<size_t> &mine = owned[c];
            std::unique_ptr<Wire> wire;
            uint64_t n = 0;
            for (uint32_t pass = 0; !stop; ++pass) {
                try {
                    if (!wire)
                        wire = std::make_unique<Wire>(topo.front());
                } catch (const std::exception &e) {
                    out.fatal = e.what();
                    stop = true;
                    break;
                }
                const uint64_t p0 = nowNs();
                for (size_t k : passOrder(mine.size(),
                                          opt.seed * CLIENTS + c, pass)) {
                    const size_t i = mine[k];
                    const std::string &w = ops[i];
                    std::string id =
                        "c" + std::to_string(c) + "-" + std::to_string(n);
                    log.op = uint32_t(n * CLIENTS + c);
                    ++n;
                    uint64_t a = nowNs();
                    ServeOp r;
                    try {
                        Scope op(log, K_OP);
                        r = serveOnce(
                            log, *wire, routed,
                            routed ? rowRequest(id, w) : runRequest(id, w),
                            want.count(w) ? want.at(w) : "");
                    } catch (const std::exception &e) {
                        out.fatal = e.what();
                        r.problem = e.what();
                    }
                    st.latUs.push_back(double(nowNs() - a) / 1e3);
                    st.latPass.push_back(pass);
                    st.latOp.push_back(uint32_t(i));
                    ++out.attempted;
                    if (!r.ok) {
                        ++out.failed;
                        out.problems.push_back(w + ": " + r.problem);
                    }
                    if (!out.fatal.empty())
                        break;
                }
                log.op = NO_OP;
                st.passS.push_back(secondsSince(p0));
                if (!out.fatal.empty()) {
                    stop = true;
                    break;
                }
                if (!anotherPass(st.passes(), min_passes, seconds,
                                 secondsSince(t0)))
                    break;
                if (st.passes() % roundPasses == 0) {
                    // A router being replaced waits for its
                    // connections to close.
                    wire.reset();
                    if (routed)
                        meet.arrive_and_wait();
                }
            }
            wire.reset();
            --active;
            if (routed)
                meet.arrive_and_drop();
        });
    for (auto &t : threads)
        t.join();
    ph.wallS = secondsSince(t0);
    ph.pipe = diffStats(topo.cache(), before);
    if (routed)
        forwarded += routerForwarded(topo);
    for (auto &o : outs) {
        ph.attempted += o.attempted;
        ph.failed += o.failed;
        ph.problems.insert(ph.problems.end(), o.problems.begin(),
                           o.problems.end());
        if (!o.fatal.empty())
            ph.problems.push_back("client stopped: " + o.fatal);
    }
    if (!turnoverError.empty())
        ph.problems.push_back("router turnover: " + turnoverError);
    return forwarded;
}

/** Totals of the counters and histograms the serve layer reports. */
struct ServeCounters
{
    uint64_t dedupHits = 0, framesOut = 0;
    std::pair<uint64_t, uint64_t> dispatch{}, firstFrame{}, done{};
};

/** The `stats` document of server @p i. */
Json
serverMetrics(Topology &topo, size_t i)
{
    if (topo.statsConns.empty()) {
        for (const auto &srv : topo.servers)
            topo.statsConns.push_back(
                std::make_unique<client::ClientConn>(srv->endpoint()));
        topo.statsCalls.assign(topo.servers.size(), 0);
    }
    ++topo.statsCalls[i];
    return fetchMetrics(*topo.statsConns[i]);
}

ServeCounters
readServeCounters(Topology &topo)
{
    ServeCounters c;
    for (size_t i = 0; i < topo.servers.size(); ++i) {
        // A request thread updates its counters after its last frame
        // is on the wire and leaves the in-flight gauge last, so wait
        // for the gauge to drain before reading.
        Json m = serverMetrics(topo, i);
        for (int k = 0; k < 1000; ++k) {
            const Json *g = m.get("gauges").find("mscd.requests.inflight");
            if (!g || g->asDouble() == 0)
                break;
            ::usleep(1'000);
            m = serverMetrics(topo, i);
        }
        c.dedupHits += counterOf(m, "mscd.dispatch.dedup_hits");
        // Less the replies to the earlier stats calls.
        c.framesOut +=
            counterOf(m, "mscd.frames.out") - (topo.statsCalls[i] - 1);
        auto add = [&](std::pair<uint64_t, uint64_t> &dst,
                       const char *name) {
            auto h = histOf(m, name);
            dst.first += h.first;
            dst.second += h.second;
        };
        add(c.dispatch, "mscd.latency.run.dispatch_us");
        add(c.firstFrame, "mscd.latency.run.first_frame_us");
        add(c.done, "mscd.latency.run.done_us");
    }
    return c;
}

/**
 * router.hop_us: each distinct cell is sent as a single `run` to the
 * router and, on its own connection, straight to the shard the router
 * chose for it; the hop is the median of the paired differences.
 */
double
measureHop(Topology &topo, const std::vector<std::string> &ops)
{
    client::ClientConn viaRouter(topo.router->endpoint());
    std::vector<std::unique_ptr<client::ClientConn>> direct;
    for (const auto &srv : topo.servers)
        direct.push_back(
            std::make_unique<client::ClientConn>(srv->endpoint()));
    auto timed = [](client::ClientConn &c,
                    const client::RequestBuilder &b,
                    client::ResponseFrame &f) {
        uint64_t a = nowNs();
        f = c.call(b);
        return double(nowNs() - a) / 1e3;
    };
    std::vector<double> diffs;
    unsigned n = 0;
    for (int round = 0; round < 3; ++round)
        for (const auto &w : ops)
            for (const char *s : {"bb", "cf", "dd"})
                for (unsigned pus : {4u, 8u}) {
                    auto req = [&](const char *p) {
                        client::RequestBuilder b =
                            client::RequestBuilder::run(
                                p + std::to_string(n++), w);
                        b.strategy(s).pusCount(pus).smallScale(true).insts(
                            SMALL_INSTS);
                        return b;
                    };
                    client::ResponseFrame f;
                    double routed = timed(viaRouter, req("hop-r"), f);
                    if (f.type != client::ResponseFrame::Type::Summary)
                        throw std::runtime_error("hop probe failed");
                    size_t shard = 0;
                    while (shard < f.shards.size() && !f.shards[shard])
                        ++shard;
                    if (shard >= direct.size())
                        throw std::runtime_error("hop probe: no shard");
                    double d = timed(*direct[shard], req("hop-d"), f);
                    diffs.push_back(routed - d);
                }
    return median(diffs).value_or(0);
}

// ------------------------------------------------------------------
// Workload runners.

std::vector<report::RunSpec>
capped(std::vector<report::RunSpec> v, size_t max_ops)
{
    if (max_ops && v.size() > max_ops)
        v.resize(max_ops);
    return v;
}

/** Set-ups an untraced run times; setup_s is their median. */
constexpr unsigned SETUP_REPS = 3;

/**
 * Runs one workload: its set-ups, the untraced phase and, with
 * tracing, a traced phase over the same op list. An untraced run sets
 * up SETUP_REPS times, each set-up freed before the next, and measures
 * on the last; a traced run sets up once, traced.
 */
Result
runWorkload(const Options &opt, const Reference &ref,
            std::vector<SpanLog> &logs)
{
    Result res;
    const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    logs.assign(CLIENTS, SpanLog{});
    SpanLog &log = logs[0];
    SpanLog quiet;
    auto minPasses = [&](size_t ops_per_pass, size_t samples) {
        if (opt.minPassesOverride)
            return opt.minPassesOverride;
        return uint64_t((samples + ops_per_pass - 1) / ops_per_pass);
    };
    const unsigned reps = opt.trace ? 1 : SETUP_REPS;
    // Frees the previous set-up (untimed), then times the next one.
    auto timed = [&](auto &&release, auto &&setup) {
        for (unsigned r = 0; r < reps; ++r) {
            release();
            uint64_t a = nowNs();
            setup(r);
            res.setupS.push_back(secondsSince(a));
        }
    };

    if (opt.workload == "fig5_sim") {
        auto cells = capped(fig5Specs(), opt.maxOps);
        Fig5Setup st;
        log.on = opt.trace;
        // Each set-up on another CPU, for the reason runPasses() gives.
        const std::vector<int> cpus = allowedCpus();
        timed([&] { st = Fig5Setup{}; }, [&](unsigned r) {
            if (!cpus.empty())
                pinThread({cpus[r % cpus.size()]});
            st = fig5Setup(log, cells);
        });
        pinThread(cpus);
        log.on = false;
        res.setupPipe = st.pool->stats();
        for (const Frontend &fe : st.frontends)
            res.traceInsts += double(fe.trace->traceInsts);
        // p90 needs 100 samples.
        uint64_t mp = minPasses(cells.size(), 100);
        runFig5Phase(res.untraced, log, opt, st, cells, ref, phaseSeconds,
                     mp);
        if (opt.trace) {
            log.on = true;
            runFig5Phase(res.traced, log, opt, st, cells, ref,
                         phaseSeconds, mp);
            log.on = false;
        }
    } else if (opt.workload == "cold_cell") {
        auto cells = capped(coldSpecs(), opt.maxOps);
        timed([] {}, [&](unsigned) {
            for (const auto &w : figureWorkloads())
                workloads::buildWorkload(w, workloads::Scale::Full);
            Phase warm;
            runColdPhase(warm, quiet, opt, {cells[0]}, ref, 0, 1);
            if (warm.failed)
                res.untraced.problems.push_back("warm-up op failed");
        });
        uint64_t mp = minPasses(cells.size(), 100);
        runColdPhase(res.untraced, log, opt, cells, ref, phaseSeconds, mp);
        if (opt.trace) {
            log.on = true;
            runColdPhase(res.traced, log, opt, cells, ref, phaseSeconds,
                         mp);
            log.on = false;
            res.traceInsts =
                double(res.traced.traceInsts) * res.traced.passes();
        }
    } else if (opt.workload == "serve_run" ||
               opt.workload == "serve_sweep") {
        const bool routed = opt.workload == "serve_sweep";
        std::vector<std::string> ops = figureWorkloads();
        if (opt.maxOps && ops.size() > opt.maxOps)
            ops.resize(opt.maxOps);
        fs::create_directories(opt.workDir);
        std::unique_ptr<Topology> topo;
        timed([&] { topo.reset(); }, [&](unsigned r) {
            topo = serveSetup(opt, routed, r, ops, ref, quiet);
        });
        // p99 needs 1000 samples; a client pass is half the op list.
        uint64_t mp = minPasses((ops.size() + CLIENTS - 1) / CLIENTS, 1000);
        ServeCounters c0 = readServeCounters(*topo);
        uint64_t forwarded = runServePhase(res.untraced, logs, opt, *topo,
                                           routed, ops, ref, phaseSeconds,
                                           mp);
        ServeCounters c1 = readServeCounters(*topo);
        // Exact counts per pass over the op list.
        double passes = res.untraced.passes();
        res.layer["serve.dedup_hits"] =
            double(c1.dedupHits - c0.dedupHits) / passes;
        res.layer["serve.frames_out"] =
            double(c1.framesOut - c0.framesOut) / passes;
        res.layer["router.cells_forwarded"] = double(forwarded) / passes;
        if (opt.trace) {
            for (auto &l : logs)
                l.on = true;
            runServePhase(res.traced, logs, opt, *topo, routed, ops, ref,
                          phaseSeconds, mp);
            for (auto &l : logs)
                l.on = false;
            auto mean = [](std::pair<uint64_t, uint64_t> a,
                           std::pair<uint64_t, uint64_t> b) {
                uint64_t n = a.first - b.first;
                return n ? double(a.second - b.second) / double(n) : 0.0;
            };
            res.layer["serve.mscd_dispatch_us"] =
                mean(c1.dispatch, c0.dispatch);
            res.layer["serve.mscd_first_frame_us"] =
                mean(c1.firstFrame, c0.firstFrame);
            res.layer["serve.mscd_done_us"] = mean(c1.done, c0.done);
            if (routed)
                res.layer["router.hop_us"] = measureHop(*topo, ops);
        }
        topo.reset();
        std::error_code ec;
        fs::remove_all(opt.workDir, ec);
    } else {
        throw std::invalid_argument("unknown workload " + opt.workload);
    }
    for (const auto &l : logs)
        res.logs.push_back(&l);
    return res;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------
// Result document.

struct Metrics
{
    Json obj = Json::object();
    void put(const std::string &name, double v, const char *unit)
    {
        Json m = Json::object();
        m["value"] = v;
        m["unit"] = unit;
        obj[name] = std::move(m);
    }
};

/**
 * The counts that must not change unless the program's results do:
 * simulated counts per pass and pipeline cache counts (per set-up on
 * fig5_sim, whose ops never enter the pipeline; per pass elsewhere),
 * and on serve_* the frames, dedup hits and forwarded cells per pass.
 * A run of the whole op list that differs from the reference is not
 * correct. Counts a workload does not produce read 0.
 */
std::map<std::string, double>
exactCounts(const Result &r)
{
    std::map<std::string, double> m;
    const Phase &un = r.untraced;
    const ArchCounts &a = un.arch;
    m["arch.sim_cycles"] = double(a.cycles);
    m["arch.skipped_cycles"] = double(a.skipped);
    m["arch.retired_insts"] = double(a.insts);
    m["arch.l1d_misses"] = double(a.l1dMisses);
    m["arch.task_mispredicts"] = double(a.taskMispredicts);
    m["arch.tasks_squashed"] = double(a.tasksSquashed);
    m["arch.arb_overflow_stalls"] = double(a.arbStalls);
    // Serve phases hold whole-phase cache totals.
    const bool serve = un.streams.size() > 1;
    const double per = serve ? std::max(un.passes(), 1.0) : 1.0;
    const pipeline::CacheStats &pipe = r.setupPipe.value_or(un.pipe);
    for (size_t s = 0; s < pipeline::NUM_STAGES; ++s) {
        std::string base = std::string("pipeline.") +
                           pipeline::stageName(pipeline::StageKind(s));
        m[base + ".computed"] = double(pipe.stage[s].computed) / per;
        m[base + ".hits"] = double(pipe.stage[s].hits) / per;
    }
    for (const char *k : {"serve.dedup_hits", "serve.frames_out",
                          "router.cells_forwarded"}) {
        auto it = r.layer.find(k);
        m[k] = it == r.layer.end() ? 0.0 : it->second;
    }
    return m;
}

/** Names whose count in @p got differs from, or is missing in, @p want
 *  (and the other way round). */
std::vector<std::string>
countMismatches(const std::map<std::string, double> &got,
                const std::map<std::string, double> &want)
{
    std::vector<std::string> bad;
    for (const auto &[k, v] : got) {
        auto it = want.find(k);
        if (it == want.end() || it->second != v)
            bad.push_back(k);
    }
    for (const auto &[k, v] : want)
        if (!got.count(k))
            bad.push_back(k);
    return bad;
}

void
putEndToEnd(Metrics &m, const Result &r)
{
    Figures f = figures(r.untraced);
    m.put("setup_s", median(r.setupS).value_or(0), "s");
    m.put("ops_per_s", f.opsPerS, "1/s");
    m.put("op_p50_us", f.p50.value_or(0), "us");
    m.put("op_p90_us", f.p90.value_or(0), "us");
    m.put("peak_rss_mb", peakRssMb(), "MB");
}

void
putPerLayer(Metrics &m, const Result &r)
{
    const auto agg = aggregate(r.logs);
    const Phase &tr = r.traced;
    const Phase &un = r.untraced;
    const double passes = std::max(tr.passes(), 1.0);
    const double ops = double(std::max<uint64_t>(tr.attempted, 1));

    // Self time per op and calls per pass, by layer (op spans only;
    // set-up spans are in the span file and the named metrics below).
    std::array<double, size_t(Layer::Count)> self{}, calls{};
    for (size_t k = 0; k < NUM_KINDS; ++k) {
        size_t l = size_t(KINDS[k].layer);
        self[l] += agg[k].inOpSelfNs;
        calls[l] += double(agg[k].inOpCalls);
    }
    for (size_t l = 0; l < size_t(Layer::Count); ++l) {
        std::string base = std::string("layer.") + LAYER_NAMES[l];
        m.put(base + ".self_us", self[l] / 1e3 / ops, "us");
        m.put(base + ".calls", calls[l] / passes, "count");
    }

    auto meanUs = [&](SpanKind k) {
        return agg[k].calls ? agg[k].totalNs / 1e3 / double(agg[k].calls)
                            : 0.0;
    };
    m.put("workloads.build_us", meanUs(K_BUILD), "us");
    m.put("pipeline.transform_us", meanUs(K_TRANSFORM), "us");
    m.put("pipeline.profile_us", meanUs(K_PROFILE), "us");
    m.put("pipeline.select_us", meanUs(K_SELECT), "us");
    m.put("pipeline.trace_us", meanUs(K_TRACE), "us");

    const std::map<std::string, double> exact = exactCounts(r);
    for (size_t s = 0; s < pipeline::NUM_STAGES; ++s) {
        std::string base = std::string("pipeline.") +
                           pipeline::stageName(pipeline::StageKind(s));
        m.put(base + ".computed", exact.at(base + ".computed"), "count");
        m.put(base + ".hits", exact.at(base + ".hits"), "count");
    }

    // Trace-cut throughput: instructions of the traces the spanned
    // Session::trace calls produced, over their time.
    m.put("trace.insts_per_s",
          agg[K_TRACE].totalNs > 0
              ? r.traceInsts / (agg[K_TRACE].totalNs * 1e-9)
              : 0.0,
          "1/s");

    // The timing simulation: arch::simulate on fig5_sim; inside
    // Session::simulate (whose compute it is) on cold_cell.
    SpanKind simKind = agg[K_ARCH_SIMULATE].calls ? K_ARCH_SIMULATE
                                                  : K_SIMULATE;
    m.put("arch.simulate_us", meanUs(simKind), "us");
    const ArchCounts &a = tr.arch;
    m.put("arch.ns_per_sim_cycle",
          a.cycles ? agg[simKind].totalNs / (double(a.cycles) * passes)
                   : 0.0,
          "ns");
    m.put("arch.skip_frac",
          a.cycles ? double(a.skipped) / double(a.cycles) : 0.0, "ratio");
    for (const char *k :
         {"arch.sim_cycles", "arch.retired_insts", "arch.l1d_misses",
          "arch.task_mispredicts", "arch.tasks_squashed",
          "arch.arb_overflow_stalls"})
        m.put(k, exact.at(k), "count");

    m.put("report.record_us", meanUs(K_RECORD), "us");
    m.put("client.encode_us", meanUs(K_ENCODE), "us");
    m.put("client.decode_us", meanUs(K_DECODE), "us");

    bool routed = agg[K_ROUTER_FIRST].calls > 0;
    m.put("serve.first_frame_us",
          meanUs(routed ? K_ROUTER_FIRST : K_SERVE_FIRST), "us");
    m.put("serve.cell_gap_us", meanUs(routed ? K_ROUTER_NEXT : K_SERVE_NEXT),
          "us");
    auto layerVal = [&](const char *name) {
        auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second;
    };
    m.put("serve.mscd_dispatch_us", layerVal("serve.mscd_dispatch_us"), "us");
    m.put("serve.mscd_first_frame_us",
          layerVal("serve.mscd_first_frame_us"), "us");
    m.put("serve.mscd_done_us", layerVal("serve.mscd_done_us"), "us");
    m.put("serve.dedup_hits", exact.at("serve.dedup_hits"), "count");
    m.put("serve.frames_out", exact.at("serve.frames_out"), "count");
    m.put("router.hop_us", layerVal("router.hop_us"), "us");
    m.put("router.cells_forwarded", exact.at("router.cells_forwarded"),
          "count");

    // End-to-end figures that apply to some workloads only, from the
    // untraced phase of this run (0 where they do not apply).
    Figures unF = figures(un);
    m.put("op_p99_us", unF.p99.value_or(0), "us");
    // Simulated work of one pass over the time of one pass (ops_per_s
    // is of a pass made of the ops' fastest runs).
    const double passPerS =
        un.opsPerPass ? unF.opsPerS / double(un.opsPerPass) : 0.0;
    m.put("sim_insts_per_s", double(un.arch.insts) * passPerS, "1/s");
    m.put("sim_cycles_per_s", double(un.arch.cycles) * passPerS, "1/s");

    double unOps = unF.opsPerS;
    double trOps = figures(tr).opsPerS;
    m.put("trace.untraced_ops_per_s", unOps, "1/s");
    m.put("trace.traced_ops_per_s", trOps, "1/s");
    m.put("trace.overhead", trOps > 0 ? unOps / trOps : 0.0, "ratio");
}

// ------------------------------------------------------------------
// Modes.

bool
resultCorrect(const Result &r, const Options &opt, const Reference &ref)
{
    const std::string &workload = opt.workload;
    const bool trace = opt.trace;
    auto phaseOk = [&](const Phase &ph) {
        if (ph.failed || !ph.problems.empty() || !ph.countsStable)
            return false;
        // Warm serving computes nothing.
        if (workload.rfind("serve_", 0) == 0)
            for (const auto &st : ph.pipe.stage)
                if (st.computed)
                    return false;
        return true;
    };
    if (!phaseOk(r.untraced) || (trace && !phaseOk(r.traced)))
        return false;
    // Compute workloads repeat their exact counts in every phase.
    if (trace && !(r.untraced.arch == r.traced.arch))
        return false;
    // A run of the whole op list repeats the reference's exact counts.
    if (!opt.maxOps) {
        auto it = ref.exact.find(workload);
        if (it == ref.exact.end() ||
            !countMismatches(exactCounts(r), it->second).empty())
            return false;
    }
    return figures(r.untraced).p90.has_value();
}

void
printProblems(const Result &r, const Options &opt, const Reference &ref)
{
    size_t n = 0;
    for (const Phase *ph : {&r.untraced, &r.traced})
        for (const auto &p : ph->problems)
            if (n++ < 10)
                std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    if (!r.untraced.countsStable || !r.traced.countsStable)
        std::fprintf(stderr, "perfbench: exact counts differ between "
                             "passes\n");
    auto it = ref.exact.find(opt.workload);
    if (!opt.maxOps && it != ref.exact.end())
        for (const auto &k : countMismatches(exactCounts(r), it->second))
            std::fprintf(stderr, "perfbench: %s differs from the "
                                 "reference\n", k.c_str());
}

/** The result object, printed as the last line of stdout. */
Json
resultDoc(const Options &opt, const Result &r, const Reference &ref)
{
    Metrics m;
    if (opt.trace)
        putPerLayer(m, r);
    else
        putEndToEnd(m, r);
    Json doc = Json::object();
    doc["correct"] = resultCorrect(r, opt, ref);
    doc["attempted"] = r.untraced.attempted + r.traced.attempted;
    doc["failed"] = r.untraced.failed + r.traced.failed;
    doc["metrics"] = std::move(m.obj);
    return doc;
}

/** Sample counts and pass structure, printed before the result. */
Json
detailDoc(const Options &opt, const Result &r)
{
    Json d = Json::object();
    d["workload"] = opt.workload;
    d["seed"] = opt.seed;
    Json setups = Json::array();
    for (double s : r.setupS)
        setups.push(s);
    d["setup_s_samples"] = std::move(setups);
    // Samples past a percentile of n samples (>= 10, or the
    // percentile is not reported).
    auto past = [](size_t n, double q) {
        return uint64_t(n - size_t(std::ceil(q * double(n))));
    };
    for (auto [name, ph] : {std::pair{"untraced", &r.untraced},
                            std::pair{"traced", &r.traced}}) {
        if (ph->streams.empty())
            continue;
        Json p = Json::object();
        p["passes"] = ph->passes();
        p["ops"] = ph->attempted;
        p["wall_s"] = ph->wallS;
        Json streams = Json::array();
        for (const Stream &st : ph->streams) {
            Json sj = Json::object();
            sj["passes"] = st.passes();
            if (st.passes() <= 64) {
                Json ps = Json::array();
                for (double x : st.passS)
                    ps.push(x);
                sj["pass_s"] = std::move(ps);
            }
            // Serve: the windows each percentile is a decile of,
            // and the samples past it in the smallest window.
            if (ph->streams.size() > 1)
                for (auto [minOps, q, key] :
                     {std::tuple{WINDOW_OPS, 0.90, "p90"},
                      std::tuple{WINDOW_OPS_P99, 0.99, "p99"}}) {
                    Windows w = windowed(st, minOps);
                    Json wj = Json::object();
                    wj["windows"] = uint64_t(w.ops.size());
                    if (!w.ops.empty()) {
                        size_t least =
                            *std::min_element(w.ops.begin(), w.ops.end());
                        wj["least_ops"] = uint64_t(least);
                        wj["past"] = past(least, q);
                    }
                    sj[key] = std::move(wj);
                }
            streams.push(std::move(sj));
        }
        p["streams"] = std::move(streams);
        if (ph->streams.size() == 1) {
            // Compute: percentiles over the ops' fastest runs.
            size_t n = figures(*ph).samples;
            p["best_of_ops"] = uint64_t(n);
            p["p90_past"] = past(n, 0.90);
        }
        d[name] = std::move(p);
    }
    return d;
}

/** The digests (computeDigests()) and, per workload, the exact counts
 *  of one pass over its whole op list, whose every op must match them. */
Reference
computeReference(const Options &base)
{
    Reference r = computeDigests();
    for (const char *w : {"fig5_sim", "cold_cell", "serve_run",
                          "serve_sweep"}) {
        Options o = base;
        o.workload = w;
        o.trace = false;
        o.seconds = 0;
        o.minPassesOverride = 1;
        std::vector<SpanLog> logs;
        Result res = runWorkload(o, r, logs);
        if (res.untraced.failed || !res.untraced.problems.empty())
            throw std::runtime_error(std::string(w) +
                                     ": an op failed while counting");
        r.exact[w] = exactCounts(res);
    }
    return r;
}

int
checkSweepJson(const Reference &ref, const std::vector<std::string> &files)
{
    size_t matched = 0, mismatched = 0;
    for (const auto &f : files) {
        Json doc = Json::parse(readFile(f));
        const Json &runs = doc.get("runs");
        for (size_t i = 0; i < runs.size(); ++i) {
            // Cell ids do not name the scale: fig5_sim's cells are
            // small-scale, cold_cell's full-scale.
            const Json &cfg = runs.at(i).get("config");
            const auto &cells =
                cfg.get("scale").asString() == "small" ? ref.fig5Sim
                                                       : ref.coldCell;
            const std::string &id = runs.at(i).get("id").asString();
            auto it = cells.find(id);
            if (it == cells.end())
                continue;
            if (digest(runs.at(i).dump()) == it->second) {
                ++matched;
            } else {
                ++mismatched;
                std::fprintf(stderr, "%s: %s differs from the reference\n",
                             f.c_str(), id.c_str());
            }
        }
        std::string whole = digest(doc.dump());
        for (const auto *m : {&ref.serveRun, &ref.serveSweep})
            for (const auto &[k, v] : *m)
                if (v == whole) {
                    ++matched;
                    std::fprintf(stderr, "%s: whole document matches %s\n",
                                 f.c_str(), k.c_str());
                }
    }
    std::printf("%zu reference entries matched, %zu differ\n", matched,
                mismatched);
    return matched && !mismatched ? 0 : 1;
}

// ------------------------------------------------------------------
// Self-test: every workload at tiny size.

int
selfTest(const Options &base, const Reference &ref)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::fprintf(stderr, "  [%s] %s\n", ok ? "ok" : "FAIL",
                     what.c_str());
        failures += !ok;
    };

    // The percentile gate: 10 samples past the percentile or nothing.
    std::vector<double> v(99, 1.0);
    expect(!percentile(v, 0.90), "p90 withheld at 99 samples");
    v.push_back(1.0);
    expect(percentile(v, 0.90).has_value(), "p90 reported at 100 samples");
    v.assign(999, 1.0);
    expect(!percentile(v, 0.99), "p99 withheld at 999 samples");
    v.push_back(1.0);
    expect(percentile(v, 0.99).has_value(), "p99 reported at 1000 samples");
    // Windows: whole passes, >= WINDOW_OPS each, the remainder merged.
    Stream four;
    for (uint32_t p = 0; p < 4; ++p) {
        for (uint32_t i = 0; i < 60; ++i) {
            four.latUs.push_back(1.0);
            four.latPass.push_back(p);
            four.latOp.push_back(i);
        }
        four.passS.push_back(0.5);
    }
    Windows w4 = windowed(four, WINDOW_OPS);
    expect(w4.ops == std::vector<size_t>{120, 120} && w4.p90.size() == 2 &&
               w4.opsPerS == std::vector<double>{120.0, 120.0},
           "4 passes of 60 ops make 2 windows of 120");
    four.passS.pop_back();
    four.latUs.resize(180);
    four.latPass.resize(180);
    four.latOp.resize(180);
    expect(windowed(four, WINDOW_OPS).ops == std::vector<size_t>{180},
           "3 passes of 60 ops make 1 window of 180");
    // Serve figures: the best tenth of windows, from either end.
    {
        std::vector<double> w(20);
        for (size_t i = 0; i < w.size(); ++i)
            w[i] = double(20 - i);  // 20 .. 1
        expect(bestDecile(w, false) == 2.0 && bestDecile(w, true) == 19.0,
               "best decile of 20 windows is the 2nd best");
        expect(bestDecile({7.0}, false) == 7.0 && !bestDecile({}, true),
               "best decile of one window is that window");
    }
    // Compute figures: each op's fastest run, whichever pass it was in.
    {
        Phase ph;
        ph.streams.assign(1, Stream{});
        Stream &st = ph.streams[0];
        const double lat[2][3] = {{100, 900, 300}, {500, 200, 300}};
        for (uint32_t p = 0; p < 2; ++p) {
            for (uint32_t i = 0; i < 3; ++i) {
                st.latUs.push_back(lat[p][i]);
                st.latPass.push_back(p);
                st.latOp.push_back(i);
            }
            st.passS.push_back(1.0);
        }
        expect(bestPerOp(st) == std::vector<double>{100, 200, 300} &&
                   std::abs(figures(ph).opsPerS - 3 / 600e-6) < 1e-6,
               "compute figures take each op's fastest run");
    }

    struct Case
    {
        const char *workload;
        size_t ops;
        uint64_t passes;
    };
    for (Case c : {Case{"fig5_sim", 6, 2}, Case{"cold_cell", 2, 2},
                   Case{"serve_run", 4, 3}, Case{"serve_sweep", 2, 2}}) {
        std::fprintf(stderr, "%s (%zu ops x %llu passes, traced)\n",
                     c.workload, c.ops, (unsigned long long)c.passes);
        Options o = base;
        o.workload = c.workload;
        o.trace = true;
        o.seconds = 0;
        o.maxOps = c.ops;
        o.minPassesOverride = c.passes;
        std::vector<SpanLog> logs;
        Result r = runWorkload(o, ref, logs);
        printProblems(r, o, ref);
        for (const Phase *ph : {&r.untraced, &r.traced}) {
            bool whole = ph->attempted == c.passes * c.ops;
            for (const Stream &st : ph->streams)
                whole = whole && st.passes() == c.passes;
            expect(whole, "whole passes");
            expect(ph->failed == 0 && ph->problems.empty(),
                   "every digest matches");
            expect(!figures(*ph).p90, "no p90 from a tiny run");
            expect(ph->countsStable, "exact counts repeat across passes");
        }
        Json doc = resultDoc(o, r, ref);
        const Json &m = doc.get("metrics");
        expect(m.get("op_p99_us").get("value").asDouble() == 0,
               "no p99 from a tiny run");
        if (std::string(c.workload).rfind("serve_", 0) == 0) {
            bool flat = true;
            for (const Phase *ph : {&r.untraced, &r.traced})
                for (const auto &st : ph->pipe.stage)
                    flat = flat && st.computed == 0;
            expect(flat, "warm serving leaves pipeline.*.computed flat");
            // Two frames (cell, summary) per cell on the daemons.
            size_t cellsPerOp = o.workload == "serve_sweep" ? 6 : 1;
            expect(m.get("serve.frames_out").get("value").asDouble() ==
                       double(2 * c.ops * cellsPerOp),
                   "serve.frames_out is exact");
        }
        if (std::string(c.workload) == "serve_sweep")
            expect(m.get("router.cells_forwarded").get("value").asDouble() ==
                       double(6 * c.ops),
                   "router.cells_forwarded is exact");
    }

    // Seed independence of the exact counts.
    {
        Options o = base;
        o.workload = "fig5_sim";
        o.seconds = 0;
        o.maxOps = 6;
        o.minPassesOverride = 1;
        std::vector<SpanLog> logs;
        o.seed = 1;
        Result a = runWorkload(o, ref, logs);
        o.seed = 2;
        Result b = runWorkload(o, ref, logs);
        expect(exactCounts(a) == exactCounts(b) &&
                   a.untraced.failed == 0 && b.untraced.failed == 0,
               "exact counts and digests do not depend on the seed");

        // Any change to an exact count is a mismatch, either way.
        std::map<std::string, double> want = exactCounts(a);
        expect(countMismatches(exactCounts(a), want).empty(),
               "the run's own exact counts match");
        want["arch.retired_insts"] += 1;
        expect(countMismatches(exactCounts(a), want) ==
                   std::vector<std::string>{"arch.retired_insts"},
               "one more retired instruction is a mismatch");
        want["arch.retired_insts"] -= 2;
        expect(countMismatches(exactCounts(a), want) ==
                   std::vector<std::string>{"arch.retired_insts"},
               "one fewer retired instruction is a mismatch");

        // A corrupted reference entry is a failed op, not a skipped one.
        Reference bad = ref;
        bad.fig5Sim["go/bb/4pu/ooo"] = "0:0000000000000000";
        Result c = runWorkload(o, bad, logs);
        expect(c.untraced.attempted == 6 && c.untraced.failed == 1,
               "a corrupted reference entry counts as one failed op");
        Reference badServe = ref;
        badServe.serveRun["go"] = "0:0000000000000000";
        o.workload = "serve_run";
        o.maxOps = 4;
        o.minPassesOverride = 2;
        Result d = runWorkload(o, badServe, logs);
        expect(d.untraced.attempted == 8 && d.untraced.failed == 2,
               "a corrupted serve reference entry fails its op once a pass");
    }
    std::fprintf(stderr, "self-test: %s\n",
                 failures ? "FAILED" : "all checks passed");
    return failures ? 1 : 0;
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
        "                 [--reference FILE] [--work-dir DIR]"
        " [--spans-out FILE]\n"
        "       perfbench --self-test [--reference FILE]\n"
        "       perfbench --regen-reference [--reference FILE]\n"
        "       perfbench --check-sweep-json FILE... [--reference FILE]\n"
        "workloads: fig5_sim cold_cell serve_run serve_sweep\n");
    std::exit(code);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    std::string mode = "run";
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        auto num = [&](const std::string &s) {
            char *end = nullptr;
            double d = std::strtod(s.c_str(), &end);
            if (s.empty() || *end || d < 0)
                usage(2);
            return d;
        };
        if (a == "--workload")
            opt.workload = val();
        else if (a == "--seed")
            opt.seed = uint64_t(num(val()));
        else if (a == "--seconds")
            opt.seconds = num(val());
        else if (a == "--trace") {
            std::string t = val();
            if (t != "0" && t != "1")
                usage(2);
            opt.trace = t == "1";
        } else if (a == "--reference")
            opt.reference = val();
        else if (a == "--work-dir")
            opt.workDir = val();
        else if (a == "--spans-out")
            opt.spansOut = val();
        else if (a == "--self-test")
            mode = "self-test";
        else if (a == "--regen-reference")
            mode = "regen";
        else if (a == "--check-sweep-json") {
            mode = "check";
            while (i + 1 < argc && argv[i + 1][0] != '-')
                files.push_back(argv[++i]);
        } else if (a == "--help" || a == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n", a.c_str());
            usage(2);
        }
    }
    try {
        if (mode == "regen") {
            writeReference(opt.reference, computeReference(opt));
            std::fprintf(stderr, "perfbench: wrote %s\n",
                         opt.reference.c_str());
            return 0;
        }
        Reference ref = loadReference(opt.reference);
        if (mode == "check")
            return checkSweepJson(ref, files);
        if (mode == "self-test")
            return selfTest(opt, ref);
        if (opt.workload.empty())
            usage(2);
        std::vector<SpanLog> logs;
        Result r = runWorkload(opt, ref, logs);
        printProblems(r, opt, ref);
        if (opt.trace)
            writeSpans(opt.spansOut, r.logs);
        std::printf("%s\n", detailDoc(opt, r).dump().c_str());
        std::printf("%s\n", resultDoc(opt, r, ref).dump().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
