/**
 * @file
 * The shared connection frontend (src/serve/frontend.h), tested once
 * for both of its backends.
 *
 *  - Conformance: one table of protocol cases — truncated, oversize
 *    and malformed frames, a duplicate request id, the
 *    `--max-inflight` busy refusal, cancel of an unknown id, and
 *    `stats` counting itself — runs against a Server and against a
 *    Router fronting one in-process shard. Each case checks the
 *    frames on the wire, the `<prefix>.*` counters, and (for framing
 *    errors) the `frame.error` log line.
 *  - Thread reaping: a connection or listener that has served many
 *    requests holds thread stacks only for the work still in flight;
 *    VmSize stays flat across a thousand sequential requests.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "client/client.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace msc;
using namespace msc::serve;

namespace {

namespace fs = std::filesystem;

/** Writes to sockets the peer already closed must error, not kill
 *  the test binary (mscd itself ignores SIGPIPE in main()). */
struct IgnoreSigpipe
{
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} g_sigpipe;

std::string
frameBytes(const std::string &payload)
{
    StringTransport t("");
    writeFrame(t, payload);
    return t.written();
}

std::vector<report::Json>
parseFrames(const std::string &bytes)
{
    StringTransport t(bytes);
    std::vector<report::Json> out;
    while (true) {
        FrameResult fr = readFrame(t);
        if (fr.status != FrameStatus::Ok)
            break;
        out.push_back(report::Json::parse(fr.payload));
    }
    return out;
}

std::string
runPayload(const std::string &id, const std::string &workload,
           const std::string &extra = "")
{
    return "{\"id\":\"" + id + "\",\"kind\":\"run\",\"workload\":\"" +
           workload +
           "\",\"scale\":\"small\",\"insts\":10000,\"pus\":2,"
           "\"strategy\":\"bb\"" +
           extra + "}";
}

/** A cell that never halts and whose fuel outlasts any test: it ends
 *  only when cancelled. */
std::string
endlessPayload(const std::string &id)
{
    return runPayload(id, "fuelbomb",
                      ",\"budget\":{\"max_fuel\":100000000000}");
}

std::string
statsPayload(const std::string &id)
{
    return "{\"id\":\"" + id + "\",\"kind\":\"stats\"}";
}

std::string
cancelPayload(const std::string &id, const std::string &target)
{
    return "{\"id\":\"" + id + "\",\"kind\":\"cancel\",\"target\":\"" +
           target + "\"}";
}

/** The frames carrying @p id, in arrival order. */
std::vector<report::Json>
framesOf(const std::vector<report::Json> &frames, const std::string &id)
{
    std::vector<report::Json> out;
    for (const auto &f : frames)
        if (f.get("id").asString() == id)
            out.push_back(f);
    return out;
}

/** Captures what this process writes to stderr (the JSON log lines)
 *  while alive. */
class StderrCapture
{
  public:
    StderrCapture()
    {
        std::fflush(stderr);
        _file = std::tmpfile();
        _saved = ::dup(2);
        ::dup2(::fileno(_file), 2);
    }

    ~StderrCapture()
    {
        restore();
        std::fclose(_file);
    }

    /** Restores stderr and returns every line written meanwhile. */
    std::vector<report::Json>
    lines()
    {
        restore();
        std::rewind(_file);
        std::vector<report::Json> out;
        char buf[65536];
        while (std::fgets(buf, sizeof buf, _file)) {
            std::string line(buf);
            if (!line.empty() && line[0] == '{')
                out.push_back(report::Json::parse(line));
        }
        return out;
    }

  private:
    void
    restore()
    {
        if (_saved < 0)
            return;
        std::fflush(stderr);
        ::dup2(_saved, 2);
        ::close(_saved);
        _saved = -1;
    }

    std::FILE *_file = nullptr;
    int _saved = -1;
};

/** A Server listening on a Unix socket: the router's one shard. */
class Shard
{
  public:
    Shard()
    {
        _dir = fs::temp_directory_path() /
               ("msc-frontend-" + std::to_string(::getpid()) + "-" +
                std::to_string(_seq++));
        fs::create_directories(_dir);
        ServerConfig cfg;
        cfg.dispatch.jobs = 2;
        _server = std::make_unique<Server>(std::move(cfg));
        std::string sock = (_dir / "s.sock").string();
        _th = std::thread([this, sock] { _server->serveUnix(sock); });
        for (int i = 0;; ++i) {
            try {
                ::close(client::connectEndpoint(endpoint()));
                return;
            } catch (const std::exception &) {
                if (i >= 200)
                    throw;
                ::usleep(10'000);
            }
        }
    }

    /** Blocks until the router's links have closed: destroy the
     *  Router first. */
    ~Shard()
    {
        _server->requestStop();
        _th.join();
        std::error_code ec;
        fs::remove_all(_dir, ec);
    }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + (_dir / "s.sock").string());
    }

  private:
    static inline int _seq = 0;
    fs::path _dir;
    std::unique_ptr<Server> _server;
    std::thread _th;
};

enum class Backend
{
    Server,
    Router
};

/** What one scripted connection left behind. */
struct Outcome
{
    std::vector<report::Json> frames;
    std::vector<report::Json> logs;
    obs::MetricsRegistry *metrics;
    std::string prefix;

    uint64_t
    counter(const std::string &name) const
    {
        return metrics->counter(prefix + "." + name).value();
    }

    uint64_t
    histogramCount(const std::string &name) const
    {
        return metrics->histogram(prefix + "." + name).count();
    }

    /** The first log line of event @p ev (with `kind` @p kind when
     *  given), or Null. */
    report::Json
    logLine(const std::string &ev, const std::string &kind = "") const
    {
        for (const auto &l : logs)
            if (l.get("ev").asString() == ev &&
                (kind.empty() || l.get("kind").asString() == kind))
                return l;
        return report::Json();
    }
};

/** The config fields a case sets, on either frontend's config. */
struct Limits
{
    uint32_t maxFrame = DEFAULT_MAX_FRAME;
    unsigned maxInflight = 0;

    template <class Config>
    void
    applyTo(Config &cfg) const
    {
        cfg.maxFrame = maxFrame;
        cfg.maxInflight = maxInflight;
        cfg.logJson = true;
    }
};

struct Case
{
    const char *name;
    Limits limits;
    std::string script;
    std::function<void(const Outcome &)> check;
};

Limits
withMaxFrame(uint32_t n)
{
    Limits l;
    l.maxFrame = n;
    return l;
}

Limits
withMaxInflight(unsigned n)
{
    Limits l;
    l.maxInflight = n;
    return l;
}

void
expectProtocolError(const report::Json &f, const std::string &id,
                    const std::string &kind, const std::string &detail)
{
    EXPECT_EQ(f.get("type").asString(), "error");
    EXPECT_EQ(f.get("id").asString(), id);
    EXPECT_EQ(f.get("error").get("kind").asString(), kind);
    EXPECT_NE(f.get("error").get("detail").asString().find(detail),
              std::string::npos)
        << f.dump();
}

/** @p frames end a request cancelled mid-flight: one cancelled cell,
 *  then a failed summary. */
void
expectCancelledRun(const std::vector<report::Json> &frames)
{
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].get("type").asString(), "cell");
    EXPECT_EQ(frames[0].get("run").get("error").get("kind").asString(),
              "cancelled");
    EXPECT_EQ(frames[1].get("type").asString(), "summary");
    EXPECT_EQ(frames[1].get("status").asString(), "failed");
}

const std::vector<Case> &
cases()
{
    static const std::vector<Case> table = {
        {"TruncatedFrame", {},
         // The stream dies inside the second frame's header.
         frameBytes(statsPayload("s")) + std::string("\x00\x00\x01", 3),
         [](const Outcome &o) {
             ASSERT_EQ(o.frames.size(), 2u);
             expectProtocolError(o.frames[1], "", "invalid-input",
                                 "truncated frame");
             EXPECT_EQ(o.frames[1].get("error").get("stage").asString(),
                       "protocol");
             EXPECT_EQ(o.counter("frames.truncated"), 1u);
             EXPECT_EQ(o.counter("frames.in"), 1u);
             EXPECT_FALSE(o.logLine("frame.error", "truncated").isNull());
         }},
        {"OversizeFrame", withMaxFrame(256),
         std::string({'\x00', '\x10', '\x00', '\x00'}) +
             frameBytes(statsPayload("s")),
         [](const Outcome &o) {
             ASSERT_EQ(o.frames.size(), 2u);
             expectProtocolError(o.frames[0], "", "invalid-input",
                                 "exceeds maximum 256");
             // The connection resynced: the stats request after the
             // rejected header was answered and saw the rejection.
             const report::Json &m = o.frames[1].get("metrics");
             EXPECT_EQ(m.get("counters")
                           .get(o.prefix + ".frames.oversize")
                           .asUInt(),
                       1u);
             EXPECT_EQ(o.counter("frames.oversize"), 1u);
             report::Json log = o.logLine("frame.error", "oversize");
             ASSERT_FALSE(log.isNull());
             EXPECT_EQ(log.get("declared").asUInt(), 0x100000u);
         }},
        {"MalformedPayload", {},
         frameBytes("{nope") +
             frameBytes("{\"id\":\"u\",\"kind\":\"bogus\"}") +
             frameBytes(statsPayload("s")),
         [](const Outcome &o) {
             ASSERT_EQ(o.frames.size(), 3u);
             expectProtocolError(o.frames[0], "", "invalid-input", "");
             expectProtocolError(o.frames[1], "u", "invalid-input", "");
             EXPECT_EQ(o.frames[2].get("type").asString(), "result");
             EXPECT_EQ(o.counter("requests.malformed"), 2u);
             EXPECT_EQ(o.counter("requests.stats"), 1u);
             EXPECT_FALSE(o.logLine("frame.error", "malformed").isNull());
         }},
        {"DuplicateId", {},
         frameBytes(endlessPayload("a")) +
             frameBytes(runPayload("a", "compress")) +
             frameBytes(cancelPayload("c", "a")),
         [](const Outcome &o) {
             std::vector<report::Json> a = framesOf(o.frames, "a");
             ASSERT_EQ(a.size(), 3u);
             // The duplicate is refused on the reader thread, before
             // the cancel is read, so its error leads a's frames.
             expectProtocolError(a[0], "a", "invalid-input",
                                 "duplicate request id");
             expectCancelledRun({a[1], a[2]});
             std::vector<report::Json> c = framesOf(o.frames, "c");
             ASSERT_EQ(c.size(), 1u);
             EXPECT_TRUE(c[0].get("found").asBool());
             EXPECT_EQ(o.counter("requests.run"), 2u);
             // Only the admitted request completes; the refused
             // duplicate never reaches the backend.
             EXPECT_EQ(o.histogramCount("latency.run.done_us"), 1u);
         }},
        {"MaxInflightBusy", withMaxInflight(1),
         frameBytes(endlessPayload("a")) +
             frameBytes(runPayload("b", "compress")) +
             frameBytes(statsPayload("s")) +
             frameBytes(cancelPayload("c", "a")),
         [](const Outcome &o) {
             std::vector<report::Json> b = framesOf(o.frames, "b");
             ASSERT_EQ(b.size(), 1u);
             expectProtocolError(b[0], "b", "busy", "bound 1");
             EXPECT_EQ(b[0].get("error").get("stage").asString(),
                       "server");
             // Inline verbs are exempt from the bound.
             ASSERT_EQ(framesOf(o.frames, "s").size(), 1u);
             EXPECT_EQ(framesOf(o.frames, "s")[0]
                           .get("type")
                           .asString(),
                       "result");
             expectCancelledRun(framesOf(o.frames, "a"));
             EXPECT_EQ(o.counter("requests.busy"), 1u);
             report::Json log = o.logLine("request.busy");
             ASSERT_FALSE(log.isNull());
             EXPECT_EQ(log.get("inflight").asUInt(), 1u);
         }},
        {"CancelUnknownId", {},
         frameBytes(cancelPayload("c", "ghost")),
         [](const Outcome &o) {
             ASSERT_EQ(o.frames.size(), 1u);
             EXPECT_EQ(o.frames[0].get("type").asString(), "result");
             EXPECT_EQ(o.frames[0].get("kind").asString(), "cancel");
             EXPECT_EQ(o.frames[0].get("target").asString(), "ghost");
             EXPECT_FALSE(o.frames[0].get("found").asBool());
             EXPECT_EQ(o.histogramCount("latency.cancel.done_us"), 1u);
         }},
        {"StatsCountsItself", {},
         frameBytes(statsPayload("s")),
         [](const Outcome &o) {
             ASSERT_EQ(o.frames.size(), 1u);
             const report::Json &m = o.frames[0].get("metrics");
             EXPECT_EQ(m.get("schema").asString(), "msc.metrics");
             const report::Json &c = m.get("counters");
             EXPECT_EQ(c.get(o.prefix + ".requests.stats").asUInt(), 1u);
             EXPECT_EQ(c.get(o.prefix + ".frames.in").asUInt(), 1u);
             EXPECT_EQ(
                 c.get(o.prefix + ".connections.accepted").asUInt(),
                 1u);
             EXPECT_TRUE(m.get("histograms")
                             .has(o.prefix + ".latency.sweep.done_us"));
         }},
    };
    return table;
}

class Conformance
    : public ::testing::TestWithParam<std::tuple<Backend, size_t>>
{};

TEST_P(Conformance, Case)
{
    auto [backend, index] = GetParam();
    const Case &c = cases()[index];

    std::unique_ptr<Shard> shard;
    std::unique_ptr<Server> server;
    std::unique_ptr<Router> router;
    StringTransport t(c.script);
    Outcome o;
    {
        StderrCapture err;
        if (backend == Backend::Server) {
            ServerConfig cfg;
            c.limits.applyTo(cfg);
            cfg.dispatch.jobs = 2;
            server = std::make_unique<Server>(std::move(cfg));
            server->serveConnection(t);
            o.metrics = &server->metrics();
            o.prefix = "mscd";
        } else {
            shard = std::make_unique<Shard>();
            RouterConfig cfg;
            c.limits.applyTo(cfg);
            cfg.shards = {shard->endpoint()};
            router = std::make_unique<Router>(std::move(cfg));
            router->serveConnection(t);
            o.metrics = &router->metrics();
            o.prefix = "router";
        }
        o.logs = err.lines();
    }
    o.frames = parseFrames(t.written());
    c.check(o);

    router.reset();  // closes the shard links before the shard stops
}

INSTANTIATE_TEST_SUITE_P(
    Frontends, Conformance,
    ::testing::Combine(::testing::Values(Backend::Server,
                                         Backend::Router),
                       ::testing::Range(size_t(0), cases().size())),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == Backend::Server
                               ? "Server_"
                               : "Router_") +
               cases()[std::get<1>(info.param)].name;
    });

// ------------------------------------------------- thread reaping

/** This process's virtual size in bytes (VmSize, /proc/self/status). */
uint64_t
vmSizeBytes()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmSize:") {
            uint64_t kb = 0;
            in >> kb;
            return kb * 1024;
        }
        in.ignore(1 << 20, '\n');
    }
    ADD_FAILURE() << "no VmSize in /proc/self/status";
    return 0;
}

constexpr uint64_t MAX_GROWTH = 256ull << 20;

TEST(FrontendThreads, SequentialRequestsDoNotParkThreadStacks)
{
    ServerConfig cfg;
    cfg.dispatch.jobs = 1;
    Server server(std::move(cfg));

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::thread srv([&] {
        FdTransport t(sv[1], sv[1]);
        server.serveConnection(t);
    });
    {
        client::ClientConn conn(sv[0], sv[0], true);
        auto run = [&](int i) {
            client::RequestBuilder req =
                client::RequestBuilder::run("w" + std::to_string(i),
                                            "compress");
            req.strategy("bb").pusCount(2).smallScale(true).insts(
                10000);
            return conn.collectSweep(req);
        };
        ASSERT_TRUE(run(0).ok());  // computes; every later one is warm
        uint64_t before = vmSizeBytes();
        for (int i = 1; i <= 1000; ++i) {
            client::ClientConn::SweepOutcome out = run(i);
            ASSERT_TRUE(out.ok()) << "request " << i;
            ASSERT_EQ(out.last.status, "ok");
        }
        uint64_t after = vmSizeBytes();
        EXPECT_LT(after - std::min(after, before), MAX_GROWTH)
            << "VmSize " << before << " -> " << after;
    }
    srv.join();
    ::close(sv[1]);
}

TEST(FrontendThreads, SequentialConnectionsDoNotParkThreadStacks)
{
    fs::path dir = fs::temp_directory_path() /
                   ("msc-frontend-listen-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    std::string sock = (dir / "d.sock").string();

    ServerConfig cfg;
    cfg.dispatch.jobs = 1;
    Server server(std::move(cfg));
    std::thread srv([&] { server.serveUnix(sock); });
    client::Endpoint ep = client::parseEndpoint("unix:" + sock);
    auto stats = [&] {
        for (int i = 0;; ++i) {
            try {
                client::ClientConn conn(ep);
                return conn.call(client::RequestBuilder::stats("s"));
            } catch (const std::exception &) {
                if (i >= 200)
                    throw;
                ::usleep(10'000);
            }
        }
    };
    stats();  // the listener is up
    uint64_t before = vmSizeBytes();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(stats().type, client::ResponseFrame::Type::Result);
    uint64_t after = vmSizeBytes();
    EXPECT_LT(after - std::min(after, before), MAX_GROWTH)
        << "VmSize " << before << " -> " << after;

    server.requestStop();
    srv.join();
    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // anonymous namespace
