/**
 * @file
 * mscd — the pipeline daemon (docs/DAEMON.md).
 *
 *   mscd --stdio [options]
 *       Serve exactly one connection over stdin/stdout, then exit.
 *       This is the mode the conformance tests and shell pipelines
 *       use: `mscd --stdio < requests.bin > responses.bin`.
 *   mscd --unix PATH [options]
 *       Listen on a Unix-domain socket (stale socket files are
 *       replaced; the socket is unlinked on clean shutdown).
 *   mscd --tcp PORT [options]
 *       Listen on 127.0.0.1:PORT.
 *   mscd --router --shard EP [--shard EP ...] (--stdio|--unix|--tcp)
 *       Shard mode (docs/DAEMON.md#sharding): serve the same
 *       protocol, but execute nothing locally — fan sweep cells out
 *       to the shard daemons at the given endpoints by content-key
 *       hash, reassemble, and degrade to `partial` summaries when a
 *       shard is lost. Endpoints use the src/client grammar:
 *       unix:/path, tcp:host:port, tcp:port.
 *
 * The flags (generated usage: `mscd` with no mode) set the
 * single-daemon config; a router takes only its frontend part
 * (budget defaults, frame cap, in-flight bound, logging), since
 * workers and caches belong to the shards. The budget flags are
 * per-cell defaults that a request's `budget` object overrides per
 * field.
 *
 * Exit code 0 on clean shutdown (end-of-stream in --stdio mode,
 * SIGINT/SIGTERM in listener modes), 1 on setup failure or bad usage.
 *
 * Every response frame is a structured JSON object; nothing a client
 * sends can crash the daemon (src/serve/, tests/test_mscd.cc).
 */

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "client/endpoint.h"
#include "obs/taskprof.h"
#include "report/flags.h"
#include "report/record.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace msc;

namespace {

serve::Frontend *g_front = nullptr;

extern "C" void
onSignal(int)
{
    // requestStop is async-signal-safe: atomics + close().
    if (g_front)
        g_front->requestStop();
}

int
printVersion(const char *prog)
{
    std::printf("%s protocol %d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n",
                prog, serve::PROTOCOL_VERSION, report::SCHEMA_NAME,
                report::SCHEMA_VERSION, obs::TASKPROF_SCHEMA_NAME,
                obs::TASKPROF_SCHEMA_VERSION, obs::METRICS_SCHEMA_NAME,
                obs::METRICS_SCHEMA_VERSION);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    enum class Mode { None, Stdio, Unix, Tcp } mode = Mode::None;
    std::string unix_path;
    uint16_t tcp_port = 0;
    bool router = false, version = false;

    // Flags land in the single-daemon config; the router takes the
    // frontend part of it.
    serve::ServerConfig cfg;
    serve::RouterConfig rcfg;

    report::FlagSet f("mscd", "Serve msc pipeline requests "
                              "(docs/DAEMON.md); needs one of --stdio, "
                              "--unix, --tcp.");
    f.func("--stdio", nullptr, "serve one connection on stdin/stdout",
           [&](const std::string &) { mode = Mode::Stdio; });
    f.func("--unix", "PATH", "listen on a Unix-domain socket",
           [&](const std::string &v) {
               mode = Mode::Unix;
               unix_path = v;
           });
    f.func("--tcp", "PORT", "listen on 127.0.0.1:PORT",
           [&](const std::string &v) {
               mode = Mode::Tcp;
               tcp_port = report::parseUnsigned<uint16_t>("--tcp", v);
               if (tcp_port == 0)
                   throw std::invalid_argument("bad port " + v);
           });
    f.flag("--router", &router,
           "fan cells out to the --shard daemons; execute nothing");
    f.func("--shard", "EP",
           "a shard daemon (unix:PATH | tcp:HOST:PORT | tcp:PORT); "
           "repeat per shard",
           [&](const std::string &v) {
               client::Endpoint ep = client::parseEndpoint(v);
               if (ep.kind == client::Endpoint::Kind::Stdio)
                   throw std::invalid_argument(
                       "--shard cannot be stdio (a shard needs its "
                       "own listener)");
               rcfg.shards.push_back(std::move(ep));
           });
    f.flag("--jobs", &cfg.dispatch.jobs, "N",
           "worker threads executing cells (default: hardware "
           "concurrency)");
    f.flag("--cache-dir", &cfg.dispatch.session.cacheDir, "DIR",
           "persist stage artifacts on disk");
    f.flag("--max-frame", &cfg.maxFrame, "N",
           "inbound frame-size cap in bytes (default 16 MiB)");
    f.flag("--max-inflight", &cfg.maxInflight, "N",
           "per-connection bound; pooled requests past N get a "
           "`busy` error frame (default 0 = unlimited)");
    f.flag("--timeout-ms", &cfg.defaults.budget.wallMs, "N",
           "default per-cell wall-clock budget");
    f.flag("--max-fuel", &cfg.defaults.budget.maxFuel, "N",
           "default per-cell interpreted-instruction budget");
    f.flag("--max-cycles", &cfg.defaults.budget.maxSimCycles, "N",
           "default per-cell simulated-cycle budget");
    f.flag("--log-json", &cfg.logJson,
           "one JSON log line per lifecycle event on stderr "
           "(docs/OBSERVABILITY.md)");
    f.flag("--version", &version,
           "print the protocol and schema versions and exit");
    auto usage = [&] {
        std::fprintf(stderr, "usage: %s", f.usage().c_str());
        return 1;
    };
    try {
        f.parse(argc - 1, argv + 1);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mscd: %s\n", e.what());
        return usage();
    }
    if (version)
        return printVersion("mscd");
    if (mode == Mode::None)
        return usage();
    if (router && rcfg.shards.empty()) {
        std::fprintf(stderr,
                     "mscd: --router needs at least one --shard\n");
        return 1;
    }
    if (!router && !rcfg.shards.empty()) {
        std::fprintf(stderr, "mscd: --shard requires --router\n");
        return 1;
    }

    // A client that disconnects mid-stream must not kill the daemon:
    // writes then fail with EPIPE (a structured Io StageError that
    // tears down only that connection), not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    std::unique_ptr<serve::Frontend> front;
    if (router) {
        static_cast<serve::FrontendConfig &>(rcfg) = cfg;
        front = std::make_unique<serve::Router>(std::move(rcfg));
    } else {
        front = std::make_unique<serve::Server>(std::move(cfg));
    }
    g_front = front.get();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    switch (mode) {
      case Mode::Stdio: {
        serve::FdTransport t(0, 1);
        front->serveConnection(t);
        return 0;
      }
      case Mode::Unix:
        return front->serveUnix(unix_path);
      case Mode::Tcp:
        return front->serveTcp(tcp_port);
      case Mode::None:
        break;
    }
    return 1;
}
