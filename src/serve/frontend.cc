#include "serve/frontend.h"

#include <cstdio>

#include <unistd.h>

#include "runtime/error.h"

namespace msc {
namespace serve {

/** One connection's shared write end (frames must not tear). */
struct Frontend::Conn
{
    Conn(Transport &tr, uint64_t n) : t(tr), id(n) {}
    Transport &t;
    uint64_t id;  ///< Process-wide connection sequence (logs).
    std::mutex mu;

    /** Pooled requests in flight on this connection. Incremented on
     *  the reader thread *before* the next frame is read, so the
     *  backpressure bound is deterministic with respect to frame
     *  arrival order (tests rely on this). */
    std::atomic<unsigned> active{0};
};

Frontend::Frontend(FrontendConfig cfg, const char *prefix,
                   const char *program, const char *internal_stage)
    : _cfg(std::move(cfg)), _program(program),
      _internalStage(internal_stage), _log(_cfg.logJson)
{
    std::string p = std::string(prefix) + ".";
    _framesIn = &_metrics.counter(p + "frames.in");
    _framesOut = &_metrics.counter(p + "frames.out");
    _framesTruncated = &_metrics.counter(p + "frames.truncated");
    _framesOversize = &_metrics.counter(p + "frames.oversize");
    _reqMalformed = &_metrics.counter(p + "requests.malformed");
    _reqBusy = &_metrics.counter(p + "requests.busy");
    _connAccepted = &_metrics.counter(p + "connections.accepted");
    _connClosed = &_metrics.counter(p + "connections.closed");
    _connErrors = &_metrics.counter(p + "connections.errors");
    _requestsInflight = &_metrics.gauge(p + "requests.inflight");

    static constexpr RequestKind verbs[] = {
        RequestKind::Run, RequestKind::Sweep, RequestKind::Trace,
        RequestKind::Cancel, RequestKind::Stats};
    for (RequestKind k : verbs) {
        VerbMetrics &vm = verbMetrics(k);
        std::string verb = verbName(k);
        vm.requests = &_metrics.counter(p + "requests." + verb);
        std::string base = p + "latency." + verb + ".";
        bool pooled =
            k == RequestKind::Run || k == RequestKind::Sweep;
        if (pooled)
            vm.dispatchUs = &_metrics.histogram(base + "dispatch_us");
        if (pooled || k == RequestKind::Trace)
            vm.firstFrameUs =
                &_metrics.histogram(base + "first_frame_us");
        vm.doneUs = &_metrics.histogram(base + "done_us");
    }
}

uint64_t
Frontend::sinceUs(Clock::time_point t0)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

void
Frontend::sendFrame(Conn &conn, const report::Json &frame)
{
    std::string payload = frame.dump();
    std::lock_guard<std::mutex> lock(conn.mu);
    writeFrame(conn.t, payload);
    _framesOut->inc();
}

void
Frontend::sendError(Conn &conn, const std::string &id,
                    runtime::ErrorKind kind, const std::string &stage,
                    const std::string &detail)
{
    runtime::StageErrorInfo info;
    info.kind = kind;
    info.stage = stage;
    info.detail = detail;
    sendFrame(conn, errorFrame(id, info));
}

void
Frontend::frameError(Conn &conn, const char *kind,
                     const std::string &detail, uint32_t declared)
{
    logEvent("frame.error", [&](report::Json &f) {
        f["conn"] = conn.id;
        f["kind"] = kind;
        if (declared)
            f["declared"] = declared;
    });
    sendError(conn, "", runtime::ErrorKind::InvalidInput, "protocol",
              detail);
}

void
Frontend::Call::send(const report::Json &frame)
{
    _front.sendFrame(_conn, frame);
    if (_sent)
        return;
    _sent = true;
    if (obs::Histogram *h = _front.verbMetrics(req.kind).firstFrameUs)
        h->observe(sinceUs(_t0));
    _front.logEvent("request.first_frame", [&](report::Json &f) {
        f["rid"] = rid;
        f["dur_us"] = sinceUs(_t0);
    });
}

void
Frontend::Call::dispatched(size_t cells)
{
    if (obs::Histogram *h = _front.verbMetrics(req.kind).dispatchUs)
        h->observe(sinceUs(_t0));
    _front.logEvent("request.dispatch", [&](report::Json &f) {
        f["rid"] = rid;
        f["cells"] = uint64_t(cells);
        f["dur_us"] = sinceUs(_t0);
    });
}

bool
Frontend::cancelById(const std::string &id)
{
    std::shared_ptr<Call> call;
    {
        std::lock_guard<std::mutex> lock(_callsMu);
        auto it = _calls.find(id);
        if (it == _calls.end())
            return false;
        call = it->second;
    }
    call->token.requestCancel();
    cancel(*call);
    return true;
}

void
Frontend::answerInline(Conn &conn, const Request &req,
                       const std::string &rid, Clock::time_point t0)
{
    bool found = false;
    if (req.kind == RequestKind::Cancel) {
        found = cancelById(req.target);
        sendFrame(conn, cancelResultFrame(req.id, req.target, found));
    } else {
        // The verb counter is already incremented, so the snapshot
        // counts this request — deterministic for byte-exact test
        // assertions.
        sendFrame(conn,
                  req.statsFormat == StatsFormat::Prometheus
                      ? statsResultFramePrometheus(
                            req.id, _metrics.toPrometheus())
                      : statsResultFrame(req.id, _metrics.toJson()));
    }
    verbMetrics(req.kind).doneUs->observe(sinceUs(t0));
    logEvent("request.done", [&](report::Json &f) {
        f["rid"] = rid;
        if (req.kind == RequestKind::Cancel) {
            f["target"] = req.target;
            f["found"] = found;
        }
        f["dur_us"] = sinceUs(t0);
    });
}

void
Frontend::runCall(Conn &conn, Call &call)
{
    const std::string &id = call.req.id;
    try {
        execute(call);
        verbMetrics(call.req.kind).doneUs->observe(sinceUs(call._t0));
        logEvent("request.done", [&](report::Json &f) {
            f["rid"] = call.rid;
            for (const auto &[k, v] : call.done.members())
                f[k] = v;
            f["dur_us"] = sinceUs(call._t0);
        });
    } catch (const std::exception &e) {
        const auto *se = dynamic_cast<const runtime::StageError *>(&e);
        logEvent("request.error", [&](report::Json &f) {
            f["rid"] = call.rid;
            f["error_kind"] =
                se ? runtime::errorKindId(se->info().kind) : "internal";
        });
        try {
            if (se)
                sendFrame(conn, errorFrame(id, se->info()));
            else
                sendError(conn, id, runtime::ErrorKind::Internal,
                          _internalStage, e.what());
        } catch (...) {
            // Write end is gone; nothing left to report to.
        }
    }
    {
        std::lock_guard<std::mutex> lock(_callsMu);
        _calls.erase(id);
    }
    _requestsInflight->add(-1);
    conn.active.fetch_sub(1);
}

void
Frontend::serveConnection(Transport &t)
{
    Conn conn{t, _connSeq.fetch_add(1) + 1};
    _connAccepted->inc();
    logEvent("conn.open", [&](report::Json &f) { f["conn"] = conn.id; });

    ThreadSet requests;
    while (true) {
        FrameResult fr = readFrame(t, _cfg.maxFrame);
        Clock::time_point t0 = Clock::now();
        if (fr.status == FrameStatus::Eof)
            break;
        if (fr.status == FrameStatus::Truncated) {
            _framesTruncated->inc();
            // The peer still gets a structured reply before the
            // (already half-closed) connection winds down.
            try {
                frameError(conn, "truncated",
                           "truncated frame: stream ended inside a "
                           "frame");
            } catch (...) {
            }
            break;
        }
        if (fr.status == FrameStatus::Oversize) {
            _framesOversize->inc();
            frameError(conn, "oversize",
                       "frame length " + std::to_string(fr.declared) +
                           " exceeds maximum " +
                           std::to_string(_cfg.maxFrame),
                       fr.declared);
            continue;
        }
        _framesIn->inc();

        Request req;
        try {
            req = parseRequest(fr.payload, _cfg.defaults);
        } catch (const runtime::StageError &e) {
            _reqMalformed->inc();
            logEvent("frame.error", [&](report::Json &f) {
                f["conn"] = conn.id;
                f["kind"] = "malformed";
            });
            sendFrame(conn, errorFrame(extractRequestId(fr.payload),
                                       e.info()));
            continue;
        }

        // The RequestId: minted per well-formed frame, in arrival
        // order, before any handling — so per-verb counters are
        // deterministic with respect to a later stats snapshot on
        // the same connection.
        std::string rid =
            "r" + std::to_string(_reqSeq.fetch_add(1) + 1);
        verbMetrics(req.kind).requests->inc();
        logEvent("request.start", [&](report::Json &f) {
            f["conn"] = conn.id;
            f["rid"] = rid;
            f["req"] = req.id;
            f["verb"] = verbName(req.kind);
            if (!req.specs.empty())
                f["cells"] = uint64_t(req.specs.size());
        });

        if (req.kind == RequestKind::Cancel ||
            req.kind == RequestKind::Stats) {
            answerInline(conn, req, rid, t0);
            continue;
        }

        // Backpressure: refuse (never drop) pooled requests past the
        // per-connection bound. `active` only moves on this thread or
        // downward in runCall, so a peer that waits for terminal
        // frames is never spuriously refused.
        unsigned active = conn.active.load();
        if (_cfg.maxInflight && active >= _cfg.maxInflight) {
            _reqBusy->inc();
            logEvent("request.busy", [&](report::Json &f) {
                f["rid"] = rid;
                f["inflight"] = uint64_t(active);
            });
            sendError(conn, req.id, runtime::ErrorKind::Busy, "server",
                      "connection has " + std::to_string(active) +
                          " requests in flight (bound " +
                          std::to_string(_cfg.maxInflight) +
                          "); retry after a terminal frame");
            continue;
        }

        // Register before spawning: a cancel frame that follows this
        // one on the wire is guaranteed to see the id.
        auto call = std::make_shared<Call>(*this, conn, std::move(req),
                                           std::move(rid), t0);
        bool fresh;
        {
            std::lock_guard<std::mutex> lock(_callsMu);
            fresh = _calls.emplace(call->req.id, call).second;
        }
        if (!fresh) {
            sendError(conn, call->req.id,
                      runtime::ErrorKind::InvalidInput, "protocol",
                      "duplicate request id: \"" + call->req.id +
                          "\" is already in flight");
            continue;
        }
        _requestsInflight->add(1);
        conn.active.fetch_add(1);
        requests.spawn([this, &conn, call] { runCall(conn, *call); });
    }
    requests.joinAll();

    _connClosed->inc();
    logEvent("conn.close", [&](report::Json &f) { f["conn"] = conn.id; });
}

int
Frontend::serveListener(int listen_fd)
{
    return _accept.run(listen_fd, [this](int c) {
        FdTransport t(c, c);
        try {
            serveConnection(t);
        } catch (const std::exception &e) {
            _connErrors->inc();
            std::fprintf(stderr, "%s: connection error: %s\n",
                         _program.c_str(), e.what());
        }
        ::close(c);
    });
}

int
Frontend::serveUnix(const std::string &path)
{
    int fd = bindUnix(path, _program.c_str());
    if (fd < 0)
        return 1;
    int rc = serveListener(fd);
    ::unlink(path.c_str());
    return rc;
}

int
Frontend::serveTcp(uint16_t port)
{
    int fd = bindTcp(port, _program.c_str());
    if (fd < 0)
        return 1;
    return serveListener(fd);
}

void
Frontend::requestStop()
{
    _accept.requestStop();
}

} // namespace serve
} // namespace msc
