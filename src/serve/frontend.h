/**
 * @file
 * The one client-facing connection loop of mscd, shared by the single
 * daemon (serve::Server) and the shard-mode router (serve::Router).
 *
 * A Frontend owns everything about serving the protocol that does not
 * depend on where the work runs:
 *
 *  - connections: a reader loop per connection, the connection's
 *    write lock (frames from concurrent requests interleave only at
 *    frame granularity), lifecycle logs, and framing errors — a
 *    truncated, oversize or malformed frame gets exactly one `error`
 *    frame, counted and logged as `frame.error` (frame.h has the
 *    resync rules);
 *  - requests: a RequestId (`rid`) minted per well-formed frame in
 *    arrival order, per-verb counters and latency histograms, inline
 *    `cancel` and `stats` on the reader thread (cancel so it can reach
 *    a request in flight on the same connection, stats so a telemetry
 *    probe never queues behind the work it observes), the
 *    `--max-inflight` busy refusal, the process-wide registry of
 *    in-flight request ids (duplicate rejection and each request's
 *    CancelToken), one thread per pooled request, and the conversion
 *    of an escaping exception into one error frame;
 *  - listeners: serveUnix/serveTcp/requestStop over AcceptLoop.
 *
 * The backend half is two virtual methods. execute() runs one pooled
 * request (`run`/`sweep`/`trace`) and streams its frames through the
 * Call; cancel() is called on the reader thread after a `cancel` verb
 * has set the target's token. Server executes on its local Dispatcher
 * and needs no cancel hook (its workers poll the token); Router fans
 * cells out to shards and relays cancels to them. The two differ only
 * in where work goes, the way each level of a tree of schedulers
 * shares one message core (Myrmics, PAPERS.md). The backend's metric
 * prefix (`mscd`, `router`) names every instrument the frontend
 * registers (docs/OBSERVABILITY.md).
 *
 * Request and connection threads live in ThreadSets (listen.h) and are
 * joined as they finish, so thread stacks are bounded by the work in
 * flight, not by the number of requests a connection has carried.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "obs/slog.h"
#include "runtime/budget.h"
#include "serve/frame.h"
#include "serve/listen.h"
#include "serve/protocol.h"

namespace msc {
namespace serve {

/** What every frontend is configured with; ServerConfig and
 *  RouterConfig extend it. */
struct FrontendConfig
{
    /** Per-request defaults (budget) merged during parsing. */
    RequestDefaults defaults;

    /** Inbound frame-size cap. */
    uint32_t maxFrame = DEFAULT_MAX_FRAME;

    /** Connection-level backpressure: maximum pooled requests
     *  (run/sweep/trace) in flight per connection. A request past the
     *  bound is refused with a structured `busy` error frame — the
     *  connection stays usable and no frame is lost. Inline verbs
     *  (cancel/stats) are exempt, so a saturated peer can still
     *  cancel or observe. 0 = unlimited (`mscd --max-inflight`). */
    unsigned maxInflight = 0;

    /** Emit one structured JSON log line per request lifecycle event
     *  on stderr (`mscd --log-json`; docs/OBSERVABILITY.md). */
    bool logJson = false;
};

class Frontend
{
  public:
    class Call;

    virtual ~Frontend() = default;

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /** Serves one connection until end-of-stream; blocking. Safe to
     *  call from multiple threads (one per connection). */
    void serveConnection(Transport &t);

    /** Binds @p path (replacing any stale socket file), accepts
     *  connections until requestStop(), then unlinks the socket.
     *  Returns 0 on clean shutdown, 1 on setup failure (diagnostic
     *  on stderr). */
    int serveUnix(const std::string &path);

    /** Same over TCP on 127.0.0.1:@p port. */
    int serveTcp(uint16_t port);

    /** Stops the accept loop (async-signal-safe: flags + closes the
     *  listening descriptor). In-flight connections finish. */
    void requestStop();

    /** The telemetry registry the `stats` verb snapshots; valid for
     *  the frontend's lifetime. */
    obs::MetricsRegistry &metrics() { return _metrics; }

  protected:
    /** @p prefix names every metric (`mscd`, `router`); @p program
     *  prefixes stderr diagnostics; @p internal_stage is the `stage`
     *  of the error frame an escaping non-StageError exception
     *  becomes. */
    Frontend(FrontendConfig cfg, const char *prefix,
             const char *program, const char *internal_stage);

    /** Runs one pooled request and streams its frames through
     *  @p call. An exception becomes the request's one error frame. */
    virtual void execute(Call &call) = 0;

    /** Relays a `cancel` whose target is @p call (its token is already
     *  set). Runs on the cancelling connection's reader thread. */
    virtual void cancel(Call &) {}

    obs::JsonLogger &log() { return _log; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Conn;

    /** Pre-registered per-verb instruments (the hot path never takes
     *  the registry mutex). Null members = not meaningful for the
     *  verb (e.g. dispatch latency for inline verbs). */
    struct VerbMetrics
    {
        obs::Counter *requests = nullptr;
        obs::Histogram *dispatchUs = nullptr;
        obs::Histogram *firstFrameUs = nullptr;
        obs::Histogram *doneUs = nullptr;
    };

    VerbMetrics &verbMetrics(RequestKind k) { return _verb[size_t(k)]; }

    /** Logs @p ev with the fields @p fill adds; builds nothing when
     *  logging is off. */
    template <class Fill>
    void
    logEvent(const char *ev, Fill fill)
    {
        if (!_log.enabled())
            return;
        report::Json f = report::Json::object();
        fill(f);
        _log.event(ev, std::move(f));
    }

    void sendFrame(Conn &conn, const report::Json &frame);
    void sendError(Conn &conn, const std::string &id,
                   runtime::ErrorKind kind, const std::string &stage,
                   const std::string &detail);
    void frameError(Conn &conn, const char *kind,
                    const std::string &detail, uint32_t declared = 0);
    void answerInline(Conn &conn, const Request &req,
                      const std::string &rid, Clock::time_point t0);
    bool cancelById(const std::string &id);
    void runCall(Conn &conn, Call &call);
    int serveListener(int listen_fd);

    /** Microseconds from @p t0 to now (histogram fodder). */
    static uint64_t sinceUs(Clock::time_point t0);

    const FrontendConfig _cfg;
    const std::string _program;
    const std::string _internalStage;

    obs::MetricsRegistry _metrics;
    obs::JsonLogger _log;
    VerbMetrics _verb[5];
    obs::Counter *_framesIn = nullptr;
    obs::Counter *_framesOut = nullptr;
    obs::Counter *_framesTruncated = nullptr;
    obs::Counter *_framesOversize = nullptr;
    obs::Counter *_reqMalformed = nullptr;
    obs::Counter *_reqBusy = nullptr;
    obs::Counter *_connAccepted = nullptr;
    obs::Counter *_connClosed = nullptr;
    obs::Counter *_connErrors = nullptr;
    obs::Gauge *_requestsInflight = nullptr;
    std::atomic<uint64_t> _reqSeq{0};
    std::atomic<uint64_t> _connSeq{0};

    /** In-flight pooled requests by client id, across connections. */
    std::mutex _callsMu;
    std::map<std::string, std::shared_ptr<Call>> _calls;

    AcceptLoop _accept;
};

/** One pooled request in flight, as a backend sees it. */
class Frontend::Call
{
  public:
    const Request req;
    const std::string rid;  ///< Server-minted RequestId (logs).

    /** Set by a `cancel` naming req.id; must outlive every cell
     *  computation that polls it (execute() returns only after its
     *  cells resolve). */
    runtime::CancelToken token;

    /** Fields the backend adds to the `request.done` log line. */
    report::Json done = report::Json::object();

    /** Writes one response frame under the connection's write lock;
     *  the first one observes the verb's first-frame latency. */
    void send(const report::Json &frame);

    /** Records that all @p cells were handed off (dispatch latency). */
    void dispatched(size_t cells);

    Call(Frontend &front, Conn &conn, Request r, std::string id,
         Clock::time_point t0)
        : req(std::move(r)), rid(std::move(id)), _front(front),
          _conn(conn), _t0(t0)
    {}

  private:
    friend class Frontend;

    Frontend &_front;
    Conn &_conn;
    const Clock::time_point _t0;
    bool _sent = false;
};

} // namespace serve
} // namespace msc
