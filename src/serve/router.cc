#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "client/client.h"
#include "serve/dispatch.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** `obj[key]` as a uint, 0 when absent/mistyped (counters from a
 *  peer's summary frame; lenient like the client decode). */
uint64_t
jsonUInt(const report::Json &obj, const char *key)
{
    const report::Json *v = obj.find(key);
    if (!v || v->kind() != report::Json::Kind::Int)
        return 0;
    return v->asUInt();
}

} // anonymous namespace

/** What one forwarded request resolved to (set exactly once, by the
 *  link's reader thread or its death). */
struct CellOutcome
{
    bool ok = false;

    /** run/sweep cells: the shard's `run` object, verbatim. */
    report::Json run;

    /** trace: the shard's raw terminal result frame. */
    report::Json result;

    /** !ok: why (shard error frame, or link loss). */
    runtime::StageErrorInfo error;
};

/**
 * One downstream shard: lazy connection with retry/backoff, a demux
 * reader thread resolving forwarded requests by id, and latest-known
 * summary counters. All state is guarded by _mu; the reader holds it
 * only per frame, so a stalled shard never blocks forwarding to
 * others (each link has its own lock).
 */
class Router::ShardLink
{
  public:
    ShardLink(unsigned index, client::Endpoint ep,
              const RouterConfig &cfg, obs::MetricsRegistry &metrics,
              obs::JsonLogger &log)
        : _index(index), _ep(std::move(ep)), _cfg(cfg), _log(log)
    {
        std::string base =
            "router.shard." + std::to_string(index) + ".";
        _cells = &metrics.counter(base + "cells");
        _downs = &metrics.counter(base + "down");
        _connects = &metrics.counter(base + "connects");
    }

    ~ShardLink()
    {
        std::vector<std::thread> readers;
        {
            std::lock_guard<std::mutex> lock(_mu);
            _closing = true;
            markDownLocked(_gen, "router shutting down");
            readers.swap(_readers);
        }
        for (auto &th : readers)
            th.join();
    }

    /** Sends one single-cell request; the future resolves when its
     *  terminal frame arrives or the link dies. Throws
     *  runtime::StageError (ErrorKind::Io) when the shard cannot be
     *  reached (connect retry with backoff exhausted). */
    std::future<CellOutcome>
    forward(const std::string &cell_id, const std::string &payload,
            const Call *owner)
    {
        std::lock_guard<std::mutex> lock(_mu);
        ensureConnectedLocked();
        auto pc = std::make_shared<Pending>();
        pc->owner = owner;
        std::future<CellOutcome> fut = pc->prom.get_future();
        _pending.emplace(cell_id, pc);
        try {
            writeFrame(*_transport, payload);
        } catch (...) {
            _pending.erase(cell_id);
            markDownLocked(_gen, "write to shard failed");
            throw unreachable("write failed");
        }
        _cells->inc();
        return fut;
    }

    /** Ids of @p owner's cells still awaiting their terminal frame. */
    std::vector<std::string>
    pendingOf(const Call *owner) const
    {
        std::lock_guard<std::mutex> lock(_mu);
        std::vector<std::string> ids;
        for (const auto &[id, pc] : _pending)
            if (pc->owner == owner)
                ids.push_back(id);
        return ids;
    }

    /** Best-effort cancel relay for a cell in flight on this shard
     *  (responses to @p cancel_id are demuxed and dropped). */
    void
    sendCancel(const std::string &cancel_id, const std::string &target)
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_fd < 0)
            return;
        std::string payload =
            client::RequestBuilder::cancel(cancel_id, target)
                .payload();
        try {
            writeFrame(*_transport, payload);
        } catch (...) {
            markDownLocked(_gen, "write to shard failed");
        }
    }

    /** Latest summary counters seen from this shard (cumulative on
     *  the shard's side; the router aggregates the latest values). */
    void
    counters(uint64_t &computed, uint64_t &hits, uint64_t &disk_hits,
             uint64_t &dedup) const
    {
        std::lock_guard<std::mutex> lock(_mu);
        computed = _computed;
        hits = _hits;
        disk_hits = _diskHits;
        dedup = _dedup;
    }

    const client::Endpoint &endpoint() const { return _ep; }

  private:
    struct Pending
    {
        const Call *owner = nullptr;  ///< The client request it serves.
        std::promise<CellOutcome> prom;
        report::Json run;
        bool haveRun = false;
    };

    runtime::StageError
    unreachable(const std::string &why) const
    {
        return runtime::StageError(
            runtime::ErrorKind::Io, "router",
            "shard " + std::to_string(_index) + " (" +
                client::formatEndpoint(_ep) + "): " + why);
    }

    void
    ensureConnectedLocked()
    {
        if (_fd >= 0)
            return;
        if (_closing)
            throw unreachable("router shutting down");
        unsigned attempts =
            _failFast ? 1 : std::max(1u, _cfg.connectAttempts);
        for (unsigned a = 1; a <= attempts; ++a) {
            try {
                int fd = client::connectEndpoint(_ep);
                _fd = fd;
                _transport =
                    std::make_unique<FdTransport>(fd, fd);
                ++_gen;
                _failFast = false;
                _connects->inc();
                if (_log.enabled()) {
                    report::Json f = report::Json::object();
                    f["shard"] = uint64_t(_index);
                    f["endpoint"] = client::formatEndpoint(_ep);
                    _log.event("shard.connect", std::move(f));
                }
                uint64_t gen = _gen;
                _readers.emplace_back(
                    [this, fd, gen] { readerLoop(fd, gen); });
                return;
            } catch (const runtime::StageError &) {
                if (a < attempts)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            a * _cfg.connectBackoffMs));
            }
        }
        // A fully failed round: later cells probe once instead of
        // re-paying the whole backoff ladder per cell.
        _failFast = true;
        throw unreachable("unreachable after " +
                          std::to_string(attempts) +
                          " connect attempts");
    }

    /** Fails every pending cell and retires generation @p gen. A
     *  stale generation (reconnect already happened) is a no-op, so
     *  an old reader's exit can never kill a fresh connection. */
    void
    markDownLocked(uint64_t gen, const std::string &why)
    {
        if (gen != _gen || _fd < 0)
            return;
        // Wake the reader blocked in readFrame; the reader owns the
        // actual close (it may be mid-read on this very fd).
        ::shutdown(_fd, SHUT_RDWR);
        _fd = -1;
        _transport.reset();
        if (!_pending.empty()) {
            _downs->inc();
            if (_log.enabled()) {
                report::Json f = report::Json::object();
                f["shard"] = uint64_t(_index);
                f["pending"] = uint64_t(_pending.size());
                f["why"] = why;
                _log.event("shard.down", std::move(f));
            }
        }
        for (auto &[id, pc] : _pending) {
            CellOutcome out;
            out.ok = false;
            out.error = unreachable("connection lost (" + why + ")")
                            .info();
            pc->prom.set_value(std::move(out));
        }
        _pending.clear();
    }

    void
    readerLoop(int fd, uint64_t gen)
    {
        FdTransport t(fd, fd);
        for (;;) {
            FrameResult fr;
            try {
                fr = readFrame(t);
            } catch (const std::exception &) {
                break;  // ECONNRESET etc: same as stream end
            }
            if (fr.status != FrameStatus::Ok)
                break;
            client::ResponseFrame f;
            try {
                f = client::parseResponseFrame(fr.payload);
            } catch (const std::exception &) {
                continue;  // unintelligible frame from a shard: skip
            }
            std::lock_guard<std::mutex> lock(_mu);
            auto it = _pending.find(f.id);
            if (it == _pending.end())
                continue;  // e.g. a relayed cancel's result frame
            std::shared_ptr<Pending> pc = it->second;
            CellOutcome out;
            switch (f.type) {
              case client::ResponseFrame::Type::Cell:
                pc->run = std::move(f.run);
                pc->haveRun = true;
                continue;  // terminal frame still to come
              case client::ResponseFrame::Type::Summary: {
                const report::Json *cache = f.raw.find("cache");
                if (cache) {
                    _computed = jsonUInt(*cache, "computed");
                    _hits = jsonUInt(*cache, "hits");
                    _diskHits = jsonUInt(*cache, "disk_hits");
                }
                _dedup = jsonUInt(f.raw, "dedup_hits");
                if (pc->haveRun) {
                    out.ok = true;
                    out.run = std::move(pc->run);
                } else {
                    out.error.kind = runtime::ErrorKind::Internal;
                    out.error.stage = "router";
                    out.error.detail =
                        "shard sent a summary without a cell frame";
                }
                break;
              }
              case client::ResponseFrame::Type::Result:
                out.ok = true;
                out.result = std::move(f.raw);
                break;
              case client::ResponseFrame::Type::Error:
                out.error = f.error;
                break;
            }
            _pending.erase(it);
            pc->prom.set_value(std::move(out));
        }
        ::close(fd);
        std::lock_guard<std::mutex> lock(_mu);
        markDownLocked(gen, "stream ended");
    }

    const unsigned _index;
    const client::Endpoint _ep;
    const RouterConfig &_cfg;
    obs::JsonLogger &_log;

    obs::Counter *_cells = nullptr;
    obs::Counter *_downs = nullptr;
    obs::Counter *_connects = nullptr;

    mutable std::mutex _mu;
    int _fd = -1;
    std::unique_ptr<FdTransport> _transport;
    uint64_t _gen = 0;
    bool _failFast = false;
    bool _closing = false;
    std::map<std::string, std::shared_ptr<Pending>> _pending;
    std::vector<std::thread> _readers;

    uint64_t _computed = 0;
    uint64_t _hits = 0;
    uint64_t _diskHits = 0;
    uint64_t _dedup = 0;
};

Router::Router(RouterConfig cfg)
    : Frontend(cfg, "router", "mscd-router", "router"),
      _cfg(std::move(cfg))
{
    obs::MetricsRegistry &m = metrics();
    _cellsForwarded = &m.counter("router.cells.forwarded");
    _cellsFailed = &m.counter("router.cells.failed");
    _cancelsForwarded = &m.counter("router.cancels.forwarded");
    for (size_t i = 0; i < _cfg.shards.size(); ++i)
        _links.push_back(std::make_unique<ShardLink>(
            unsigned(i), _cfg.shards[i], _cfg, m, log()));
}

Router::~Router() = default;

std::string
Router::nextId(char tag)
{
    return tag + std::to_string(_cellSeq.fetch_add(1) + 1);
}

unsigned
Router::shardOf(const report::RunSpec &spec)
{
    unsigned n = unsigned(_links.size());
    try {
        auto session =
            _keys.session(report::sessionKey(spec), [&] {
                return workloads::buildWorkload(spec.workload,
                                                spec.scale);
            });
        uint64_t key = session->stageKey(
            pipeline::StageKind::Simulate, spec.opts);
        return unsigned(key % n);
    } catch (...) {
        // No program, no content key (unknown workload): any shard
        // produces the identical error record, so a stable name hash
        // just spreads the load.
        return unsigned(std::hash<std::string>{}(spec.workload) % n);
    }
}

namespace {

/** Re-serializes a parsed spec as the single-cell `run`/`trace`
 *  request reproducing it verbatim on a shard: parseRequest rebuilds
 *  the identical RunSpec (same makeSpec arguments), so the shard's
 *  run object is byte-identical to a direct daemon's. The budget is
 *  propagated exactly — zeros included — so shard-side defaults never
 *  alter a routed cell's outcome. */
client::RequestBuilder
forwardRequest(const report::RunSpec &spec, const std::string &cell_id,
               bool trace, bool include_trace)
{
    client::RequestBuilder b =
        trace ? client::RequestBuilder::trace(cell_id, spec.workload)
              : client::RequestBuilder::run(cell_id, spec.workload);
    b.strategy(report::strategyId(spec.opts.sel.strategy))
        .pusCount(spec.opts.config.numPUs)
        .smallScale(spec.scale == workloads::Scale::Small)
        .insts(spec.opts.trace.traceInsts)
        .targets(spec.opts.sel.maxTargets)
        .inOrder(!spec.opts.config.outOfOrder)
        .sizeHeuristic(spec.opts.sel.taskSizeHeuristic)
        .core(arch::coreModeName(spec.opts.config.coreMode))
        .budgetExact(spec.opts.budget);
    if (trace)
        b.includeTrace(include_trace);
    return b;
}

} // anonymous namespace

std::future<CellOutcome>
Router::forwardCell(Call &call, unsigned shard, const std::string &cell_id,
                    const std::string &payload)
{
    std::future<CellOutcome> fut =
        _links[shard]->forward(cell_id, payload, &call);
    _cellsForwarded->inc();
    if (call.token.cancelled()) {
        _links[shard]->sendCancel(nextId('x'), cell_id);
        _cancelsForwarded->inc();
    }
    return fut;
}

void
Router::runForward(Call &call)
{
    struct Slot
    {
        unsigned shard = 0;
        std::future<CellOutcome> fut;
        bool forwarded = false;
        report::Json localRun;  // non-null: resolved without a shard
    };

    const Request &req = call.req;
    size_t n = req.specs.size();
    std::vector<Slot> slots(n);

    // Fan out first, collect second: cells pipeline on their shards
    // concurrently (each is an independent single-cell request; the
    // shard's own dispatcher pools and dedups them).
    for (size_t i = 0; i < n; ++i) {
        const report::RunSpec &spec = req.specs[i];
        Slot &s = slots[i];
        s.shard = shardOf(spec);
        if (call.token.cancelled()) {
            s.localRun = report::runToJson(errorRecord(
                spec, std::make_exception_ptr(runtime::StageError(
                          runtime::ErrorKind::Cancelled, "router",
                          "request cancelled before dispatch"))));
            continue;
        }
        std::string cellId = nextId('c');
        std::string payload =
            forwardRequest(spec, cellId, false, false).payload();
        try {
            s.fut = forwardCell(call, s.shard, cellId, payload);
            s.forwarded = true;
        } catch (const runtime::StageError &e) {
            _cellsFailed->inc();
            s.localRun = report::runToJson(
                errorRecord(spec, std::make_exception_ptr(e)));
        }
    }
    call.dispatched(n);

    // Stream in grid order regardless of completion order — the same
    // determinism contract as the single daemon.
    std::vector<std::string> statuses;
    statuses.reserve(n);
    std::vector<uint64_t> shardCells(_links.size(), 0);
    for (size_t i = 0; i < n; ++i) {
        Slot &s = slots[i];
        report::Json run;
        if (!s.forwarded) {
            run = std::move(s.localRun);
        } else {
            CellOutcome out = s.fut.get();
            if (out.ok) {
                run = std::move(out.run);
            } else {
                _cellsFailed->inc();
                run = report::runToJson(errorRecord(
                    req.specs[i],
                    std::make_exception_ptr(
                        runtime::StageError(out.error))));
            }
        }
        const report::Json *status = run.find("status");
        statuses.push_back(
            status && status->kind() == report::Json::Kind::String
                ? status->asString()
                : std::string("error"));
        shardCells[s.shard] += 1;
        call.send(cellFrame(req.id, i, n, std::move(run),
                            int(s.shard)));
    }

    uint64_t computed = 0, hits = 0, disk = 0, dedup = 0;
    for (const auto &link : _links) {
        uint64_t c, h, d, dd;
        link->counters(c, h, d, dd);
        computed += c;
        hits += h;
        disk += d;
        dedup += dd;
    }
    report::Json cache = report::Json::object();
    cache["computed"] = computed;
    cache["hits"] = hits;
    cache["disk_hits"] = disk;
    call.send(routedSummaryFrame(req.id, statuses, cache, dedup,
                                 shardCells));
    size_t failed = 0;
    for (const auto &st : statuses)
        failed += st != "ok";
    call.done["cells"] = uint64_t(n);
    call.done["failed"] = uint64_t(failed);
}

void
Router::runTraceForward(Call &call)
{
    const report::RunSpec &spec = call.req.specs.at(0);
    unsigned shard = shardOf(spec);
    std::string cellId = nextId('c');
    std::string payload =
        forwardRequest(spec, cellId, true, call.req.includeTrace)
            .payload();

    CellOutcome out;
    try {
        out = forwardCell(call, shard, cellId, payload).get();
    } catch (const runtime::StageError &) {
        _cellsFailed->inc();
        throw;
    }
    if (!out.ok) {
        _cellsFailed->inc();
        throw runtime::StageError(out.error);
    }
    // Relay the shard's result frame verbatim under the client's id.
    out.result["id"] = call.req.id;
    call.send(out.result);
}

void
Router::execute(Call &call)
{
    if (call.req.kind == RequestKind::Trace)
        runTraceForward(call);
    else
        runForward(call);
}

void
Router::cancel(Call &call)
{
    for (const auto &link : _links) {
        for (const std::string &cellId : link->pendingOf(&call)) {
            link->sendCancel(nextId('x'), cellId);
            _cancelsForwarded->inc();
        }
    }
}

} // namespace serve
} // namespace msc
