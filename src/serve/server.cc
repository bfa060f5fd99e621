#include "serve/server.h"

#include <vector>

#include "obs/perfetto.h"
#include "obs/taskprof.h"
#include "obs/tracesink.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** The frontend's registry/logger are injected into the dispatcher
 *  config before the dispatcher is constructed. */
Dispatcher::Config
withTelemetry(Dispatcher::Config cfg, obs::MetricsRegistry *metrics,
              obs::JsonLogger *log)
{
    cfg.metrics = metrics;
    cfg.log = log;
    return cfg;
}

} // anonymous namespace

Server::Server(ServerConfig cfg)
    : Frontend(cfg, "mscd", "mscd", "protocol"),
      _dispatch(withTelemetry(std::move(cfg.dispatch), &metrics(),
                              &log()))
{
}

void
Server::execute(Call &call)
{
    const Request &req = call.req;
    if (req.kind == RequestKind::Trace) {
        runTrace(call);
        call.done["status"] = "ok";
        return;
    }

    std::vector<std::shared_future<report::RunRecord>> futs;
    futs.reserve(req.specs.size());
    for (const auto &spec : req.specs)
        futs.push_back(_dispatch.submit(spec, &call.token, call.rid));
    call.dispatched(futs.size());

    // Stream cells in input order (the same order msctool sweep
    // prints and serializes) regardless of completion order, so
    // responses are deterministic for any worker count.
    std::vector<report::RunRecord> records;
    records.reserve(futs.size());
    for (size_t i = 0; i < futs.size(); ++i) {
        report::RunRecord rec = futs[i].get();
        call.send(cellFrame(req.id, i, futs.size(),
                            report::runToJson(rec)));
        records.push_back(std::move(rec));
    }
    // One consistent capture for the summary counters — not two
    // sequential reads racing concurrent requests.
    ServiceSnapshot snap = _dispatch.snapshot();
    call.send(summaryFrame(req.id, records, snap.cache,
                           snap.dispatch.dedupHits));
    call.done["status"] =
        report::sweepStatusName(report::sweepExitCode(records));
    call.done["cells"] = uint64_t(records.size());
}

void
Server::runTrace(Call &call)
{
    // Trace cells bypass the worker pool and dedup: a sink is a side
    // effect, so pipeline::Session already bypasses the simulate
    // memo for them — coalescing two trace requests would lose one
    // request's event stream.
    report::RunSpec spec = call.req.specs.at(0);
    obs::PerfettoTraceWriter writer(spec.opts.config.numPUs,
                                    spec.workload);
    obs::TaskProfiler prof;
    obs::TeeSink tee({&writer, &prof});
    spec.opts.sink = &tee;
    spec.opts.cancel = &call.token;

    auto session =
        _dispatch.pool().session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
    pipeline::StageResults res = session->runAll(spec.opts);
    report::RunRecord rec = report::recordFromResults(spec, res);
    rec.spec.opts.sink = nullptr;
    rec.spec.opts.cancel = nullptr;

    report::Json trace;
    if (call.req.includeTrace)
        trace = writer.toJson();
    call.send(traceResultFrame(
        call.req.id, report::runToJson(rec),
        obs::taskProfileToJson(prof, res.partition->partition,
                               spec.workload),
        std::move(trace)));
}

} // namespace serve
} // namespace msc
