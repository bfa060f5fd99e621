#include "obs/perfetto.h"

#include "report/json.h"

namespace msc {
namespace obs {

using report::Json;

namespace {

Json
makeEvent(const char *name, const char *ph, int pid, int tid,
          uint64_t ts)
{
    Json e = Json::object();
    e["name"] = name;
    e["ph"] = ph;
    e["pid"] = pid;
    e["tid"] = tid;
    e["ts"] = ts;
    return e;
}

Json
metadata(const char *kind, int pid, int tid, const std::string &label)
{
    Json e = makeEvent(kind, "M", pid, tid, 0);
    Json args = Json::object();
    args["name"] = label;
    e["args"] = std::move(args);
    return e;
}

} // anonymous namespace

PerfettoTraceWriter::PerfettoTraceWriter(unsigned num_pus,
                                         const std::string &workload)
    : _events(Json::array()), _numPUs(num_pus)
{
    // Metadata first so viewers label tracks before any data event.
    std::string proc = "timing sim (cycles)";
    if (!workload.empty())
        proc += " - " + workload;
    _events.push(metadata("process_name", PID_SIM, 0, proc));
    for (unsigned pu = 0; pu < num_pus; ++pu)
        _events.push(metadata("thread_name", PID_SIM, int(pu),
                              "PU " + std::to_string(pu)));
}

void
PerfettoTraceWriter::span(const char *name, unsigned pu, uint64_t start,
                          uint64_t end, const CommitEvent *detail)
{
    Json e = makeEvent(name, "X", PID_SIM, int(pu), start);
    e["dur"] = end - start;
    if (detail) {
        Json args = Json::object();
        args["task"] = detail->staticTask;
        args["dyn"] = detail->dynIdx;
        args["insts"] = detail->insts;
        e["args"] = std::move(args);
    }
    _events.push(std::move(e));
}

void
PerfettoTraceWriter::taskCommitted(const CommitEvent &e)
{
    span("dispatch", e.pu, e.assignCycle, e.fetchStart, &e);
    {
        Json x = makeEvent("execute", "X", PID_SIM, int(e.pu),
                           e.fetchStart);
        x["dur"] = e.completionCycle - e.fetchStart;
        Json args = Json::object();
        args["task"] = e.staticTask;
        args["dyn"] = e.dynIdx;
        args["insts"] = e.insts;
        // The execute-span attribution, so hovering a span shows the
        // same Figure 2 breakdown the aggregate stats report.
        for (arch::CycleKind k : {arch::CycleKind::Useful,
                                  arch::CycleKind::InterTaskComm,
                                  arch::CycleKind::IntraTaskDep,
                                  arch::CycleKind::FetchStall})
            args[arch::cycleKindId(k)] = e.buckets.counts[size_t(k)];
        x["args"] = std::move(args);
        _events.push(std::move(x));
    }
    span("wait-retire", e.pu, e.completionCycle, e.retireStart, &e);
    span("commit", e.pu, e.retireStart, e.retireEnd, &e);
}

void
PerfettoTraceWriter::taskSquashed(const SquashEvent &e)
{
    const char *name = e.kind == arch::CycleKind::MemSquash
        ? "mem-squash" : "ctrl-squash";
    Json x = makeEvent(name, "X", PID_SIM, int(e.pu), e.assignCycle);
    x["dur"] = e.penaltyCycles;
    Json args = Json::object();
    if (!e.bogus) {
        args["task"] = e.staticTask;
        args["dyn"] = e.dynIdx;
    }
    args["bogus"] = e.bogus;
    x["args"] = std::move(args);
    _events.push(std::move(x));
}

void
PerfettoTraceWriter::instant(InstantKind k, unsigned pu, uint64_t cycle)
{
    Json e = makeEvent(instantKindName(k), "i", PID_SIM, int(pu), cycle);
    e["s"] = "t";  // Thread-scoped marker.
    _events.push(std::move(e));
}

void
PerfettoTraceWriter::counters(const CounterEvent &e)
{
    // Counters are change-driven: skip samples equal to the previous
    // value so trace size stays proportional to activity, not cycles.
    if (!_haveCounter || e.inFlightTasks != _lastInFlight) {
        Json c = makeEvent("in-flight tasks", "C", PID_SIM, 0, e.cycle);
        Json args = Json::object();
        args["tasks"] = e.inFlightTasks;
        c["args"] = std::move(args);
        _events.push(std::move(c));
        _lastInFlight = e.inFlightTasks;
    }
    if (!_haveCounter || e.windowSpanInsts != _lastSpanInsts) {
        Json c = makeEvent("window span (insts)", "C", PID_SIM, 0,
                           e.cycle);
        Json args = Json::object();
        args["insts"] = e.windowSpanInsts;
        c["args"] = std::move(args);
        _events.push(std::move(c));
        _lastSpanInsts = e.windowSpanInsts;
    }
    _haveCounter = true;
}

void
PerfettoTraceWriter::simEnd(uint64_t final_cycle)
{
    // Close both counter tracks at zero so the viewer does not extend
    // the last value past the end of simulation.
    counters(CounterEvent{final_cycle, 0, 0});
}

void
PerfettoTraceWriter::addPhaseSpans(const PhaseTimes &pt)
{
    _events.push(metadata("process_name", PID_PIPELINE, 0,
                          "pipeline (wall clock)"));
    double at = 0;
    for (size_t i = 0; i < NUM_PIPELINE_PHASES; ++i) {
        Json e = Json::object();
        e["name"] = pipelinePhaseName(PipelinePhase(i));
        e["ph"] = "X";
        e["pid"] = PID_PIPELINE;
        e["tid"] = 0;
        e["ts"] = at;
        e["dur"] = pt.micros[i];
        _events.push(std::move(e));
        at += pt.micros[i];
    }
}

Json
PerfettoTraceWriter::toJson() const
{
    Json doc = Json::object();
    doc["displayTimeUnit"] = "ms";
    doc["traceEvents"] = _events;
    return doc;
}

std::string
PerfettoTraceWriter::str() const
{
    return toJson().dump();
}

void
PerfettoTraceWriter::write(const std::string &path) const
{
    report::writeFile(path, str());
}

} // namespace obs
} // namespace msc
