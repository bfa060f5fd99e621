/**
 * @file
 * msctool — command-line front end to the whole library. `msctool`
 * with no verb prints every verb's flags, generated from the flag
 * tables below (report::FlagSet).
 *
 *   list     The bundled workloads.
 *   disasm   A program in the textual IR format (parseable back).
 *   exec     Functional execution only; prints the checksum.
 *   run      One cell through the full pipeline: transforms, profile,
 *            partition, simulate.
 *   sweep    A workload × strategy × PU grid (all bundled workloads
 *            when none are named), optionally in parallel, emitting
 *            msc.sweep results (docs/METRICS.md). Grid points share
 *            frontend artifacts through a SessionPool; --cache-dir
 *            persists them across invocations (docs/API.md). Failing
 *            cells are isolated: they print as ERROR rows and
 *            serialize as `status: "error"` objects in a
 *            `partial: true` document (docs/ROBUSTNESS.md). Exit
 *            code: 0 all cells ok, 1 all failed, 3 partial. A grid
 *            holds at most serve::MAX_SWEEP_CELLS (4096) cells, the
 *            daemon's cap.
 *   trace    One cell with task-lifecycle tracing: a
 *            Perfetto/chrome://tracing timeline, a per-static-task
 *            msc.taskprof profile and the hot-tasks table
 *            (docs/TRACING.md). --check re-parses the emitted trace
 *            and verifies the span-vs-SimStats accounting invariant.
 *   fuzz     Differential fuzzing: random programs through three
 *            independent oracles under every selection strategy
 *            (docs/TESTING.md); nonzero exit on any divergence. The
 *            budgets bound each seed's whole differential; exhaustion
 *            records the seed as a `timeout` failure (written to
 *            --corpus-dir as timeout-seed<N>.mir, never shrunk)
 *            instead of hanging the campaign.
 *   stats    A live daemon's telemetry snapshot via the `stats`
 *            protocol verb (docs/OBSERVABILITY.md): a table, the raw
 *            `msc.metrics` document, or Prometheus text.
 *   cancel   Ask a live daemon to cancel the in-flight request with
 *            the given id; prints whether the target was found.
 *   version  The daemon protocol version and the schema versions of
 *            every structured document this build emits.
 *
 * One request, two executors: run, trace and sweep always build the
 * client::RequestBuilder request a daemon would receive. With
 * `--connect` (src/client endpoint grammar, docs/API.md) it is sent
 * to the daemon at that endpoint — which may be a `mscd --router`
 * front-end — and the tool renders the streamed frames; with `stdio`
 * the wire owns this process's stdin/stdout, so rendering moves to
 * stderr. Without `--connect`, serve::parseRequest, the daemon's own
 * parser, resolves the same request into RunSpecs in-process, so
 * local and remote runs accept the same values, reject garbage with
 * the same text and build the same specs. Host-side flags
 * (--cache-dir, --jobs, --csv, --check, --phase-times) and `.mir`
 * files don't travel over the wire and are rejected with --connect.
 *
 * Files with a `.mir` extension are parsed with ir::parseProgram, so
 * hand-written programs work everywhere a workload name does
 * (locally).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/stats.h"
#include "client/client.h"
#include "fuzz/campaign.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/crosscheck.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/phase.h"
#include "obs/taskprof.h"
#include "pipeline/session.h"
#include "profile/interpreter.h"
#include "report/flags.h"
#include "report/record.h"
#include "report/sweep.h"
#include "runtime/budget.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "workloads/workload.h"

using namespace msc;

namespace {

bool
isMirFile(const std::string &spec)
{
    return spec.size() > 4 &&
           spec.compare(spec.size() - 4, 4, ".mir") == 0;
}

ir::Program
loadProgram(const std::string &spec)
{
    if (isMirFile(spec)) {
        std::ifstream in(spec);
        if (!in)
            throw std::runtime_error("cannot open " + spec);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ir::parseProgram(ss.str());
    }
    return workloads::buildWorkload(spec, workloads::Scale::Small);
}

// ---------------------------------------------------------------------------
// Remote execution (--connect): every daemon-facing verb rides the
// src/client API; nothing below hand-rolls sockets or frames.

/** The parsed `--connect ENDPOINT` state of one invocation. */
struct Remote
{
    std::string spec;  ///< Raw endpoint text; empty = run locally.

    void declare(report::FlagSet &f)
    {
        f.flag("--connect", &spec, "EP",
               "daemon endpoint: unix:PATH | tcp:HOST:PORT | tcp:PORT | "
               "stdio");
    }

    bool enabled() const { return !spec.empty(); }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint(spec);
    }

    /** Rendering stream: with a stdio endpoint the wire owns stdout,
     *  so human output moves to stderr. */
    std::FILE *out() const
    {
        return endpoint().kind == client::Endpoint::Kind::Stdio
                   ? stderr
                   : stdout;
    }

    /** Guards host-side flags that cannot travel over the wire. */
    void reject(bool present, const char *what) const
    {
        if (enabled() && present)
            throw std::runtime_error(std::string(what) +
                                     " is host-side; drop it or drop "
                                     "--connect");
    }
};

/** JSON integers on the request wire are int64, so a number that
 *  travels in a request is bounded here and its flag named on error. */
constexpr uint64_t WIRE_MAX = INT64_MAX;

/** The cell flags run, trace and sweep share. Each verb declares its
 *  own strategy and PU axes: one value for run and trace, comma lists
 *  for sweep. */
struct CellArgs
{
    uint64_t insts = 250'000;
    unsigned targets = 4;
    bool inOrder = false;
    bool sizeHeuristic = false;
    std::string core = "event";
    Remote remote;

    void declare(report::FlagSet &f)
    {
        f.flag("--targets", &targets, "N",
               "exposed task targets N (default 4)");
        f.flag("--insts", &insts, "N",
               "timing-trace instructions (default " +
                   std::to_string(insts) + ")",
               WIRE_MAX);
        f.flag("--in-order", &inOrder,
               "in-order PUs (default out-of-order)");
        f.flag("--size", &sizeHeuristic, "task-size heuristic");
        f.flag("--core", &core, "cycle|event",
               "simulator core (default event; results are identical)");
        remote.declare(f);
    }

    /** Sets every shared field of @p req. */
    void apply(client::RequestBuilder &req) const
    {
        req.insts(insts)
            .targets(targets)
            .inOrder(inOrder)
            .sizeHeuristic(sizeHeuristic)
            .core(core);
    }
};

/** The single-cell axes of run and trace (sweep takes lists). */
void
declareCellAxis(report::FlagSet &f, std::string &strategy, unsigned &pus)
{
    f.flag("--strategy", &strategy, "bb|cf|dd",
           "task-selection strategy (default dd)");
    f.flag("--pus", &pus, "N", "processing units (default 4)");
}

/** The per-cell budgets run and sweep accept (fuzz takes all but
 *  --max-cycles). */
void
declareBudget(report::FlagSet &f, runtime::ExecBudget &b,
              bool cycles = true)
{
    f.flag("--timeout-ms", &b.wallMs, "N",
           "wall-clock budget in ms (default unlimited)");
    f.flag("--max-fuel", &b.maxFuel, "N",
           "interpreted-instruction budget (default unlimited)", WIRE_MAX);
    if (cycles)
        f.flag("--max-cycles", &b.maxSimCycles, "N",
               "simulated-cycle budget (default unlimited)", WIRE_MAX);
}

/** The workload field of a run or trace request. A .mir file is
 *  loaded host-side and never travels, so its path (which need not be
 *  UTF-8, unlike the wire) is replaced by a placeholder. */
std::string
wireWorkload(const std::string &spec)
{
    return isMirFile(spec) ? "file.mir" : spec;
}

/** Resolves @p req into RunSpecs exactly as a daemon would. */
std::vector<report::RunSpec>
localSpecs(const client::RequestBuilder &req)
{
    return serve::parseRequest(req.payload(), {}).specs;
}

/** One sweep-table row from a wire `run` object (msc.sweep schema —
 *  the same row a local sweep prints for a RunRecord). */
void
printRunRow(std::FILE *out, const report::Json &run)
{
    const std::string &id = run.get("id").asString();
    if (run.get("status").asString() == "ok") {
        const report::Json &m = run.get("metrics");
        std::fprintf(out, "%-28s %8.3f %9llu %7llu %7.2f %8.0f\n",
                     id.c_str(), m.get("ipc").asDouble(),
                     (unsigned long long)m.get("cycles").asUInt(),
                     (unsigned long long)
                         m.get("tasks").get("dyn_tasks").asUInt(),
                     m.get("prediction")
                         .get("task_mispredict_pct")
                         .asDouble(),
                     m.get("window_span").get("measured").asDouble());
    } else {
        const report::Json &e = run.get("error");
        std::fprintf(out, "%-28s ERROR %s: %s: %s\n", id.c_str(),
                     e.get("stage").asString().c_str(),
                     e.get("kind").asString().c_str(),
                     e.get("detail").asString().c_str());
    }
}

/** Streams one run/sweep request over @p remote: rows print as cell
 *  frames arrive, @p json_path (optional) receives the reassembled
 *  msc.sweep document, and the daemon summary maps straight onto the
 *  local sweep exit-code contract (0 clean / 1 all failed /
 *  3 partial). */
int
streamRemoteSweep(const Remote &remote,
                  const client::RequestBuilder &req,
                  const std::string &json_path)
{
    std::FILE *out = remote.out();
    client::ClientConn conn(remote.endpoint());
    std::fprintf(out, "%-28s %8s %9s %7s %7s %8s\n", "run", "IPC",
                 "cycles", "tasks", "tpred%", "span");
    client::ClientConn::SweepOutcome sw = conn.collectSweep(
        req, [&](const client::ResponseFrame &f) {
            if (f.type == client::ResponseFrame::Type::Cell) {
                printRunRow(out, f.run);
                std::fflush(out);  // rows stream even through a pipe
            }
        });
    if (!sw.ok()) {
        std::fprintf(stderr, "msctool: request failed: %s\n",
                     sw.last.error.render().c_str());
        return 1;
    }
    if (sw.last.via == "router")
        std::fprintf(stderr, "sweep: routed across %zu shards\n",
                     sw.last.shards.size());
    if (sw.last.errors)
        std::fprintf(stderr,
                     "sweep: %llu of %llu runs failed (results are "
                     "partial)\n",
                     (unsigned long long)sw.last.errors,
                     (unsigned long long)sw.last.runs);
    if (!json_path.empty()) {
        size_t n = sw.runs.size();
        report::writeFile(
            json_path,
            report::sweepDocFromRuns(std::move(sw.runs)).dump(2));
        std::fprintf(stderr, "sweep: wrote %zu runs to %s\n", n,
                     json_path.c_str());
    }
    return sw.last.exitCode;
}

// ---------------------------------------------------------------------------
// Verbs. Each binds its flag table to its own fields (flags()) and
// then runs on the parsed values (run()).

struct ListVerb
{
    report::FlagSet flags()
    {
        return report::FlagSet("msctool list", "List bundled workloads.");
    }

    int run() const
    {
        std::printf("%-10s %-14s %s\n", "name", "models", "suite");
        for (const auto &w : workloads::allWorkloads())
            std::printf("%-10s %-14s %s\n", w.name.c_str(),
                        w.models.c_str(), w.isFp ? "fp" : "int");
        return 0;
    }
};

struct DisasmVerb
{
    std::string spec;

    report::FlagSet flags()
    {
        return report::FlagSet("msctool disasm",
                               "Print a program in the textual IR "
                               "format.")
            .positional(&spec, "<workload|file.mir>");
    }

    int run() const
    {
        std::printf("%s", ir::toString(loadProgram(spec)).c_str());
        return 0;
    }
};

struct ExecVerb
{
    std::string spec;

    report::FlagSet flags()
    {
        return report::FlagSet("msctool exec",
                               "Functional execution; prints the "
                               "checksum.")
            .positional(&spec, "<workload|file.mir>");
    }

    int run() const
    {
        ir::Program p = loadProgram(spec);
        profile::Interpreter in(p);
        uint64_t n = in.runQuiet();
        std::printf(
            "%s: %llu instructions, halted=%d, checksum mem[0]=%lld\n",
            spec.c_str(), (unsigned long long)n, in.halted(),
            (long long)in.mem(0));
        return in.halted() ? 0 : 1;
    }
};

struct RunVerb
{
    std::string spec, cacheDir, strategy = "dd";
    unsigned pus = 4;
    CellArgs cell{.insts = 400'000};
    runtime::ExecBudget budget;

    report::FlagSet flags()
    {
        report::FlagSet f("msctool run",
                          "Full pipeline: transforms, profile, "
                          "partition, simulate.");
        f.positional(&spec, "<workload|file.mir>");
        declareCellAxis(f, strategy, pus);
        cell.declare(f);
        declareBudget(f, budget);
        f.flag("--cache-dir", &cacheDir, "DIR",
               "persist stage artifacts on disk (docs/API.md)");
        return f;
    }

    int run() const
    {
        client::RequestBuilder req =
            client::RequestBuilder::run("run-cli", wireWorkload(spec));
        req.strategy(strategy).pusCount(pus);
        cell.apply(req);
        req.smallScale(true)  // loadProgram builds Scale::Small too
            .budget(budget);
        const Remote &remote = cell.remote;
        if (remote.enabled()) {
            remote.reject(!cacheDir.empty(), "--cache-dir");
            remote.reject(isMirFile(spec), "a .mir file");
            return streamRemoteSweep(remote, req, "");
        }
        report::RunSpec sp = localSpecs(req).front();
        const tasksel::SelectionOptions &sel = sp.opts.sel;
        const arch::SimConfig &cfg = sp.opts.config;

        pipeline::Session session(loadProgram(spec),
                                  pipeline::SessionConfig{cacheDir});
        pipeline::StageResults r = session.runAll(sp.opts);
        const tasksel::TaskPartition &partition = r.partition->partition;
        const arch::SimStats &st = r.sim->stats;
        std::printf("%s | %s tasks | %u %s PUs | N=%u%s\n",
                    spec.c_str(), tasksel::strategyName(sel.strategy),
                    cfg.numPUs,
                    cfg.outOfOrder ? "out-of-order" : "in-order",
                    sel.maxTargets,
                    sel.taskSizeHeuristic ? " | +size" : "");
        std::printf("  static tasks %zu (avg %.1f insts), unrolled %u, "
                    "hoisted %u, included calls %zu\n",
                    partition.size(), partition.avgStaticSize(),
                    r.transformed->loopsUnrolled,
                    r.transformed->ivsHoisted,
                    partition.includedCalls.size());
        std::printf("  IPC %.3f | %llu cycles | %llu insts | %llu tasks "
                    "(avg %.1f)\n",
                    st.ipc(), (unsigned long long)st.cycles,
                    (unsigned long long)st.retiredInsts,
                    (unsigned long long)st.dynTasks, st.avgTaskSize());
        std::printf("  task mispred %.2f%% | branch mispred %.2f%% | "
                    "mem violations %llu | window span %.0f\n",
                    st.taskMispredictPct(),
                    st.branchPredictions
                        ? 100.0 * double(st.branchMispredictions) /
                              double(st.branchPredictions)
                        : 0.0,
                    (unsigned long long)st.memViolations,
                    st.measuredWindowSpan);
        std::printf("%s", arch::formatBuckets(st).c_str());
        return 0;
    }
};

struct SweepVerb
{
    std::vector<std::string> names, strategies = {"bb", "cf", "dd"};
    std::vector<unsigned> pus = {4, 8};
    CellArgs cell;
    runtime::ExecBudget budget;
    unsigned jobs = 0;  // all cores
    bool small = false;
    std::string jsonPath, csvPath, cacheDir;

    report::FlagSet flags()
    {
        report::FlagSet f("msctool sweep",
                          "Run a workload x strategy x PU grid; exit "
                          "0 clean, 1 all failed, 3 partial.");
        f.positionals(&names, "[workloads...]");
        f.flag("--strategy", &strategies, "bb,cf,dd",
               "task-selection strategies (default bb,cf,dd)");
        f.flag("--pus", &pus, "4,8", "PU counts (default 4,8)");
        cell.declare(f);
        declareBudget(f, budget);
        f.flag("--small", &small, "test-scale workloads");
        f.flag("--jobs", &jobs, "N", "worker threads (default 0 = all "
                                     "cores)");
        f.flag("--json", &jsonPath, "FILE", "write the msc.sweep document");
        f.flag("--csv", &csvPath, "FILE", "write flat CSV results");
        f.flag("--cache-dir", &cacheDir, "DIR",
               "persist stage artifacts on disk (docs/API.md)");
        return f;
    }

    int run() const
    {
        client::RequestBuilder req =
            client::RequestBuilder::sweep("sweep-cli");
        if (!names.empty())
            req.workloads(names);  // else: all bundled workloads
        req.strategies(strategies).pus(pus);
        cell.apply(req);
        req.smallScale(small).budget(budget);
        const Remote &remote = cell.remote;
        if (remote.enabled()) {
            remote.reject(!cacheDir.empty(), "--cache-dir");
            remote.reject(jobs != 0, "--jobs");
            remote.reject(!csvPath.empty(), "--csv");
            return streamRemoteSweep(remote, req, jsonPath);
        }
        std::vector<report::RunSpec> specs = localSpecs(req);

        report::SweepRunner runner(jobs);
        size_t per_workload = strategies.size() * pus.size();
        std::fprintf(stderr, "sweep: %zu runs (%zu workloads x %zu "
                             "strategies x %zu PU configs) on %u "
                             "threads\n",
                     specs.size(), specs.size() / per_workload,
                     strategies.size(), pus.size(),
                     runner.jobs());
        pipeline::SessionPool pool(pipeline::SessionConfig{cacheDir});
        std::vector<report::RunRecord> records = runner.run(specs, pool);
        std::fprintf(stderr, "sweep: artifact cache: %s\n",
                     pool.stats().summary().c_str());

        std::printf("%-28s %8s %9s %7s %7s %8s\n", "run", "IPC",
                    "cycles", "tasks", "tpred%", "span");
        size_t failed = 0;
        for (const auto &r : records) {
            if (r.ok()) {
                std::printf("%-28s %8.3f %9llu %7llu %7.2f %8.0f\n",
                            r.spec.id.c_str(), r.stats.ipc(),
                            (unsigned long long)r.stats.cycles,
                            (unsigned long long)r.stats.dynTasks,
                            r.stats.taskMispredictPct(),
                            r.stats.measuredWindowSpan);
            } else {
                ++failed;
                std::printf("%-28s ERROR %s\n", r.spec.id.c_str(),
                            r.error.render().c_str());
            }
        }
        if (failed)
            std::fprintf(stderr, "sweep: %zu of %zu runs failed "
                                 "(results are partial)\n",
                         failed, records.size());

        if (!jsonPath.empty()) {
            report::writeFile(jsonPath,
                              report::sweepToJson(records).dump(2));
            std::fprintf(stderr, "sweep: wrote %zu runs to %s\n",
                         records.size(), jsonPath.c_str());
        }
        if (!csvPath.empty()) {
            report::writeFile(csvPath, report::sweepToCsv(records));
            std::fprintf(stderr, "sweep: wrote %zu runs to %s\n",
                         records.size(), csvPath.c_str());
        }
        return report::sweepExitCode(records);
    }
};

struct TraceVerb
{
    std::string spec, outPath, profPath, strategy = "dd";
    unsigned pus = 4;
    CellArgs cell{.insts = 400'000};
    unsigned topN = 10;
    bool phaseSpans = false, check = false;

    report::FlagSet flags()
    {
        report::FlagSet f("msctool trace",
                          "Full pipeline with task-lifecycle tracing.");
        f.positional(&spec, "<workload|file.mir>");
        declareCellAxis(f, strategy, pus);
        cell.declare(f);
        f.flag("--out", &outPath, "FILE", "write the Perfetto timeline");
        f.flag("--taskprof", &profPath, "FILE",
               "write the msc.taskprof profile");
        f.flag("--top", &topN, "N", "hot-task table rows (default 10)");
        f.flag("--phase-times", &phaseSpans,
               "add wall-clock pipeline phases to the timeline");
        f.flag("--check", &check,
               "verify the span-vs-SimStats accounting invariant");
        return f;
    }

    int run() const
    {
        client::RequestBuilder req =
            client::RequestBuilder::trace("trace-cli", wireWorkload(spec));
        req.strategy(strategy).pusCount(pus);
        cell.apply(req);
        req.smallScale(true).includeTrace(!outPath.empty());
        const Remote &remote = cell.remote;
        if (remote.enabled()) {
            remote.reject(check, "--check");
            remote.reject(phaseSpans, "--phase-times");
            remote.reject(isMirFile(spec), "a .mir file");
            return runRemote(remote, req);
        }
        report::RunSpec sp = localSpecs(req).front();
        pipeline::StageOptions o = sp.opts;

        obs::PerfettoTraceWriter writer(pus, spec);
        obs::TaskProfiler prof;
        obs::SpanAccounting xcheck(pus);
        obs::TeeSink tee({&writer, &prof, &xcheck});
        obs::PhaseTimes phases;
        o.sink = &tee;
        o.phaseTimes = &phases;

        pipeline::Session session(loadProgram(spec));
        pipeline::StageResults res = session.runAll(o);
        const tasksel::TaskPartition &partition =
            res.partition->partition;
        const arch::SimStats &st = res.sim->stats;

        // Host-time breakdown goes to stderr (and, on request, into
        // the trace file) — never into structured result documents.
        std::fprintf(stderr, "pipeline wall-clock phases:\n%s",
                     obs::formatPhaseTimes(phases).c_str());
        if (phaseSpans)
            writer.addPhaseSpans(phases);

        std::printf("%s | %s tasks | %u %s PUs | %llu cycles | IPC %.3f\n",
                    spec.c_str(), tasksel::strategyName(o.sel.strategy),
                    pus, o.config.outOfOrder ? "out-of-order" : "in-order",
                    (unsigned long long)st.cycles, st.ipc());
        std::printf("%s", arch::formatBuckets(st).c_str());
        std::printf("hot static tasks (of %zu in partition):\n%s",
                    partition.size(),
                    obs::formatHotTasks(prof, partition, topN).c_str());

        if (!outPath.empty()) {
            writer.write(outPath);
            std::fprintf(stderr, "trace: wrote %s\n", outPath.c_str());
        }
        if (!profPath.empty()) {
            report::writeFile(
                profPath,
                obs::taskProfileToJson(prof, partition, spec).dump(2));
            std::fprintf(stderr, "trace: wrote %s\n", profPath.c_str());
        }
        return check ? verify(writer, xcheck, st) : 0;
    }

    int runRemote(const Remote &remote,
                  const client::RequestBuilder &req) const
    {
        client::ClientConn conn(remote.endpoint());
        client::ResponseFrame last = conn.call(req);
        if (last.type == client::ResponseFrame::Type::Error) {
            std::fprintf(stderr, "msctool: trace failed: %s\n",
                         last.error.render().c_str());
            return 1;
        }
        std::FILE *out = remote.out();
        std::fprintf(out, "%-28s %8s %9s %7s %7s %8s\n", "run", "IPC",
                     "cycles", "tasks", "tpred%", "span");
        printRunRow(out, last.raw.get("run"));
        if (!outPath.empty()) {
            report::writeFile(outPath, last.raw.get("trace").dump());
            std::fprintf(stderr, "trace: wrote %s\n", outPath.c_str());
        }
        if (!profPath.empty()) {
            report::writeFile(profPath,
                              last.raw.get("taskprof").dump(2));
            std::fprintf(stderr, "trace: wrote %s\n", profPath.c_str());
        }
        // The hot-task table stays host-side (it needs the partition
        // object); the taskprof file carries the per-task data.
        return 0;
    }

    /** The timeline must BE the accounting: live event sums first,
     *  then the emitted JSON re-parsed and re-summed per PU. */
    int verify(const obs::PerfettoTraceWriter &writer,
               const obs::SpanAccounting &xcheck,
               const arch::SimStats &st) const
    {
        std::string err = xcheck.verify(st);
        if (!err.empty()) {
            std::fprintf(stderr,
                         "trace: accounting cross-check FAILED: %s\n",
                         err.c_str());
            return 1;
        }

        std::string text;
        if (outPath.empty()) {
            text = writer.str();
        } else {
            std::ifstream in(outPath, std::ios::binary);
            std::ostringstream ss;
            ss << in.rdbuf();
            text = ss.str();
        }
        report::Json doc = report::Json::parse(text);
        const report::Json &events = doc.get("traceEvents");
        std::vector<uint64_t> per_pu(pus, 0);
        for (size_t i = 0; i < events.size(); ++i) {
            const report::Json &e = events.at(i);
            const std::string &ph = e.get("ph").asString();
            if (e.get("ts").asDouble() < 0 ||
                (e.find("dur") && e.get("dur").asDouble() < 0))
                throw std::runtime_error(
                    "negative ts/dur in trace event");
            if (ph != "X" ||
                e.get("pid").asInt() != obs::PerfettoTraceWriter::PID_SIM)
                continue;
            per_pu.at(size_t(e.get("tid").asInt())) +=
                e.get("dur").asUInt();
        }
        for (unsigned pu = 0; pu < pus; ++pu) {
            if (per_pu[pu] != st.puOccupiedCycles[pu]) {
                std::fprintf(
                    stderr,
                    "trace: emitted file cross-check FAILED: PU %u "
                    "spans %llu != accounted %llu\n",
                    pu, (unsigned long long)per_pu[pu],
                    (unsigned long long)st.puOccupiedCycles[pu]);
                return 1;
            }
        }
        std::fprintf(stderr,
                     "trace: accounting cross-check passed (%zu events, "
                     "%u PUs)\n",
                     events.size(), pus);
        return 0;
    }
};

struct FuzzVerb
{
    fuzz::CampaignOptions o;
    bool noShrink = false, quiet = false;

    FuzzVerb() { o.jobs = 0; }  // all cores

    report::FlagSet flags()
    {
        report::FlagSet f("msctool fuzz",
                          "Differential fuzzing; nonzero exit on any "
                          "divergence.");
        f.flag("--count", &o.count, "N", "programs to generate "
                                         "(default 200)");
        f.flag("--seed", &o.seedBase, "S", "first seed (default 0)");
        f.flag("--jobs", &o.jobs, "N", "worker threads (default 0 = "
                                       "all cores)");
        f.flag("--max-insts", &o.maxInsts, "N",
               "per-program instruction cap (default 2000000)");
        f.flag("--corpus-dir", &o.corpusDir, "DIR",
               "write shrunk reproducers here");
        f.flag("--no-shrink", &noShrink, "keep failing programs as "
                                         "generated");
        f.flag("--quiet", &quiet, "print only the summary line");
        declareBudget(f, o.budget, /*cycles=*/false);
        return f;
    }

    int run()
    {
        o.shrinkFailures = !noShrink;
        report::SweepRunner pool(o.jobs);
        std::fprintf(stderr,
                     "fuzz: seeds [%llu, %llu) on %u threads, "
                     "%zu configs per seed\n",
                     (unsigned long long)o.seedBase,
                     (unsigned long long)(o.seedBase + o.count),
                     pool.jobs(), fuzz::defaultConfigs().size());

        fuzz::CampaignResult r = fuzz::runCampaign(o);

        if (!quiet) {
            for (const auto &f : r.failures) {
                std::printf("seed %llu: %s",
                            (unsigned long long)f.seed,
                            fuzz::diffKindName(f.diff.kind));
                if (!f.diff.config.empty())
                    std::printf(" [%s]", f.diff.config.c_str());
                if (!f.diff.detail.empty())
                    std::printf(": %s", f.diff.detail.c_str());
                if (!f.reproPath.empty())
                    std::printf(" -> %s", f.reproPath.c_str());
                std::printf("\n");
            }
        }
        std::printf("fuzz: %llu programs, %zu divergence%s\n",
                    (unsigned long long)r.executed, r.failures.size(),
                    r.failures.size() == 1 ? "" : "s");
        return r.ok() ? 0 : 1;
    }
};

/** Renders a `msc.metrics` document as a human table: counters and
 *  gauges name/value, histograms count/sum/mean. */
void
renderStatsTable(std::FILE *out, const report::Json &m)
{
    std::fprintf(out, "counters:\n");
    for (const auto &kv : m.get("counters").members())
        std::fprintf(out, "  %-40s %12llu\n", kv.first.c_str(),
                     (unsigned long long)kv.second.asUInt());
    std::fprintf(out, "gauges:\n");
    for (const auto &kv : m.get("gauges").members())
        std::fprintf(out, "  %-40s %12lld\n", kv.first.c_str(),
                     (long long)kv.second.asInt());
    std::fprintf(out, "histograms:%36s %12s %12s\n", "count", "sum",
                 "mean");
    for (const auto &kv : m.get("histograms").members()) {
        uint64_t count = kv.second.get("count").asUInt();
        double sum = kv.second.get("sum").asDouble();
        std::fprintf(out, "  %-40s %12llu %12.0f %12.1f\n",
                     kv.first.c_str(), (unsigned long long)count, sum,
                     count ? sum / double(count) : 0.0);
    }
}

struct StatsVerb
{
    Remote remote;
    bool rawJson = false, prom = false;

    report::FlagSet flags()
    {
        report::FlagSet f("msctool stats",
                          "Query a live daemon's telemetry (needs "
                          "--connect).");
        remote.declare(f);
        f.flag("--json", &rawJson, "print the raw msc.metrics document");
        f.flag("--prom", &prom, "print Prometheus text exposition");
        return f;
    }

    int run() const
    {
        if (!remote.enabled())
            throw std::runtime_error("stats needs --connect ENDPOINT");

        std::FILE *out = remote.out();
        client::ClientConn conn(remote.endpoint());
        client::RequestBuilder req =
            client::RequestBuilder::stats("stats-cli");
        if (prom)
            req.format("prometheus");

        client::ResponseFrame last = conn.call(req);
        if (last.type != client::ResponseFrame::Type::Result) {
            std::fprintf(stderr, "msctool: stats failed: %s\n",
                         last.error.render().c_str());
            return 1;
        }
        if (prom)
            std::fprintf(out, "%s",
                         last.raw.get("prometheus").asString().c_str());
        else if (rawJson)
            std::fprintf(out, "%s\n",
                         last.raw.get("metrics").dump(2).c_str());
        else
            renderStatsTable(out, last.raw.get("metrics"));
        return 0;
    }
};

struct CancelVerb
{
    std::string target;
    Remote remote;

    report::FlagSet flags()
    {
        report::FlagSet f("msctool cancel",
                          "Cancel a live daemon's in-flight request "
                          "(needs --connect).");
        f.positional(&target, "<request-id>");
        remote.declare(f);
        return f;
    }

    int run() const
    {
        if (!remote.enabled())
            throw std::runtime_error("cancel needs --connect ENDPOINT");

        client::ClientConn conn(remote.endpoint());
        client::ResponseFrame last = conn.call(
            client::RequestBuilder::cancel("cancel-cli", target));
        if (last.type != client::ResponseFrame::Type::Result) {
            std::fprintf(stderr, "msctool: cancel failed: %s\n",
                         last.error.render().c_str());
            return 1;
        }
        bool found = last.raw.get("found").asBool();
        std::fprintf(remote.out(), "cancel %s: %s\n", target.c_str(),
                     found ? "delivered" : "no such in-flight request");
        return found ? 0 : 1;
    }
};

struct VersionVerb
{
    report::FlagSet flags()
    {
        return report::FlagSet("msctool version",
                               "Print the protocol and schema "
                               "versions.");
    }

    int run() const
    {
        std::printf("msctool protocol %d\n"
                    "  %s schema v%d\n"
                    "  %s schema v%d\n"
                    "  %s schema v%d\n",
                    serve::PROTOCOL_VERSION, report::SCHEMA_NAME,
                    report::SCHEMA_VERSION, obs::TASKPROF_SCHEMA_NAME,
                    obs::TASKPROF_SCHEMA_VERSION,
                    obs::METRICS_SCHEMA_NAME,
                    obs::METRICS_SCHEMA_VERSION);
        return 0;
    }
};

/** Parses @p argv into a fresh V and runs it. A flag error prints the
 *  message and V's usage and exits 1, like every other usage error. */
template <class V>
int
invoke(int argc, char **argv)
{
    V v;
    report::FlagSet f = v.flags();
    try {
        f.parse(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "msctool: %s\nusage: %s", e.what(),
                     f.usage().c_str());
        return 1;
    }
    return v.run();
}

template <class V>
std::string
usageOf()
{
    V v;
    return v.flags().usage();
}

struct Verb
{
    const char *name;
    bool needsOperand;  ///< Bare `msctool <name>` prints usage, exit 2.
    int (*invoke)(int, char **);
    std::string (*usage)();
};

constexpr Verb VERBS[] = {
    {"list", false, invoke<ListVerb>, usageOf<ListVerb>},
    {"disasm", true, invoke<DisasmVerb>, usageOf<DisasmVerb>},
    {"exec", true, invoke<ExecVerb>, usageOf<ExecVerb>},
    {"run", true, invoke<RunVerb>, usageOf<RunVerb>},
    {"sweep", false, invoke<SweepVerb>, usageOf<SweepVerb>},
    {"trace", true, invoke<TraceVerb>, usageOf<TraceVerb>},
    {"fuzz", false, invoke<FuzzVerb>, usageOf<FuzzVerb>},
    {"stats", false, invoke<StatsVerb>, usageOf<StatsVerb>},
    {"cancel", true, invoke<CancelVerb>, usageOf<CancelVerb>},
    {"version", false, invoke<VersionVerb>, usageOf<VersionVerb>},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    for (const Verb &v : VERBS) {
        if (argc < 2 || std::strcmp(argv[1], v.name) != 0 ||
            (v.needsOperand && argc < 3))
            continue;
        try {
            return v.invoke(argc - 2, argv + 2);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "msctool: %s\n", e.what());
            return 1;
        }
    }
    std::fprintf(stderr, "usage:\n");
    for (const Verb &v : VERBS)
        std::fprintf(stderr, "%s", v.usage().c_str());
    return 2;
}
