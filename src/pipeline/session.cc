#include "pipeline/session.h"

#include <chrono>
#include <stdexcept>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "ir/printer.h"
#include "obs/phase.h"
#include "pipeline/hash.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/pverify.h"
#include "tasksel/selector.h"
#include "tasksel/transforms.h"

namespace msc {
namespace pipeline {

namespace {

/** Per-stage key domains (arbitrary distinct constants). */
enum : uint64_t
{
    TAG_TRANSFORM = 0x7472616e73666f72ull,  // "transfor"
    TAG_PROFILE = 0x70726f66696c6500ull,    // "profile\0"
    TAG_SELECT = 0x73656c6563740000ull,     // "select\0\0"
    TAG_TRACE = 0x7472616365000000ull,      // "trace\0\0\0"
    TAG_SIMULATE = 0x73696d756c617465ull,   // "simulate"
    TAG_INPUT = 0x696e707574000000ull,      // "input\0\0\0"
    TAG_STREAM = 0x73747265616d0000ull,     // "stream\0\0"
};

/** Wall-clock accounting for one stage compute (hits record 0). */
class PhaseTimer
{
  public:
    PhaseTimer(obs::PhaseTimes *pt, obs::PipelinePhase phase)
        : _pt(pt), _phase(phase)
    {
        if (_pt)
            _start = Clock::now();
    }

    ~PhaseTimer()
    {
        if (_pt)
            _pt->add(_phase,
                     std::chrono::duration<double, std::micro>(
                         Clock::now() - _start)
                         .count());
    }

  private:
    using Clock = std::chrono::steady_clock;
    obs::PhaseTimes *_pt;
    obs::PipelinePhase _phase;
    Clock::time_point _start;
};

/**
 * Runs one stage compute under a fresh Governor and annotates any
 * escaping error with the stage name. A Governor lives exactly as
 * long as one compute (budgets are per stage compute; cache hits
 * never construct one), so the wall-clock deadline starts after
 * upstream artifacts are already in hand. Unclassified exceptions
 * are wrapped as ErrorKind::Internal at this boundary so sweep
 * drivers always see a StageError with a stage attached.
 */
template <typename Fn>
auto
governedCompute(const StageOptions &o, StageKind stage, Fn &&fn)
    -> decltype(fn(std::declval<runtime::Governor &>()))
{
    runtime::Governor gov(o.budget, o.cancel);
    try {
        return fn(gov);
    } catch (runtime::StageError &e) {
        e.setStage(stageName(stage));
        throw;
    } catch (const std::exception &e) {
        throw runtime::StageError(runtime::ErrorKind::Internal,
                                  stageName(stage), e.what());
    }
}

void
hashCacheConfig(Hasher &h, const arch::CacheConfig &c)
{
    h.word(c.sizeBytes)
        .word(uint64_t(c.assoc))
        .word(uint64_t(c.blockBytes))
        .word(uint64_t(c.hitLatency))
        .word(uint64_t(c.banks));
}

} // anonymous namespace

const char *
stageName(StageKind s)
{
    switch (s) {
      case StageKind::Transform: return "transform";
      case StageKind::Profile:   return "profile";
      case StageKind::Select:    return "select";
      case StageKind::Trace:     return "trace";
      case StageKind::Simulate:  return "simulate";
      case StageKind::NUM_STAGES: break;
    }
    return "?";
}

uint64_t
CacheStats::hits() const
{
    uint64_t n = 0;
    for (const auto &s : stage)
        n += s.hits;
    return n;
}

uint64_t
CacheStats::computed() const
{
    uint64_t n = 0;
    for (const auto &s : stage)
        n += s.computed;
    return n;
}

uint64_t
CacheStats::diskHits() const
{
    uint64_t n = 0;
    for (const auto &s : stage)
        n += s.diskHits;
    return n;
}

void
CacheStats::add(const CacheStats &o)
{
    for (size_t i = 0; i < NUM_STAGES; ++i) {
        stage[i].hits += o.stage[i].hits;
        stage[i].diskHits += o.stage[i].diskHits;
        stage[i].computed += o.stage[i].computed;
    }
}

std::string
CacheStats::summary() const
{
    return std::to_string(computed()) + " computed, " +
           std::to_string(hits()) + " hits, " +
           std::to_string(diskHits()) + " from disk";
}

Session::Session(const ir::Program &input, SessionConfig cfg)
    : Session(std::make_shared<const ir::Program>(input),
              std::move(cfg))
{}

Session::Session(std::shared_ptr<const ir::Program> input,
                 SessionConfig cfg)
    : _input(std::move(input)), _disk(std::move(cfg.cacheDir))
{
    Hasher h(TAG_INPUT);
    h.bytes(ir::toString(*_input));
    _inputKey = h.digest();
}

// --------------------------------------------------------------------
// Artifact keys. Each absorbs its upstream stage's key plus exactly
// the fields its stage reads; fields gated off by a flag are
// canonicalized to zero so toggling an inert knob cannot miss. The
// table in docs/API.md mirrors this code.

uint64_t
Session::transformKey(const StageOptions &o) const
{
    const TransformOptions &t = o.transform;
    Hasher h(TAG_TRANSFORM);
    h.word(_inputKey)
        .word(t.hoistInductionVars)
        .word(t.taskSizeHeuristic)
        .word(uint64_t(t.taskSizeHeuristic ? t.loopThresh : 0));
    return h.digest();
}

uint64_t
Session::profileKey(const StageOptions &o) const
{
    Hasher h(TAG_PROFILE);
    h.word(transformKey(o)).word(o.profile.profileInsts);
    return h.digest();
}

uint64_t
Session::selectKey(const StageOptions &o) const
{
    const tasksel::SelectionOptions &s = o.sel;
    Hasher h(TAG_SELECT);
    h.word(profileKey(o))
        .word(uint64_t(s.strategy))
        .word(uint64_t(s.maxTargets))
        .word(s.taskSizeHeuristic)
        .word(uint64_t(s.taskSizeHeuristic ? s.callThresh : 0))
        .word(s.deadRegElim)
        .word(s.ddTerminateAtDependence)
        .word(uint64_t(s.maxTaskBlocks))
        .word(uint64_t(s.maxDepsPerFunction));
    return h.digest();
}

uint64_t
Session::traceKey(const StageOptions &o) const
{
    Hasher h(TAG_TRACE);
    h.word(selectKey(o)).word(o.trace.traceInsts);
    return h.digest();
}

uint64_t
Session::streamKey(const StageOptions &o) const
{
    Hasher h(TAG_STREAM);
    h.word(transformKey(o)).word(o.trace.traceInsts);
    return h.digest();
}

uint64_t
Session::simulateKey(const StageOptions &o) const
{
    // Every SimConfig field EXCEPT coreMode participates in the key.
    // The two cores are byte-identical by contract (docs/PERFORMANCE.md,
    // enforced by tests/test_eventcore.cc), so hashing the mode would
    // only split the cache: a cycle-core run could never reuse an
    // event-core artifact that is guaranteed to be the same bytes.
    const arch::SimConfig &c = o.config;
    Hasher h(TAG_SIMULATE);
    h.word(traceKey(o))
        .word(uint64_t(c.numPUs))
        .word(c.outOfOrder)
        .word(uint64_t(c.issueWidth))
        .word(uint64_t(c.fetchWidth))
        .word(uint64_t(c.robSize))
        .word(uint64_t(c.issueListSize))
        .word(uint64_t(c.numIntFU))
        .word(uint64_t(c.numFpFU))
        .word(uint64_t(c.numBrFU))
        .word(uint64_t(c.numMemFU))
        .word(uint64_t(c.maxTargets))
        .word(uint64_t(c.taskStartOverhead))
        .word(uint64_t(c.taskEndOverhead))
        .word(uint64_t(c.taskPredHistBits))
        .word(uint64_t(c.taskPredTableSize))
        .word(uint64_t(c.gshareHistBits))
        .word(uint64_t(c.gshareTableSize))
        .word(uint64_t(c.rasDepth))
        .word(uint64_t(c.ringBandwidth))
        .word(uint64_t(c.arbEntriesPerPU))
        .word(uint64_t(c.arbHitLatency))
        .word(uint64_t(c.syncTableSize))
        .word(uint64_t(c.memLatency))
        .word(c.maxCycles);
    hashCacheConfig(h, c.l1i);
    hashCacheConfig(h, c.l1d);
    hashCacheConfig(h, c.l2);
    return h.digest();
}

uint64_t
Session::stageKey(StageKind s, const StageOptions &o) const
{
    switch (s) {
      case StageKind::Transform: return transformKey(o);
      case StageKind::Profile:   return profileKey(o);
      case StageKind::Select:    return selectKey(o);
      case StageKind::Trace:     return traceKey(o);
      case StageKind::Simulate:  return simulateKey(o);
      case StageKind::NUM_STAGES: break;
    }
    throw runtime::StageError(runtime::ErrorKind::Internal, "cache",
                              "stageKey: bad stage");
}

// --------------------------------------------------------------------
// Stages.

std::shared_ptr<const TransformedProgram>
Session::transform(const StageOptions &o)
{
    uint64_t key = transformKey(o);
    return _transforms.getOrCompute(
        key, _ctr[size_t(StageKind::Transform)],
        [&]() -> std::shared_ptr<const TransformedProgram> {
            auto &ctr = _ctr[size_t(StageKind::Transform)];
            if (auto tp = _disk.loadTransform(key)) {
                ctr.diskHits.fetch_add(1, std::memory_order_relaxed);
                return tp;
            }
            ctr.computed.fetch_add(1, std::memory_order_relaxed);
            PhaseTimer timer(o.phaseTimes,
                             obs::PipelinePhase::Transforms);

            return governedCompute(
                o, StageKind::Transform,
                [&](runtime::Governor &gov)
                    -> std::shared_ptr<const TransformedProgram> {
                    auto tp = std::make_shared<TransformedProgram>();
                    tp->key = key;
                    auto prog = std::make_shared<ir::Program>(*_input);
                    // IV rotation before unrolling so every unrolled
                    // copy carries its increment at the top (§3.2).
                    if (o.transform.hoistInductionVars)
                        tp->ivsHoisted =
                            tasksel::hoistInductionVariables(*prog,
                                                             &gov);
                    if (o.transform.taskSizeHeuristic)
                        tp->loopsUnrolled = tasksel::unrollSmallLoops(
                            *prog, o.transform.loopThresh, 16, &gov);
                    prog->computeCfg();
                    prog->layout();
                    tp->prog = std::move(prog);
                    _disk.store(*tp);
                    return tp;
                });
        });
}

std::shared_ptr<const ProfileArtifact>
Session::profile(const StageOptions &o)
{
    uint64_t key = profileKey(o);
    return _profiles.getOrCompute(
        key, _ctr[size_t(StageKind::Profile)],
        [&]() -> std::shared_ptr<const ProfileArtifact> {
            auto tp = transform(o);
            auto &ctr = _ctr[size_t(StageKind::Profile)];
            if (auto pa = _disk.loadProfile(key, tp)) {
                ctr.diskHits.fetch_add(1, std::memory_order_relaxed);
                return pa;
            }
            ctr.computed.fetch_add(1, std::memory_order_relaxed);
            PhaseTimer timer(o.phaseTimes, obs::PipelinePhase::Profile);

            return governedCompute(
                o, StageKind::Profile,
                [&](runtime::Governor &gov)
                    -> std::shared_ptr<const ProfileArtifact> {
                    // The interpreter's data-memory image is the
                    // stage's dominant tracked allocation. The same
                    // run records the trace stage's stream when that
                    // is a prefix of it, so fuel is charged once.
                    gov.chargeHeap(tp->prog->memWords *
                                   sizeof(int64_t));
                    auto pa = std::make_shared<ProfileArtifact>();
                    pa->key = key;
                    pa->transformed = tp;
                    std::shared_ptr<profile::Trace> stream;
                    if (o.trace.traceInsts <= o.profile.profileInsts)
                        stream = std::make_shared<profile::Trace>();
                    pa->profile = profile::profileProgram(
                        *tp->prog, o.profile.profileInsts, &gov,
                        stream.get(), o.trace.traceInsts);
                    if (stream)
                        _streams.putIfAbsent(streamKey(o),
                                             std::move(stream));
                    _disk.store(*pa);
                    return pa;
                });
        });
}

std::shared_ptr<const PartitionArtifact>
Session::select(const StageOptions &o)
{
    uint64_t key = selectKey(o);
    return _partitions.getOrCompute(
        key, _ctr[size_t(StageKind::Select)],
        [&]() -> std::shared_ptr<const PartitionArtifact> {
            auto prof = profile(o);
            auto &ctr = _ctr[size_t(StageKind::Select)];
            std::shared_ptr<const PartitionArtifact> pa =
                _disk.loadPartition(key, prof->transformed);
            if (pa) {
                ctr.diskHits.fetch_add(1, std::memory_order_relaxed);
            } else {
                ctr.computed.fetch_add(1, std::memory_order_relaxed);
                PhaseTimer timer(o.phaseTimes,
                                 obs::PipelinePhase::Selection);
                pa = governedCompute(
                    o, StageKind::Select,
                    [&](runtime::Governor &gov)
                        -> std::shared_ptr<const PartitionArtifact> {
                        auto fresh =
                            std::make_shared<PartitionArtifact>();
                        fresh->key = key;
                        fresh->transformed = prof->transformed;
                        fresh->partition = tasksel::selectTasks(
                            *prof->transformed->prog, prof->profile,
                            o.sel, &gov);
                        _disk.store(*fresh);
                        return fresh;
                    });
            }
            if (o.verifyPartition) {
                std::string err;
                if (!tasksel::verifyPartition(pa->partition, o.sel,
                                              &err))
                    throw runtime::StageError(
                        runtime::ErrorKind::VerifyFailed, "select",
                        "partition verification failed: " + err);
            }
            return pa;
        });
}

std::shared_ptr<const TaskTrace>
Session::trace(const StageOptions &o)
{
    uint64_t key = traceKey(o);
    return _traces.getOrCompute(
        key, _ctr[size_t(StageKind::Trace)],
        [&]() -> std::shared_ptr<const TaskTrace> {
            auto part = select(o);
            auto &ctr = _ctr[size_t(StageKind::Trace)];
            ctr.computed.fetch_add(1, std::memory_order_relaxed);
            PhaseTimer timer(o.phaseTimes,
                             obs::PipelinePhase::TraceCut);

            return governedCompute(
                o, StageKind::Trace,
                [&](runtime::Governor &gov)
                    -> std::shared_ptr<const TaskTrace> {
                    const ir::Program &prog = *part->transformed->prog;
                    // Interprets only when no profile run of this
                    // Session recorded the stream (a profile loaded
                    // from disk, or traceInsts > profileInsts).
                    auto stream = _streams.getOrCompute(
                        streamKey(o), _streamCtr, [&] {
                            gov.chargeHeap(prog.memWords *
                                           sizeof(int64_t));
                            profile::Interpreter interp(prog);
                            return std::make_shared<profile::Trace>(
                                interp.trace(o.trace.traceInsts, &gov));
                        });
                    auto tt = std::make_shared<TaskTrace>();
                    tt->key = key;
                    tt->partition = part;
                    tt->traceInsts = stream->size();
                    tt->tasks = arch::cutTasks(std::move(stream),
                                               part->partition);
                    return tt;
                });
        });
}

std::shared_ptr<const SimArtifact>
Session::computeSimulate(const StageOptions &o, uint64_t key)
{
    auto tt = trace(o);
    _ctr[size_t(StageKind::Simulate)].computed.fetch_add(
        1, std::memory_order_relaxed);
    PhaseTimer timer(o.phaseTimes, obs::PipelinePhase::TimingSim);

    return governedCompute(
        o, StageKind::Simulate,
        [&](runtime::Governor &gov) -> std::shared_ptr<const SimArtifact> {
            auto sa = std::make_shared<SimArtifact>();
            sa->key = key;
            sa->trace = tt;
            sa->stats = arch::simulate(tt->partition->partition,
                                       tt->tasks, o.config, o.sink,
                                       &gov);
            return sa;
        });
}

std::shared_ptr<const SimArtifact>
Session::simulate(const StageOptions &o)
{
    uint64_t key = simulateKey(o);
    // A sink is a side effect: its events must fire on every call, so
    // sink runs bypass the memo table (upstream stages still share).
    if (o.sink)
        return computeSimulate(o, key);
    return _sims.getOrCompute(
        key, _ctr[size_t(StageKind::Simulate)],
        [&] { return computeSimulate(o, key); });
}

StageResults
Session::runAll(const StageOptions &o)
{
    StageResults r;
    r.sim = simulate(o);
    r.trace = r.sim->trace;
    r.partition = r.trace->partition;
    r.transformed = r.partition->transformed;
    r.profile = profile(o);
    return r;
}

CacheStats
Session::cacheStats() const
{
    CacheStats s;
    for (size_t i = 0; i < NUM_STAGES; ++i)
        s.stage[i] = _ctr[i].snapshot();
    return s;
}

} // namespace pipeline
} // namespace msc
