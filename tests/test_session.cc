/**
 * @file
 * Tests for the pipeline::Session staged API and its content-addressed
 * artifact caches (docs/API.md):
 *
 *  - invalidation exactness: each option field re-runs exactly the
 *    stages that read it (SimConfig reuses the trace; strategy reuses
 *    transform + profile; loopThresh with the size heuristic off is
 *    inert);
 *  - compute-once semantics under concurrent stage calls;
 *  - on-disk cache: Profile and Partition artifacts round-trip
 *    losslessly and a fresh process-equivalent Session loads instead
 *    of recomputing;
 *  - sweep byte-determinism: cold vs warm SessionPool runs emit
 *    byte-identical msc.sweep documents, and the ISSUE acceptance
 *    grid (2 strategies x 4 SimConfigs) computes exactly 2 frontends;
 *  - StageResults artifacts outlive their Session and stay safely
 *    copyable/movable: they share ownership of the transformed
 *    program that `partition.prog` aliases;
 *  - one interpreter run per program: the strategies' TaskTraces are
 *    ranges of one shared stream, recorded by the profile run (or,
 *    after a disk-loaded profile, by the first trace stage), without
 *    moving any stage counter; KeyedCache::putIfAbsent, which publishes
 *    the profile run's stream, never waits on another producer.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "helpers.h"
#include "pipeline/pool.h"
#include "pipeline/session.h"
#include "profile/interpreter.h"
#include "report/record.h"
#include "report/sweep.h"
#include "workloads/workload.h"

using namespace msc;
using pipeline::CacheStats;
using pipeline::Session;
using pipeline::SessionConfig;
using pipeline::StageKind;
using pipeline::StageOptions;

namespace {

StageOptions
ddOptions()
{
    tasksel::SelectionOptions sel;
    sel.strategy = tasksel::Strategy::DataDependence;
    StageOptions o = StageOptions::fromSelection(sel);
    o.profile.profileInsts = 20'000;
    o.trace.traceInsts = 10'000;
    o.config = arch::SimConfig::paperConfig(2);
    return o;
}

uint64_t
computedAt(const Session &s, StageKind k)
{
    return s.cacheStats()[k].computed;
}

/** A unique fresh directory under the test binary's scratch space. */
std::string
freshCacheDir(const char *name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("msc-session-") + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

} // anonymous namespace

// ----------------------------------------------------- invalidation

TEST(SessionCache, SimConfigSweepReusesTrace)
{
    Session s(test::makeLoopProgram(200));
    StageOptions o = ddOptions();

    for (unsigned pus : {1u, 2u, 4u, 8u}) {
        o.config = arch::SimConfig::paperConfig(pus);
        s.simulate(o);
    }

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 4u);
    // The three warm sweeps hit the cached trace artifact.
    EXPECT_GE(s.cacheStats()[StageKind::Trace].hits, 3u);
}

TEST(SessionCache, RepeatedCallReturnsSameArtifact)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();
    auto a = s.simulate(o);
    auto b = s.simulate(o);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 1u);
}

TEST(SessionCache, StrategyInvalidatesExactlySelectionAndBelow)
{
    Session s(test::makeCallProgram(60));
    StageOptions o = ddOptions();
    auto dd = s.trace(o);

    o.sel.strategy = tasksel::Strategy::BasicBlock;
    auto bb = s.trace(o);

    EXPECT_NE(dd->key, bb->key);
    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 2u);
    // Both partitions alias the one shared transformed program.
    EXPECT_EQ(dd->partition->transformed.get(),
              bb->partition->transformed.get());
}

TEST(SessionCache, LoopThreshInvalidatesTransformWhenHeuristicOn)
{
    Session s(test::makeLoopProgram(100));
    tasksel::SelectionOptions sel;
    sel.taskSizeHeuristic = true;
    sel.loopThresh = 30;
    StageOptions o = StageOptions::fromSelection(sel);
    o.profile.profileInsts = 20'000;
    s.profile(o);

    sel.loopThresh = 60;
    StageOptions o2 = StageOptions::fromSelection(sel);
    o2.profile.profileInsts = 20'000;
    s.profile(o2);

    EXPECT_EQ(computedAt(s, StageKind::Transform), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 2u);
}

TEST(SessionCache, InertKnobsAreCanonicalizedOutOfTheKey)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();          // taskSizeHeuristic off
    s.trace(o);

    // With the size heuristic off, loopThresh and callThresh are
    // never read, so changing them must not miss any cache.
    o.sel.loopThresh = 99;
    o.transform.loopThresh = 99;
    o.sel.callThresh = 99;
    s.trace(o);
    // verifyPartition gates a check, not a result: also not hashed.
    o.verifyPartition = false;
    s.trace(o);

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
}

TEST(SessionCache, TraceInstsInvalidatesOnlyTraceAndSim)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();
    s.simulate(o);
    o.trace.traceInsts = 5'000;
    s.simulate(o);

    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 2u);
}

TEST(SessionCache, ComputeOnceUnderConcurrency)
{
    Session s(test::makeLoopProgram(500));
    StageOptions o = ddOptions();

    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] { s.trace(o); });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
}

// ------------------------------------------------------- disk cache

TEST(SessionDiskCache, RoundTripsProfileAndPartitionLosslessly)
{
    const std::string dir = freshCacheDir("roundtrip");
    ir::Program prog =
        workloads::buildWorkload("compress", workloads::Scale::Small);
    StageOptions o = ddOptions();
    o.sel.taskSizeHeuristic = true;    // exercise includedCalls
    o.transform.taskSizeHeuristic = true;

    Session cold(prog, SessionConfig{dir});
    auto part1 = cold.select(o);
    const profile::Profile &p1 = cold.profile(o)->profile;

    // A second Session over the same directory stands in for a fresh
    // process: everything must come from disk, nothing recomputed.
    Session warm(prog, SessionConfig{dir});
    auto part2 = warm.select(o);
    const profile::Profile &p2 = warm.profile(o)->profile;

    EXPECT_EQ(computedAt(warm, StageKind::Transform), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Profile), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Select), 0u);
    EXPECT_GE(warm.cacheStats().diskHits(), 3u);

    // Profile: every map and counter identical.
    EXPECT_EQ(p1.totalInsts, p2.totalInsts);
    EXPECT_EQ(p1.blockCount, p2.blockCount);
    EXPECT_EQ(p1.edgeCount, p2.edgeCount);
    EXPECT_EQ(p1.funcInvocations, p2.funcInvocations);
    EXPECT_EQ(p1.funcInclusiveInsts, p2.funcInclusiveInsts);
    EXPECT_EQ(p1.defUseCount, p2.defUseCount);

    // Partition: task-by-task structural equality.
    const tasksel::TaskPartition &a = part1->partition;
    const tasksel::TaskPartition &b = part2->partition;
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        const tasksel::Task &x = a.tasks[i], &y = b.tasks[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.func, y.func);
        EXPECT_EQ(x.entry, y.entry);
        EXPECT_EQ(x.blocks, y.blocks);
        EXPECT_EQ(x.createMask, y.createMask);
        EXPECT_EQ(x.staticInsts, y.staticInsts);
        ASSERT_EQ(x.targets.size(), y.targets.size());
        for (size_t t = 0; t < x.targets.size(); ++t)
            EXPECT_TRUE(x.targets[t] == y.targets[t]);
    }
    EXPECT_EQ(a.taskOf, b.taskOf);
    EXPECT_EQ(a.includedCalls, b.includedCalls);
    EXPECT_EQ(a.fwdSafe, b.fwdSafe);

    // And the loaded frontend drives the backend to the same result.
    EXPECT_EQ(cold.simulate(o)->stats.cycles,
              warm.simulate(o)->stats.cycles);

    std::filesystem::remove_all(dir);
}

TEST(SessionDiskCache, CorruptEntryFallsBackToRecompute)
{
    const std::string dir = freshCacheDir("corrupt");
    StageOptions o = ddOptions();
    ir::Program prog = test::makeLoopProgram(100);
    {
        Session cold(prog, SessionConfig{dir});
        cold.select(o);
    }
    // Truncate every cached artifact file.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        std::ofstream(e.path(), std::ios::trunc).close();

    Session warm(prog, SessionConfig{dir});
    auto part = warm.select(o);
    EXPECT_GT(part->partition.size(), 0u);
    EXPECT_EQ(warm.cacheStats().diskHits(), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Select), 1u);

    std::filesystem::remove_all(dir);
}

// --------------------------------------------------- sweep contract

TEST(SessionSweep, ColdVsWarmByteIdentical)
{
    std::vector<report::RunSpec> specs;
    for (auto s : {tasksel::Strategy::BasicBlock,
                   tasksel::Strategy::DataDependence})
        for (unsigned pus : {2u, 4u})
            specs.push_back(report::makeSpec(
                "compress", s, pus, true, workloads::Scale::Small,
                10'000));

    pipeline::SessionPool pool;
    report::SweepRunner runner(2);
    std::string cold =
        report::sweepToJson(runner.run(specs, pool)).dump(2);
    uint64_t cold_computed = pool.stats().computed();

    std::string warm =
        report::sweepToJson(runner.run(specs, pool)).dump(2);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(pool.stats().computed(), cold_computed);

    // And a pool-less cold run (fresh sessions) says the same bytes.
    std::string fresh =
        report::sweepToJson(report::SweepRunner(1).run(specs)).dump(2);
    EXPECT_EQ(cold, fresh);
}

TEST(SessionSweep, AcceptanceGridComputesExactlyTwoFrontends)
{
    // 2 strategies x 4 SimConfigs; the strategies differ in the
    // transform stage too (task-size heuristic), so every frontend
    // stage computes exactly twice and the sims fan out to 8.
    std::vector<report::RunSpec> specs;
    struct Strat
    {
        tasksel::Strategy s;
        bool size;
    };
    for (Strat st : {Strat{tasksel::Strategy::BasicBlock, false},
                     Strat{tasksel::Strategy::DataDependence, true}})
        for (unsigned pus : {2u, 4u})
            for (bool ooo : {false, true})
                specs.push_back(report::makeSpec(
                    "compress", st.s, pus, ooo,
                    workloads::Scale::Small, 10'000, st.size));

    pipeline::SessionPool pool;
    report::SweepRunner(2).run(specs, pool);
    const CacheStats stats = pool.stats();
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(stats[StageKind::Transform].computed, 2u);
    EXPECT_EQ(stats[StageKind::Profile].computed, 2u);
    EXPECT_EQ(stats[StageKind::Select].computed, 2u);
    EXPECT_EQ(stats[StageKind::Trace].computed, 2u);
    EXPECT_EQ(stats[StageKind::Simulate].computed, 8u);
}

// ------------------------------------------------ one shared stream

namespace {

const tasksel::Strategy ALL_STRATEGIES[] = {
    tasksel::Strategy::BasicBlock, tasksel::Strategy::ControlFlow,
    tasksel::Strategy::DataDependence};

/** Traces every strategy under @p o; returns the three artifacts. */
std::vector<std::shared_ptr<const pipeline::TaskTrace>>
traceAllStrategies(Session &s, StageOptions o)
{
    std::vector<std::shared_ptr<const pipeline::TaskTrace>> out;
    for (tasksel::Strategy st : ALL_STRATEGIES) {
        o.sel.strategy = st;
        out.push_back(s.trace(o));
    }
    return out;
}

/** @p stream equals a fresh Interpreter::trace of the same length. */
void
expectIndependentTrace(const ir::Program &prog,
                       const profile::Trace &stream, uint64_t insts)
{
    profile::Interpreter in(prog);
    profile::Trace ref = in.trace(insts);
    ASSERT_EQ(stream.size(), ref.size());
    EXPECT_EQ(stream.completed, ref.completed);
    for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(stream[i].ref, ref[i].ref) << i;
        ASSERT_EQ(stream[i].addr, ref[i].addr) << i;
        ASSERT_EQ(stream[i].taken, ref[i].taken) << i;
    }
}

} // anonymous namespace

TEST(SessionStream, StrategiesShareTheProfileRunsStream)
{
    Session s(workloads::buildWorkload("compress",
                                       workloads::Scale::Small));
    StageOptions o = ddOptions();
    auto tts = traceAllStrategies(s, o);

    const profile::Trace *stream = tts[0]->tasks.trace.get();
    ASSERT_NE(stream, nullptr);
    for (const auto &tt : tts) {
        EXPECT_EQ(tt->tasks.trace.get(), stream);
        EXPECT_EQ(tt->traceInsts, stream->size());
    }
    EXPECT_EQ(stream->size(), o.trace.traceInsts);
    expectIndependentTrace(*tts[0]->partition->transformed->prog,
                           *stream, o.trace.traceInsts);

    // The counters read as they did when every trace stage ran its
    // own interpreter: the shared stream is not a stage.
    const CacheStats c = s.cacheStats();
    auto expect = [&](StageKind k, uint64_t computed, uint64_t hits) {
        SCOPED_TRACE(pipeline::stageName(k));
        EXPECT_EQ(c[k].computed, computed);
        EXPECT_EQ(c[k].hits, hits);
        EXPECT_EQ(c[k].diskHits, 0u);
    };
    expect(StageKind::Transform, 1, 0);
    expect(StageKind::Profile, 1, 2);
    expect(StageKind::Select, 3, 0);
    expect(StageKind::Trace, 3, 0);
    expect(StageKind::Simulate, 0, 0);
}

TEST(SessionStream, TraceLongerThanProfileIsInterpretedOnce)
{
    Session s(workloads::buildWorkload("compress",
                                       workloads::Scale::Small));
    StageOptions o = ddOptions();
    o.trace.traceInsts = o.profile.profileInsts + 5'000;
    auto tts = traceAllStrategies(s, o);

    for (const auto &tt : tts)
        EXPECT_EQ(tt->tasks.trace.get(), tts[0]->tasks.trace.get());
    expectIndependentTrace(*tts[0]->partition->transformed->prog,
                           *tts[0]->tasks.trace, o.trace.traceInsts);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 3u);
}

TEST(SessionStream, DiskLoadedProfileStillSharesOneStream)
{
    const std::string dir = freshCacheDir("stream");
    ir::Program prog =
        workloads::buildWorkload("compress", workloads::Scale::Small);
    StageOptions o = ddOptions();
    Session cold(prog, SessionConfig{dir});
    auto cold_tts = traceAllStrategies(cold, o);

    // The warm Session loads the profile, so no profile run records
    // the stream: the first trace stage interprets it for all three.
    Session warm(prog, SessionConfig{dir});
    auto tts = traceAllStrategies(warm, o);
    EXPECT_EQ(computedAt(warm, StageKind::Profile), 0u);
    EXPECT_EQ(warm.cacheStats()[StageKind::Profile].diskHits, 1u);
    EXPECT_EQ(computedAt(warm, StageKind::Trace), 3u);
    for (size_t i = 0; i < tts.size(); ++i) {
        EXPECT_EQ(tts[i]->tasks.trace.get(), tts[0]->tasks.trace.get());
        EXPECT_EQ(tts[i]->tasks.size(), cold_tts[i]->tasks.size());
    }
    expectIndependentTrace(*tts[0]->partition->transformed->prog,
                           *tts[0]->tasks.trace, o.trace.traceInsts);
    std::filesystem::remove_all(dir);
}

TEST(KeyedCache, PutIfAbsentKeepsTheFirstValueAndNeverWaits)
{
    pipeline::KeyedCache<int> cache;
    pipeline::AtomicStageCounters ctr;
    auto value = [&](uint64_t key) {
        return *cache.getOrCompute(key, ctr,
                                   [] { return std::make_shared<int>(0); });
    };
    cache.putIfAbsent(1, std::make_shared<int>(10));
    cache.putIfAbsent(1, std::make_shared<int>(11));
    EXPECT_EQ(value(1), 10);

    // A key in flight keeps its producer's value, and the put returns
    // without waiting for that producer.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::thread producer([&] {
        cache.getOrCompute(2, ctr, [&] {
            gate.wait();
            return std::make_shared<int>(20);
        });
    });
    while (cache.size() < 2)
        std::this_thread::yield();
    cache.putIfAbsent(2, std::make_shared<int>(21));
    release.set_value();
    producer.join();
    EXPECT_EQ(value(2), 20);
}

// ------------------------------------------ artifacts outlive the Session

TEST(ArtifactLifetime, CopiesAndMovesKeepPartitionAliasValid)
{
    pipeline::StageResults copy;
    {
        Session session(test::makeLoopProgram(100));
        pipeline::StageResults r = session.runAll(ddOptions());
        ASSERT_EQ(r.partition->partition.prog,
                  r.transformed->prog.get());
        copy = r;                       // copy while original lives
        pipeline::StageResults moved = std::move(r);
        copy = std::move(moved);        // then move-assign over it
    }
    // Session, original and intermediate are gone; the alias must
    // still hold.
    ASSERT_NE(copy.transformed, nullptr);
    const tasksel::TaskPartition &part = copy.partition->partition;
    ASSERT_EQ(part.prog, copy.transformed->prog.get());
    ASSERT_EQ(copy.partition->transformed, copy.transformed);
    EXPECT_GT(part.size(), 0u);
    EXPECT_FALSE(part.prog->functions.empty());
    // The partition's block->task map matches the aliased program.
    EXPECT_EQ(part.taskOf.size(), part.prog->functions.size());
    EXPECT_GT(copy.sim->stats.retiredInsts, 0u);
}

TEST(ArtifactLifetime, PartitionArtifactSharesOwnershipToo)
{
    std::shared_ptr<const pipeline::PartitionArtifact> part;
    {
        Session session(test::makeCallProgram(40));
        part = session.select(StageOptions{});
    }
    // The Session is gone; the artifact alone keeps the aliased
    // program alive.
    ASSERT_EQ(part->partition.prog, part->transformed->prog.get());
    EXPECT_FALSE(part->partition.prog->functions.empty());
    EXPECT_EQ(part->partition.taskOf.size(),
              part->partition.prog->functions.size());
}
