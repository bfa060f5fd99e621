/**
 * @file
 * Unit tests for the hardware component models: caches, ARB, sync
 * table, predictors, and the forwarding ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "arch/arb.h"
#include "arch/cache.h"
#include "arch/predictors.h"
#include "arch/ring.h"
#include "arch/stats.h"
#include "fuzz/rng.h"
#include "helpers.h"

using namespace msc;
using namespace msc::arch;

TEST(Cache, HitAfterFill)
{
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x104));  // Same 32B line.
    EXPECT_FALSE(c.access(0x120)); // Next line.
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B per set-pair: sets = 1024/(32*2) = 16 sets.
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    uint64_t set_stride = 16 * 32;  // Same set index.
    c.access(0);
    c.access(set_stride);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(set_stride));
    c.access(0);                    // Touch 0: stride becomes LRU.
    c.access(2 * set_stride);       // Evicts set_stride.
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, ProbeDoesNotFill)
{
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.accesses(), 0u);
}

/** A cache built after another of the same geometry on this thread
 *  reuses its line array; it must start cold and evict exactly like
 *  a cache built from scratch. */
TEST(Cache, ReusedArrayBehavesLikeFresh)
{
    CacheConfig cfg{1024, 2, 32, 1, 1};
    std::vector<uint64_t> filled;
    {
        Cache first(cfg);
        for (uint64_t a = 0; a < 4096; a += 32) {
            first.access(a);
            if (first.probe(a))
                filled.push_back(a);
        }
    }
    ASSERT_FALSE(filled.empty());

    Cache reused(cfg);              // Takes the idle array.
    Cache fresh(cfg);               // None idle now: a new array.
    for (uint64_t a : filled)
        EXPECT_FALSE(reused.probe(a)) << "stale line " << a;

    fuzz::Rng rng(test::effectiveSeed(11));
    for (int i = 0; i < 5000; ++i) {
        uint64_t a = rng.bounded(64) * 32 * 8;  // Few sets, many tags.
        ASSERT_EQ(reused.access(a), fresh.access(a)) << "access " << i;
        uint64_t b = rng.bounded(4096);
        ASSERT_EQ(reused.probe(b), fresh.probe(b)) << "probe " << i;
    }
    EXPECT_EQ(reused.misses(), fresh.misses());
}

TEST(MemoryHierarchyTest, LatenciesCompose)
{
    SimConfig cfg;
    MemoryHierarchy h(cfg);
    // Cold access: L1 miss + L2 miss + memory.
    uint64_t t1 = h.dataAccess(0x1000, 100);
    EXPECT_EQ(t1, 100 + cfg.l1d.hitLatency + cfg.l2.hitLatency
              + cfg.memLatency);
    // Warm access next cycle: L1 hit.
    uint64_t t2 = h.dataAccess(0x1000, 200);
    EXPECT_EQ(t2, 200 + cfg.l1d.hitLatency);
}

TEST(MemoryHierarchyTest, BankConflictSerializes)
{
    SimConfig cfg;
    cfg.l1d.banks = 2;
    MemoryHierarchy h(cfg);
    h.dataAccess(0, 10);
    h.dataAccess(0, 10);
    // Third same-bank access at the same cycle queues two deep.
    uint64_t t = h.dataAccess(0, 10);
    EXPECT_GE(t, 12 + cfg.l1d.hitLatency);
    // A different bank is free.
    uint64_t u = h.dataAccess(32, 10);
    EXPECT_LE(u, 10 + cfg.l1d.hitLatency + cfg.l2.hitLatency
              + cfg.memLatency);
}

TEST(ArbTest, StoreThenYoungerLoadIsFine)
{
    Arb arb(64);
    arb.recordStore(1, 100);
    arb.recordLoad(2, 100, 0x400);
    // The younger load saw task 1's version: no violation when task 1
    // stores elsewhere or even again to the same address.
    auto r = arb.recordStore(1, 100);
    EXPECT_EQ(r.victim, NO_TASK);
}

TEST(ArbTest, PrematureLoadViolates)
{
    Arb arb(64);
    arb.recordLoad(3, 200, 0x404);     // Task 3 loads first...
    auto r = arb.recordStore(2, 200);  // ...then task 2 stores.
    EXPECT_EQ(r.victim, 3u);
    EXPECT_EQ(r.loadPc, 0x404u);
}

TEST(ArbTest, InterveningStoreShieldsLoad)
{
    Arb arb(64);
    arb.recordStore(3, 300);           // Task 3 stores...
    arb.recordLoad(4, 300, 0x408);     // ...task 4 reads task 3's value.
    auto r = arb.recordStore(2, 300);  // Task 2's store is older than 3.
    EXPECT_EQ(r.victim, NO_TASK) << "load got its value from task 3";
}

TEST(ArbTest, OwnStoreShieldsOwnLoad)
{
    Arb arb(64);
    arb.recordStore(5, 400);
    arb.recordLoad(5, 400, 0x40c);     // Reads its own store.
    auto r = arb.recordStore(4, 400);
    EXPECT_EQ(r.victim, NO_TASK);
}

TEST(ArbTest, OldestViolatorWins)
{
    Arb arb(64);
    arb.recordLoad(5, 500, 0x500);
    arb.recordLoad(3, 500, 0x504);
    auto r = arb.recordStore(2, 500);
    EXPECT_EQ(r.victim, 3u);
}

TEST(ArbTest, SquashRemovesYoungAccesses)
{
    Arb arb(64);
    arb.recordLoad(3, 600, 0x600);
    arb.recordLoad(4, 601, 0x604);
    arb.squashFrom(4);
    auto r = arb.recordStore(2, 601);
    EXPECT_EQ(r.victim, NO_TASK);      // Task 4's load was squashed.
    auto r2 = arb.recordStore(2, 600);
    EXPECT_EQ(r2.victim, 3u);          // Task 3 survives.
}

TEST(ArbTest, RetireReleasesEntries)
{
    Arb arb(2);
    arb.recordLoad(1, 700, 0);
    arb.recordLoad(1, 701, 0);
    EXPECT_TRUE(arb.full());
    arb.retireUpTo(1);
    EXPECT_FALSE(arb.full());
    EXPECT_EQ(arb.entriesInUse(), 0u);
}

namespace {

/**
 * The map-based ARB the flat table replaced, kept as the differential
 * oracle: an unordered_map of per-address access vectors plus a
 * std::map index of the addresses each task first touched.
 */
class MapArb
{
  public:
    explicit MapArb(unsigned capacity) : _capacity(capacity) {}

    bool full() const { return _entries.size() >= _capacity; }
    bool tracked(uint64_t a) const { return _entries.count(a) != 0; }
    size_t entriesInUse() const { return _entries.size(); }

    void
    recordLoad(TaskSeq task, uint64_t addr, uint64_t pc)
    {
        auto &list = _entries[addr];
        TaskSeq src = NO_TASK;
        for (const Access &a : list)
            if (a.stored && a.task <= task &&
                (src == NO_TASK || a.task > src))
                src = a.task;
        for (Access &a : list) {
            if (a.task == task) {
                if (!a.loaded && !a.stored) {
                    a.loaded = true;
                    a.loadSrc = src;
                    a.loadPc = pc;
                } else if (!a.loaded) {
                    a.loaded = true;
                    a.loadSrc = task;
                    a.loadPc = pc;
                }
                return;
            }
        }
        list.push_back({task, true, false, src, pc});
        _byTask[task].push_back(addr);
    }

    Arb::StoreResult
    recordStore(TaskSeq task, uint64_t addr)
    {
        auto &list = _entries[addr];
        Arb::StoreResult res;
        for (const Access &a : list) {
            if (a.task > task && a.loaded &&
                (a.loadSrc == NO_TASK || a.loadSrc < task)) {
                if (res.victim == NO_TASK || a.task < res.victim) {
                    res.victim = a.task;
                    res.loadPc = a.loadPc;
                }
            }
        }
        for (Access &a : list) {
            if (a.task == task) {
                a.stored = true;
                return res;
            }
        }
        list.push_back({task, false, true, NO_TASK, 0});
        _byTask[task].push_back(addr);
        return res;
    }

    void
    squashFrom(TaskSeq task)
    {
        auto first = _byTask.lower_bound(task);
        for (auto it = first; it != _byTask.end(); ++it)
            filter(it->second, task, false);
        _byTask.erase(first, _byTask.end());
    }

    void
    retireUpTo(TaskSeq task)
    {
        auto last = _byTask.upper_bound(task);
        for (auto it = _byTask.begin(); it != last; ++it)
            filter(it->second, task, true);
        _byTask.erase(_byTask.begin(), last);
    }

  private:
    struct Access
    {
        TaskSeq task;
        bool loaded, stored;
        TaskSeq loadSrc;
        uint64_t loadPc;
    };

    void
    filter(const std::vector<uint64_t> &addrs, TaskSeq task, bool retire)
    {
        for (uint64_t addr : addrs) {
            auto it = _entries.find(addr);
            if (it == _entries.end())
                continue;
            auto &list = it->second;
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [&](const Access &a) {
                                          return retire ? a.task <= task
                                                        : a.task >= task;
                                      }),
                       list.end());
            if (list.empty())
                _entries.erase(it);
        }
    }

    unsigned _capacity;
    std::unordered_map<uint64_t, std::vector<Access>> _entries;
    std::map<TaskSeq, std::vector<uint64_t>> _byTask;
};

} // anonymous namespace

/**
 * 10k random operations driven the way the simulator drives the ARB:
 * non-head tasks stall on a full ARB for untracked addresses, the
 * head task accesses past capacity, violations squash their victim
 * and younger tasks, and retire commits the head. Up to six tasks are
 * in flight against a two-record hint, so per-address blocks widen
 * while other blocks hold records.
 */
TEST(ArbTest, FlatTableMatchesMapArb)
{
    Arb arb(8, 2);
    MapArb ref(8);
    fuzz::Rng rng(test::effectiveSeed(21));
    TaskSeq head = 0, tail = 0;
    unsigned past_capacity = 0, squashes = 0, retires = 0;
    for (int step = 0; step < 10000; ++step) {
        SCOPED_TRACE(step);
        unsigned op = unsigned(rng.bounded(100));
        TaskSeq t = head + rng.bounded(tail - head + 1);
        // Mostly a small hot set, sometimes a cold address.
        uint64_t a = rng.bounded(4) ? rng.bounded(24) : rng.bounded(4096);
        if (op < 70) {
            ASSERT_EQ(arb.full(), ref.full());
            ASSERT_EQ(arb.tracked(a), ref.tracked(a));
            if (t != head && ref.full() && !ref.tracked(a))
                continue;  // ARB-overflow stall.
            if (ref.full() && !ref.tracked(a))
                ++past_capacity;
            if (op < 35) {
                arb.recordLoad(t, a, 0x400 + step);
                ref.recordLoad(t, a, 0x400 + step);
            } else {
                Arb::StoreResult got = arb.recordStore(t, a);
                Arb::StoreResult want = ref.recordStore(t, a);
                ASSERT_EQ(got.victim, want.victim);
                ASSERT_EQ(got.loadPc, want.loadPc);
                if (want.victim != NO_TASK) {
                    arb.squashFrom(want.victim);
                    ref.squashFrom(want.victim);
                    tail = want.victim > head ? want.victim - 1 : head;
                    ++squashes;
                }
            }
        } else if (op < 82) {
            if (tail - head < 5)
                ++tail;
        } else if (op < 88) {
            // Control squash of a random suffix.
            arb.squashFrom(t);
            ref.squashFrom(t);
            tail = t > head ? t - 1 : head;
            ++squashes;
        } else {
            arb.retireUpTo(head);
            ref.retireUpTo(head);
            if (head == tail)
                ++tail;
            ++head;
            ++retires;
        }
        ASSERT_EQ(arb.entriesInUse(), ref.entriesInUse());
    }
    EXPECT_GT(past_capacity, 0u);
    EXPECT_GT(squashes, 0u);
    EXPECT_GT(retires, 0u);
}

/** More tasks in flight than the record hint widen every address's
 *  block without losing records of other addresses. */
TEST(ArbTest, BlocksWidenPastTheTaskHint)
{
    Arb arb(64, 2);
    arb.recordLoad(2, 200, 0x22);       // Block of 200: tasks 2, 1.
    arb.recordLoad(1, 200, 0x21);
    arb.recordLoad(1, 100, 0x11);
    arb.recordLoad(2, 100, 0x12);
    arb.recordLoad(3, 100, 0x13);       // Third record: widen.
    auto r = arb.recordStore(0, 200);
    EXPECT_EQ(r.victim, 1u);
    EXPECT_EQ(r.loadPc, 0x21u);
    auto r2 = arb.recordStore(0, 100);
    EXPECT_EQ(r2.victim, 1u);
    arb.retireUpTo(3);
    EXPECT_EQ(arb.entriesInUse(), 0u);
}

TEST(SyncTableTest, RemembersAndEvicts)
{
    SyncTable st(2);
    st.insert(0x10, 0x90);
    st.insert(0x20, 0xa0);
    EXPECT_EQ(st.producerOf(0x10), 0x90u);
    EXPECT_EQ(st.producerOf(0x20), 0xa0u);
    EXPECT_EQ(st.producerOf(0x30), 0u);
    st.insert(0x30, 0xb0);             // Evicts one entry.
    EXPECT_EQ(st.size(), 2u);
    EXPECT_EQ(st.producerOf(0x30), 0xb0u);
}

TEST(GshareTest, LearnsBias)
{
    Gshare g(8, 1024);
    for (int i = 0; i < 16; ++i)
        g.update(0x40, true);
    EXPECT_TRUE(g.predict(0x40));
    for (int i = 0; i < 16; ++i)
        g.update(0x40, false);
    EXPECT_FALSE(g.predict(0x40));
}

TEST(GshareTest, LearnsAlternation)
{
    Gshare g(8, 4096);
    // Strict alternation is capturable through history.
    bool v = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        v = !v;
        if (i > 100 && g.predict(0x80) == v)
            ++correct;
        g.update(0x80, v);
    }
    EXPECT_GT(correct, 280);
}

TEST(TaskPredictorTest, LearnsDominantTarget)
{
    TaskPredictor tp(8, 4096, 4);
    for (int i = 0; i < 32; ++i)
        tp.update(0x100, 2);
    EXPECT_EQ(tp.predict(0x100), 2u);
}

TEST(TaskPredictorTest, PathHistoryDisambiguates)
{
    TaskPredictor tp(8, 1 << 16, 4);
    // Task B's successor depends on whether A or C preceded it:
    // sequence A->B->0, C->B->1, repeated. A path-based predictor
    // learns it; a history-less table would sit near 50%.
    int correct = 0, total = 0;
    for (int round = 0; round < 300; ++round) {
        bool via_a = (round & 1) == 0;
        tp.update(via_a ? 0xA00 : 0xC00, 0);
        unsigned pred = tp.predict(0xB00);
        unsigned actual = via_a ? 0 : 1;
        if (round > 100) {
            ++total;
            if (pred == actual)
                ++correct;
        }
        tp.update(0xB00, actual);
    }
    EXPECT_GT(correct * 100, total * 90);
}

TEST(RasTest, LifoBehaviour)
{
    ReturnAddressStack ras(4);
    ras.push({0, 1});
    ras.push({0, 2});
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 2}));
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 1}));
    EXPECT_FALSE(ras.pop().valid());
}

TEST(RasTest, OverflowDropsOldest)
{
    ReturnAddressStack ras(2);
    ras.push({0, 1});
    ras.push({0, 2});
    ras.push({0, 3});
    EXPECT_EQ(ras.size(), 2u);
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 3}));
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 2}));
    EXPECT_FALSE(ras.pop().valid());
}

TEST(RingTest, AdjacentBypassSameCycle)
{
    Ring ring(4, 2);
    std::vector<uint64_t> arr(4);
    ring.broadcast(0, 100, 100, arr.data());
    EXPECT_EQ(arr[0], 100u);
    EXPECT_EQ(arr[1], 100u);   // Same-cycle bypass to the neighbour.
    EXPECT_EQ(arr[2], 101u);
    EXPECT_EQ(arr[3], 102u);
}

TEST(RingTest, BandwidthLimitsQueueing)
{
    Ring ring(2, 1);           // 1 value/cycle/link.
    std::vector<uint64_t> a1(2), a2(2), a3(2);
    ring.broadcast(0, 50, 50, a1.data());
    ring.broadcast(0, 50, 50, a2.data());
    ring.broadcast(0, 50, 50, a3.data());
    EXPECT_EQ(a1[1], 50u);
    EXPECT_EQ(a2[1], 51u);     // Second value waits a cycle.
    EXPECT_EQ(a3[1], 52u);
}

TEST(RingTest, WrapsAroundFromAnyPu)
{
    Ring ring(4, 2);
    std::vector<uint64_t> arr(4);
    ring.broadcast(2, 10, 10, arr.data());
    EXPECT_EQ(arr[2], 10u);
    EXPECT_EQ(arr[3], 10u);
    EXPECT_EQ(arr[0], 11u);
    EXPECT_EQ(arr[1], 12u);
}

namespace {

/** The sliding-window ring the fixed slots replaced (differential
 *  oracle), including the periodic trim the simulator used to run. */
class SlidingRing
{
  public:
    SlidingRing(unsigned num_pus, unsigned bandwidth)
        : _numPUs(num_pus), _bandwidth(bandwidth), _links(num_pus)
    {}

    void
    broadcast(unsigned from, uint64_t when, std::vector<uint64_t> &arr)
    {
        arr.assign(_numPUs, 0);
        arr[from] = when;
        uint64_t t = when;
        unsigned p = from;
        for (unsigned hop = 1; hop < _numPUs; ++hop) {
            Link &l = _links[p];
            while (slot(l, t) >= _bandwidth)
                ++t;
            ++slot(l, t);
            p = (p + 1) % _numPUs;
            arr[p] = t;
            ++t;
        }
    }

    void
    trimBefore(uint64_t cycle)
    {
        for (auto &l : _links) {
            if (cycle <= l.base)
                continue;
            size_t drop = size_t(cycle - l.base);
            if (drop >= l.used.size())
                l.used.clear();
            else
                l.used.erase(l.used.begin(),
                             l.used.begin() + ptrdiff_t(drop));
            l.base = cycle;
        }
    }

  private:
    struct Link
    {
        uint64_t base = 0;
        std::vector<unsigned> used;
    };

    unsigned &
    slot(Link &l, uint64_t t)
    {
        if (l.used.empty()) {
            l.base = t;
            l.used.assign(64, 0);
        } else if (t < l.base) {
            l.used.insert(l.used.begin(), size_t(l.base - t), 0);
            l.base = t;
        } else if (t - l.base >= l.used.size()) {
            l.used.resize(size_t(t - l.base) + 64, 0);
        }
        return l.used[size_t(t - l.base)];
    }

    unsigned _numPUs;
    unsigned _bandwidth;
    std::vector<Link> _links;
};

} // anonymous namespace

/**
 * 10k broadcasts under the window bound (non-decreasing now, when >=
 * now): bursts of same-cycle sends queue on 1-value links, and rare
 * far-future sends force the slot buffers to grow. Time starts just
 * below a 2^16 boundary so the oracle's periodic trim runs too.
 */
TEST(RingTest, SlotsMatchSlidingWindow)
{
    for (unsigned bw : {1u, 2u}) {
        SCOPED_TRACE(bw);
        Ring ring(6, bw);
        SlidingRing ref(6, bw);
        fuzz::Rng rng(test::effectiveSeed(31 + bw));
        uint64_t now = 0xff00;
        std::vector<uint64_t> got(6), want;
        for (int i = 0; i < 10000; ++i) {
            uint64_t prev = now;
            now += rng.bounded(4) == 0 ? rng.bounded(3) : 0;
            if ((now & ~0xffffull) != (prev & ~0xffffull))
                ref.trimBefore((now & ~0xffffull) - 1024);
            uint64_t when = now + (rng.bounded(50) == 0
                                       ? rng.bounded(600)
                                       : rng.bounded(4));
            unsigned from = unsigned(rng.bounded(6));
            ring.broadcast(from, when, now, got.data());
            ref.broadcast(from, when, want);
            ASSERT_EQ(got, want) << "broadcast " << i;
        }
    }
}

// ---------------------------------------------------------------------
// SimStats formatting.

TEST(FormatBucketsTest, PercentColumnSumsToWhole)
{
    SimStats s;
    s.buckets.add(CycleKind::Useful, 600);
    s.buckets.add(CycleKind::TaskStart, 250);
    s.buckets.add(CycleKind::LoadImbalance, 150);
    std::string out = formatBuckets(s);

    EXPECT_NE(out.find("useful"), std::string::npos);
    EXPECT_NE(out.find("60.0%"), std::string::npos);
    EXPECT_NE(out.find("25.0%"), std::string::npos);
    EXPECT_NE(out.find("15.0%"), std::string::npos);
    // Total row carries the occupied sum.
    EXPECT_NE(out.find("total-occupied"), std::string::npos);
    EXPECT_NE(out.find("1000"), std::string::npos);
    // The dominant category gets the longest bar.
    EXPECT_NE(out.find("|###"), std::string::npos);
}

TEST(FormatBucketsTest, EveryKindListedOnce)
{
    SimStats s;
    std::string out = formatBuckets(s);
    for (size_t i = 0; i < NUM_CYCLE_KINDS; ++i)
        EXPECT_NE(out.find(cycleKindName(CycleKind(i))),
                  std::string::npos)
            << cycleKindName(CycleKind(i));
}

TEST(FormatBucketsTest, ZeroTotalRendersZeroPercents)
{
    SimStats s;                     // All buckets zero.
    std::string out = formatBuckets(s);
    EXPECT_EQ(out.find("nan"), std::string::npos);
    EXPECT_EQ(out.find("inf"), std::string::npos);
    EXPECT_EQ(out.find('#'), std::string::npos);  // No bars.
    EXPECT_NE(out.find("0.0%"), std::string::npos);
    EXPECT_NE(out.find("total-occupied"), std::string::npos);
}

TEST(SimStatsTest, RegisterHistogramMatchesArchRegCount)
{
    // The shared constant (arch/config.h) keeps the diagnostic
    // histogram and the IR's register file in lockstep.
    SimStats s;
    EXPECT_EQ(s.extWaitByReg.size(), size_t(NUM_REGS));
    EXPECT_EQ(unsigned(NUM_REGS), unsigned(msc::ir::NUM_REGS));
}
