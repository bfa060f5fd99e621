/**
 * @file
 * Absolute golden values for the timing model.
 *
 * test_eventcore proves the cycle and event cores agree with each
 * other, but both cores share the ARB, the register ring and the
 * cache hierarchy, so a drift inside one of those components moves
 * both cores together and passes that test unnoticed. This file pins
 * the full SimStats of a small grid of cells (strategy x PU count x
 * issue discipline over three workloads) to values recorded from the
 * reference implementation. Any change to a golden value is a change
 * to the simulated machine and must be justified as such.
 *
 * On a mismatch the test prints the cell's actual row in table
 * syntax, so a deliberate model change can be re-pinned by pasting.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/selector.h"
#include "tasksel/transforms.h"
#include "workloads/workload.h"

using namespace msc;
using namespace msc::arch;
using tasksel::Strategy;

namespace {

/** Dynamic instructions traced per workload (keeps the test fast). */
constexpr uint64_t TRACE_INSTS = 200'000;

struct Golden
{
    const char *workload;
    const char *strategy;
    unsigned pus;
    bool ooo;
    /** ARB entries per PU; 0 keeps the paper's 32. */
    unsigned arbPerPU;

    uint64_t cycles, retiredInsts, retiredTasks, idlePuCycles;
    uint64_t taskPredictions, taskMispredictions;
    uint64_t branchPredictions, branchMispredictions;
    uint64_t memViolations, tasksSquashedCtrl, tasksSquashedMem;
    uint64_t syncStallCycles, arbOverflowStalls;
    uint64_t l1iAccesses, l1iMisses, l1dAccesses, l1dMisses;
    uint64_t dynTaskCtlInsts, eventSkippedCycles;
    /** measuredWindowSpan, bit-exact via hexfloat text. */
    const char *windowSpan;
    std::array<uint64_t, NUM_CYCLE_KINDS> buckets;
    /** FNV-1a over extWaitByReg and puOccupiedCycles. */
    uint64_t extWaitDigest, puOccupiedDigest;
    /** Task-size heuristics on, in the transform and the selection. */
    bool sized = false;
};

// clang-format off
const Golden GOLDEN[] = {
    {"compress", "bb", 4, true, 0,
     240113, 96802, 25486, 3174,
     22085, 870, 10381, 963,
     0, 2494, 0, 0, 0,
     35771, 7, 7926, 1915,
     22484, 120751, "0x1.c99399492348ep+3",
     {50972, 88585, 229560, 170398, 13298, 282924, 50972, 68075, 0},
     0xa22111dcc9366dd3ull, 0x89fa19eb37f7a7b1ull},
    {"li", "bb", 4, false, 0,
     26372, 15815, 5289, 62,
     5286, 23, 2264, 61,
     0, 41, 0, 0, 0,
     7797, 7, 3250, 126,
     5274, 8195, "0x1.6686e4647d571p+3",
     {10578, 11805, 37636, 15282, 1605, 17257, 10578, 644, 0},
     0xd81487f35cf269f0ull, 0xa6017e828b01ec42ull},
    {"tomcatv", "bb", 8, true, 0,
     60495, 66933, 7086, 329,
     6493, 45, 3013, 87,
     0, 128, 0, 0, 0,
     15698, 13, 11048, 1024,
     7051, 18328, "0x1.905d2a936005dp+6",
     {14172, 56760, 34209, 59878, 6585, 295798, 14172, 1929, 0},
     0xe01199b1d2d1fc76ull, 0x4593e59e0ebfaac6ull},
    {"compress", "bb", 8, false, 0,
     191336, 96802, 25486, 19680,
     24722, 870, 10381, 1086,
     0, 5463, 0, 0, 0,
     35771, 7, 7926, 1854,
     22484, 84235, "0x1.c1ab86ca9ee83p+4",
     {50972, 85407, 304378, 172989, 11216, 667570, 50972, 162041, 0},
     0x932f46b0c086f107ull, 0x6f846ef8d549c4a3ull},
    {"li", "cf", 4, true, 0,
     15321, 15815, 2775, 135,
     2774, 34, 2264, 61,
     1, 87, 1, 2, 0,
     5549, 7, 3251, 126,
     5274, 3635, "0x1.54d3f028e7633p+4",
     {5550, 11637, 23724, 7458, 853, 4368, 5550, 1916, 6},
     0x89d22b52df00e5c3ull, 0x196a066957707ffull},
    {"tomcatv", "cf", 4, false, 0,
     75734, 66933, 3048, 138,
     2610, 27, 3013, 87,
     0, 79, 0, 0, 0,
     11695, 13, 11048, 1024,
     7051, 27953, "0x1.c2cb8b95891c2p+6",
     {6096, 48579, 32469, 112447, 5542, 83194, 6096, 8296, 0},
     0x1cc6e8a1f83dd21ull, 0x131dcfea3067f48cull},
    {"compress", "cf", 8, true, 0,
     153191, 96802, 15104, 17340,
     14052, 897, 10381, 1009,
     0, 5125, 0, 0, 0,
     25494, 7, 7926, 1854,
     22484, 74330, "0x1.3c4194cfadfebp+5",
     {30208, 87537, 220853, 163402, 12878, 471523, 30208, 186454, 0},
     0xda7479a202db9a5eull, 0x6a3ff105b3313bb0ull},
    {"li", "cf", 8, false, 0,
     21562, 15815, 2775, 950,
     2779, 36, 2265, 61,
     1, 233, 5, 13, 0,
     5555, 7, 3251, 126,
     5274, 8285, "0x1.46a35247305eap+5",
     {5550, 9598, 120415, 12849, 1603, 9607, 5550, 6121, 20},
     0x6cc66b87896e9691ull, 0x275f78041ff99f8ull},
    {"tomcatv", "dd", 4, true, 0,
     58299, 66933, 3048, 139,
     2706, 28, 3013, 87,
     0, 81, 0, 0, 0,
     11695, 13, 11048, 1024,
     7051, 22424, "0x1.9c46ae177e209p+6",
     {6096, 51006, 34215, 55724, 6581, 66453, 6096, 6805, 0},
     0x2b0714810ce13193ull, 0xc8b10ed1f87d8db5ull},
    {"compress", "dd", 4, false, 0,
     189327, 96802, 15104, 3608,
     12998, 897, 10381, 946,
     0, 2689, 0, 0, 0,
     25494, 7, 7926, 1915,
     22484, 98592, "0x1.5b47ab1def77fp+4",
     {30208, 77681, 90667, 165968, 7753, 250245, 30208, 98281, 0},
     0xb1d06a5d7bc72d1dull, 0xaa38001a0ba1fc6cull},
    {"li", "dd", 8, true, 0,
     12541, 15815, 2775, 789,
     2777, 35, 2265, 61,
     1, 198, 5, 5, 0,
     5555, 7, 3251, 126,
     5274, 1330, "0x1.505eb76e7eedap+5",
     {5550, 11723, 53809, 4977, 853, 11917, 5550, 4942, 20},
     0x2cd7aa86a9ea877ull, 0xc37e6fc5d3e4431eull},
    {"tomcatv", "dd", 8, false, 0,
     41954, 66933, 3048, 742,
     2776, 28, 3013, 87,
     0, 177, 0, 0, 0,
     11695, 13, 11048, 1024,
     7051, 12179, "0x1.ae78960ef63fcp+7",
     {6096, 48579, 39711, 112606, 5542, 98138, 6096, 17945, 0},
     0xbe2c5a54fe12125eull, 0xaa5599326c0f3bbcull},
    {"gcc", "dd", 4, true, 2,
     79551, 70514, 2109, 138,
     2107, 30, 5368, 1958,
     0, 84, 0, 0, 23325,
     11934, 16, 12450, 614,
     7366, 26139, "0x1.4db60c87f8331p+7",
     {4218, 49581, 210586, 35911, 3567, 2191, 4218, 7710, 0},
     0xa9e81f341830f01dull, 0x93f71412f7eef47bull},
    {"tomcatv", "cf", 8, true, 1,
     88465, 66933, 3048, 758,
     2953, 25, 3013, 87,
     0, 170, 0, 0, 1523235,
     11695, 13, 11048, 1024,
     7051, 39324, "0x1.d82a70c282785p+7",
     {6096, 55219, 197, 577478, 6582, 39815, 6096, 15309, 0},
     0x9837b80d29cb77f2ull, 0x18788c0e5c8da6b3ull},
    {"go", "cf", 4, true, 0,
     29292, 33099, 1310, 78,
     1222, 15, 5960, 3442,
     0, 42, 0, 0, 0,
     8587, 15, 3816, 256,
     10447, 8376, "0x1.9bae9df11b95p+6",
     {2620, 25772, 34084, 25030, 1377, 20664, 2620, 4881, 0},
     0xe801a9182b3ba8a6ull, 0xd0e374658432d2b7ull, true},
    {"perl", "dd", 8, false, 0,
     134390, 94367, 5037, 16573,
     5034, 733, 14252, 5053,
     0, 4566, 0, 0, 0,
     27510, 16, 4015, 1105,
     28537, 54103, "0x1.a6e0cf21b0ac1p+6",
     {10074, 72374, 374335, 89406, 15701, 58029, 10074, 423988, 0},
     0xdeee4e1c5560d128ull, 0x2c004d23ab026430ull, true},
    {"vortex", "bb", 4, true, 0,
     290686, 123897, 28322, 18030,
     25279, 4796, 15208, 2954,
     0, 13906, 0, 0, 0,
     37343, 17, 7442, 3987,
     28320, 136874, "0x1.f2ad02ac062a3p+3",
     {56644, 107672, 163495, 207267, 2268, 410650, 56644, 126168, 0},
     0xfb361c660b2babd0ull, 0x4e6ab44093253439ull, true},
};
// clang-format on

Strategy
strategyOf(const std::string &s)
{
    if (s == "bb")
        return Strategy::BasicBlock;
    if (s == "cf")
        return Strategy::ControlFlow;
    return Strategy::DataDependence;
}

struct Prepared
{
    ir::Program prog;
    tasksel::TaskPartition part;
    TaskStream tasks;
};

const Prepared &
prepared(const Golden &g)
{
    static std::map<std::string, Prepared> memo;
    std::string key = std::string(g.workload) + "/" + g.strategy +
        (g.sized ? "/sized" : "");
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    // Built in place: the partition points into the program.
    Prepared &p = memo[key];
    p.prog = workloads::buildWorkload(g.workload, workloads::Scale::Small);
    tasksel::SelectionOptions opts;
    opts.strategy = strategyOf(g.strategy);
    opts.taskSizeHeuristic = g.sized;
    tasksel::hoistInductionVariables(p.prog);
    if (g.sized)
        tasksel::unrollSmallLoops(p.prog, opts.loopThresh);
    profile::Profile prof = profile::profileProgram(p.prog);
    p.part = tasksel::selectTasks(p.prog, prof, opts);
    profile::Interpreter in(p.prog);
    p.tasks = cutTasks(
        std::make_shared<const profile::Trace>(in.trace(TRACE_INSTS)),
        p.part);
    return p;
}

uint64_t
fnv(const uint64_t *v, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v[i] >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::string
hexfloat(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", d);
    return buf;
}

/** The cell's actual stats as one GOLDEN row. */
std::string
row(const Golden &g, const SimStats &s)
{
    char buf[1024];
    std::string b = "{";
    for (size_t k = 0; k < NUM_CYCLE_KINDS; ++k)
        b += (k ? ", " : "") + std::to_string(s.buckets.counts[k]);
    b += "}";
    std::snprintf(
        buf, sizeof buf,
        "    {\"%s\", \"%s\", %u, %s, %u,\n"
        "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n"
        "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n"
        "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ",\n"
        "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n"
        "     %" PRIu64 ", %" PRIu64 ", \"%s\",\n"
        "     %s,\n"
        "     0x%" PRIx64 "ull, 0x%" PRIx64 "ull%s},\n",
        g.workload, g.strategy, g.pus, g.ooo ? "true" : "false",
        g.arbPerPU,
        s.cycles, s.retiredInsts, s.retiredTasks, s.idlePuCycles,
        s.taskPredictions, s.taskMispredictions, s.branchPredictions,
        s.branchMispredictions, s.memViolations, s.tasksSquashedCtrl,
        s.tasksSquashedMem, s.syncStallCycles, s.arbOverflowStalls,
        s.l1iAccesses, s.l1iMisses, s.l1dAccesses, s.l1dMisses,
        s.dynTaskCtlInsts, s.eventSkippedCycles,
        hexfloat(s.measuredWindowSpan).c_str(), b.c_str(),
        fnv(s.extWaitByReg.data(), s.extWaitByReg.size()),
        fnv(s.puOccupiedCycles.data(), s.puOccupiedCycles.size()),
        g.sized ? ", true" : "");
    return buf;
}

SimStats
runCell(const Golden &g, CoreMode mode)
{
    const Prepared &p = prepared(g);
    SimConfig cfg = SimConfig::paperConfig(g.pus, g.ooo);
    cfg.coreMode = mode;
    if (g.arbPerPU)
        cfg.arbEntriesPerPU = g.arbPerPU;
    return simulate(p.part, p.tasks, cfg);
}

void
expectGolden(const Golden &g, const SimStats &s, const char *core)
{
    SCOPED_TRACE(std::string(g.workload) + "/" + g.strategy + "/" +
                 std::to_string(g.pus) + (g.ooo ? "/ooo/" : "/ino/") +
                 "arb" + std::to_string(g.arbPerPU) +
                 (g.sized ? "/sized/" : "/") + core);
    bool ok = s.cycles == g.cycles && s.retiredInsts == g.retiredInsts &&
        s.retiredTasks == g.retiredTasks &&
        s.idlePuCycles == g.idlePuCycles &&
        s.taskPredictions == g.taskPredictions &&
        s.taskMispredictions == g.taskMispredictions &&
        s.branchPredictions == g.branchPredictions &&
        s.branchMispredictions == g.branchMispredictions &&
        s.memViolations == g.memViolations &&
        s.tasksSquashedCtrl == g.tasksSquashedCtrl &&
        s.tasksSquashedMem == g.tasksSquashedMem &&
        s.syncStallCycles == g.syncStallCycles &&
        s.arbOverflowStalls == g.arbOverflowStalls &&
        s.l1iAccesses == g.l1iAccesses && s.l1iMisses == g.l1iMisses &&
        s.l1dAccesses == g.l1dAccesses && s.l1dMisses == g.l1dMisses &&
        s.dynTaskCtlInsts == g.dynTaskCtlInsts &&
        hexfloat(s.measuredWindowSpan) == g.windowSpan &&
        s.buckets.counts == g.buckets &&
        fnv(s.extWaitByReg.data(), s.extWaitByReg.size()) ==
            g.extWaitDigest &&
        fnv(s.puOccupiedCycles.data(), s.puOccupiedCycles.size()) ==
            g.puOccupiedDigest;
    // eventSkippedCycles is a property of the event core only.
    if (std::string(core) == "event")
        ok = ok && s.eventSkippedCycles == g.eventSkippedCycles;
    EXPECT_TRUE(ok) << "actual row:\n" << row(g, s);
}

} // anonymous namespace

/** The paper-ARB rows cover every strategy x PU count x issue
 *  discipline; the starved-ARB rows add overflow stalls and head
 *  accesses past capacity, and the sized rows included callees. */
TEST(SimGolden, TableCoversTheGrid)
{
    std::map<std::string, int> seen;
    size_t sized = 0;
    for (const Golden &g : GOLDEN) {
        sized += g.sized;
        if (!g.arbPerPU && !g.sized)
            seen[std::string(g.strategy) + std::to_string(g.pus) +
                 (g.ooo ? "o" : "i")]++;
    }
    EXPECT_EQ(seen.size(), 12u);
    EXPECT_GE(sized, 2u);
    for (const auto &kv : seen)
        EXPECT_GE(kv.second, 1) << kv.first;
}

TEST(SimGolden, EventCoreMatchesPinnedStats)
{
    for (const Golden &g : GOLDEN)
        expectGolden(g, runCell(g, CoreMode::Event), "event");
}

TEST(SimGolden, CycleCoreMatchesPinnedStats)
{
    for (const Golden &g : GOLDEN)
        expectGolden(g, runCell(g, CoreMode::Cycle), "cycle");
}
