/**
 * @file
 * The timing model's busy path does not allocate.
 *
 * This binary replaces the global operator new with a counting one
 * and simulates a cell at two trace lengths on a warm thread (a first
 * call has filled the per-thread cache arrays). Per-call set-up
 * allocates a fixed amount; grow-only containers (the pooled
 * instances' per-register lists, the ARB table, the store-PC pool)
 * add at most one allocation per list and a logarithmic number per
 * pool. So the extra allocations of the tenfold trace must stay far
 * below one per extra task; a per-task, per-ARB-access or
 * per-broadcast allocation would add several per task (the map-based
 * model made about four).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/selector.h"
#include "tasksel/transforms.h"
#include "workloads/workload.h"

namespace {
std::atomic<uint64_t> allocations{0};
} // anonymous namespace

void *
operator new(size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }

using namespace msc;
using namespace msc::arch;

TEST(SimAlloc, BusyPathDoesNotAllocatePerTask)
{
    for (const char *name : {"compress", "tomcatv"}) {
        SCOPED_TRACE(name);
        ir::Program prog =
            workloads::buildWorkload(name, workloads::Scale::Small);
        tasksel::hoistInductionVariables(prog);
        profile::Profile prof = profile::profileProgram(prog);
        tasksel::SelectionOptions opts;
        opts.strategy = tasksel::Strategy::ControlFlow;
        tasksel::TaskPartition part =
            tasksel::selectTasks(prog, prof, opts);
        std::vector<TaskStream> streams;
        for (uint64_t insts : {20'000, 200'000}) {
            profile::Interpreter interp(prog);
            streams.push_back(cutTasks(
                std::make_shared<const profile::Trace>(
                    interp.trace(insts)),
                part));
        }

        for (unsigned pus : {4u, 8u}) {
            SimConfig cfg = SimConfig::paperConfig(pus, true);
            std::vector<uint64_t> counts;
            std::vector<size_t> tasks;
            for (const TaskStream &stream : streams) {
                simulate(part, stream, cfg);  // Warm the thread.
                uint64_t before = allocations.load();
                simulate(part, stream, cfg);
                counts.push_back(allocations.load() - before);
                tasks.push_back(stream.size());
            }
            ASSERT_GT(tasks[1], tasks[0] + 1500);
            EXPECT_LE(counts[1], counts[0] + (tasks[1] - tasks[0]) / 20)
                << pus << " PUs: " << counts[0] << " allocations for "
                << tasks[0] << " tasks, " << counts[1] << " for "
                << tasks[1];
        }
    }
}
