/**
 * @file
 * Cuts a dynamic instruction trace into the stream of dynamic tasks a
 * Multiscalar sequencer would dispatch (§2.2): a dynamic task is a
 * contiguous trace fragment beginning at a task entry block; it ends
 * when control reaches a block owned by a different task or re-enters
 * a task entry. Calls marked for inclusion by the task-size heuristic
 * keep the current task open through the entire callee execution.
 * A dynamic task is a range of the trace, not a copy, so the
 * partitions of one program share one trace.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "profile/trace.h"
#include "tasksel/task.h"

namespace msc {
namespace arch {

/** One dynamic task instance in program order. */
struct DynTask
{
    tasksel::TaskId staticTask = tasksel::INVALID_TASK;

    /** Number of control-transfer instructions (Table 1 "#ct inst"). */
    uint32_t ctlInsts = 0;

    /** The task's instructions: trace entries [begin, end). */
    uint64_t begin = 0, end = 0;

    /**
     * Index of the actual successor in the static task's target list;
     * -1 when the successor was not an exposed target (forced
     * misprediction) or when this is the final task.
     */
    int actualTargetIdx = -1;

    /** Kind of the actual successor target. */
    tasksel::TargetKind actualKind = tasksel::TargetKind::Block;

    /** Entry block of the successor dynamic task (invalid at end). */
    ir::BlockRef nextEntry;

    /** True when this task ends the program. */
    bool last = false;

    /** True when this task's final control transfer is a Call whose
     *  callee begins the next task (push a return site). */
    bool endsInCall = false;

    /** Return site pushed when endsInCall (continuation entry). */
    ir::BlockRef callReturnSite;

    size_t size() const { return end - begin; }
};

/** The dynamic tasks of one trace under one partition. */
struct TaskStream
{
    /** The trace the tasks are ranges of; shared, immutable. */
    std::shared_ptr<const profile::Trace> trace;

    std::vector<DynTask> tasks;

    /** One bit per trace entry, set inside included callees, which
     *  forward no register early. Empty when no call is included. */
    std::vector<bool> inCallee;

    size_t size() const { return tasks.size(); }
    bool empty() const { return tasks.empty(); }
    const DynTask &operator[](size_t i) const { return tasks[i]; }

    /** The instructions of @p t. */
    std::span<const profile::TraceEntry>
    insts(const DynTask &t) const
    {
        return {trace->entries.data() + t.begin, t.size()};
    }

    /** True when trace entry @p i runs inside an included callee. */
    bool
    inIncludedCallee(uint64_t i) const
    {
        return !inCallee.empty() && inCallee[i];
    }
};

/**
 * Builds the dynamic task stream for @p trace under @p part.
 *
 * Every block boundary in the trace is checked against the partition;
 * a malformed partition (control entering the middle of a task)
 * throws.
 */
TaskStream cutTasks(std::shared_ptr<const profile::Trace> trace,
                    const tasksel::TaskPartition &part);

} // namespace arch
} // namespace msc
