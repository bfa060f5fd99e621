#include "arch/taskstream.h"

#include <stdexcept>

namespace msc {
namespace arch {

using namespace ir;
using namespace tasksel;

TaskStream
cutTasks(std::shared_ptr<const profile::Trace> trace,
         const TaskPartition &part)
{
    const Program &prog = *part.prog;
    TaskStream out;
    out.trace = std::move(trace);
    const std::vector<profile::TraceEntry> &entries = out.trace->entries;
    if (entries.empty())
        return out;

    unsigned depth = 0;           // Included-call nesting depth.
    DynTask *cur = nullptr;

    auto openTask = [&](BlockRef entry, uint64_t begin) {
        TaskId tid = part.taskIdOf(entry);
        if (tid == INVALID_TASK)
            throw std::runtime_error("trace block not in any task");
        if (part.tasks[tid].entry != entry.block)
            throw std::runtime_error("dynamic entry into task middle");
        if (cur)
            cur->end = begin;
        out.tasks.emplace_back();
        cur = &out.tasks.back();
        cur->staticTask = tid;
        cur->begin = begin;
    };

    for (size_t i = 0; i < entries.size(); ++i) {
        const profile::TraceEntry &e = entries[i];
        BlockRef blk{e.ref.func, e.ref.block};

        if (e.ref.index == 0 && depth == 0) {
            TaskId tid = part.taskIdOf(blk);
            bool cut = (cur == nullptr) || tid != cur->staticTask ||
                part.tasks[tid].entry == blk.block;
            // Entering a non-entry block of the current task is
            // intra-task control flow: no cut.
            if (cut) {
                if (cur) {
                    // Record the successor of the closing task.
                    const Task &st = part.tasks[cur->staticTask];
                    const InstRef &last = entries[i - 1].ref;
                    const Instruction &li = prog.inst(last);
                    TaskTarget actual;
                    if (li.op == Opcode::Ret) {
                        actual = {TargetKind::Return, {}};
                    } else {
                        actual = {TargetKind::Block,
                                  {blk.func, part.tasks[tid].entry}};
                    }
                    cur->actualKind = actual.kind;
                    cur->actualTargetIdx = st.targetIndex(actual);
                    cur->nextEntry = blk;
                    if (li.op == Opcode::Call) {
                        cur->endsInCall = true;
                        const BasicBlock &cb = prog.block(last.blockRef());
                        cur->callReturnSite = {last.func, cb.fallthrough};
                    }
                }
                openTask(blk, i);
            }
        }

        const Instruction &inst = prog.inst(e.ref);
        if (depth > 0) {
            if (out.inCallee.empty())
                out.inCallee.resize(entries.size());
            out.inCallee[i] = true;
        }
        if (inst.isControl())
            cur->ctlInsts++;

        if (inst.op == Opcode::Call) {
            if (depth > 0) {
                ++depth;  // Nested call within an included callee.
            } else if (part.callIncluded(blk)) {
                depth = 1;
            }
        } else if (inst.op == Opcode::Ret && depth > 0) {
            --depth;
        }
    }

    cur->end = entries.size();
    cur->last = true;
    return out;
}

} // namespace arch
} // namespace msc
