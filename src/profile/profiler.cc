#include "profile/profiler.h"

#include "profile/interpreter.h"

namespace msc {
namespace profile {

Profile
profileProgram(const ir::Program &prog, uint64_t max_insts,
               runtime::Governor *gov, Trace *stream,
               uint64_t stream_insts)
{
    if (stream)
        stream->reserve(stream_insts, gov);

    Profile p;
    p.blockCount.resize(prog.functions.size());
    for (const auto &f : prog.functions)
        p.blockCount[f.id].assign(f.blocks.size(), 0);
    p.funcInvocations.assign(prog.functions.size(), 0);
    p.funcInclusiveInsts.assign(prog.functions.size(), 0);

    // Last dynamic writer of each register, for def-use frequencies.
    std::vector<ir::InstRef> last_def(ir::NUM_REGS);

    // Call-frame stack: per live invocation, (function, call-site ref,
    // inclusive instruction counter base). Inclusive counts are
    // accumulated by adding 1 to every live frame per instruction.
    struct Frame { ir::FuncId func; ir::InstRef callSite; };
    std::vector<Frame> frames;
    frames.push_back({prog.entry, {}});
    p.funcInvocations[prog.entry]++;

    ir::InstRef prev;
    bool prev_was_block_end = false;
    bool prev_was_xfer = false;  // Call or Ret: suppress edge counting.

    std::vector<ir::RegId> scratch;

    Interpreter interp(prog);
    interp.run([&](ir::InstRef ref, const ir::Instruction &in,
                   uint64_t addr, bool taken) {
        if (stream && stream->entries.size() < stream_insts)
            stream->entries.push_back({ref, taken, addr});

        // Block entry counting.
        if (ref.index == 0)
            p.blockCount[ref.func][ref.block]++;

        // Intra-function edge counting.
        if (prev.valid() && prev_was_block_end && !prev_was_xfer &&
            prev.func == ref.func && ref.index == 0) {
            p.edgeCount[{ref.func, prev.block, ref.block}]++;
        }

        // Inclusive dynamic size: this instruction counts toward every
        // function with a live activation.
        for (const Frame &fr : frames)
            p.funcInclusiveInsts[fr.func]++;

        // Def-use dependence frequencies.
        scratch.clear();
        in.uses(scratch);
        for (ir::RegId r : scratch) {
            if (last_def[r].valid())
                p.defUseCount[{last_def[r], ref, r}]++;
        }
        scratch.clear();
        in.defs(scratch);
        for (ir::RegId r : scratch)
            last_def[r] = ref;

        if (in.op == ir::Opcode::Call) {
            frames.push_back({in.callee, ref});
            p.funcInvocations[in.callee]++;
        } else if (in.op == ir::Opcode::Ret && frames.size() > 1) {
            // Re-attribute the ABI clobber set to the call site, so
            // dynamic def-use pairs match the static (intraprocedural)
            // def-use chains in which Call is the defining site.
            ir::InstRef cs = frames.back().callSite;
            frames.pop_back();
            last_def[ir::REG_RET] = cs;
            for (ir::RegId r = ir::REG_CALLER_SAVED_FIRST;
                 r <= ir::REG_CALLER_SAVED_LAST; ++r) {
                last_def[r] = cs;
            }
            last_def[ir::FREG_RET] = cs;
            for (ir::RegId r = ir::FREG_CALLER_SAVED_FIRST;
                 r <= ir::FREG_CALLER_SAVED_LAST; ++r) {
                last_def[r] = cs;
            }
        }

        prev = ref;
        prev_was_xfer = (in.op == ir::Opcode::Call ||
                         in.op == ir::Opcode::Ret);
        const auto &bb = prog.functions[ref.func].blocks[ref.block];
        prev_was_block_end = (ref.index + 1 == bb.insts.size());
    }, max_insts, gov);

    p.totalInsts = interp.instCount();
    if (stream)
        stream->completed =
            interp.halted() && interp.instCount() <= stream_insts;
    return p;
}

} // namespace profile
} // namespace msc
