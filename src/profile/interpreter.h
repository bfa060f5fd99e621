/**
 * @file
 * Functional interpreter for mini-IR programs.
 *
 * Executes a program instruction-at-a-time with architectural
 * semantics only (no timing). Drives both profiling and dynamic trace
 * generation; the template run() hands every retired instruction to a
 * visitor so consumers avoid storing state they do not need.
 */

#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "ir/program.h"
#include "ir/semantics.h"
#include "profile/trace.h"
#include "runtime/budget.h"

namespace msc {
namespace profile {

/**
 * Allocator that hands out zeroed pages straight from the OS (calloc)
 * and skips the container's own element zero-fill. A workload's data
 * image is tens of MB but sparsely touched; with an eager memset every
 * page materializes up front, which would dominate the interpreter
 * runs of small workloads (the pipeline's profile run, the fuzzer's
 * reference runs). Only safe for containers that never shrink-then-regrow
 * into reused storage (the skipped fill would expose stale values);
 * the interpreter's memory image is sized once and never resized.
 */
template <typename T>
struct ZeroAllocator
{
    using value_type = T;

    ZeroAllocator() = default;
    template <typename U>
    ZeroAllocator(const ZeroAllocator<U> &)
    {}

    T *
    allocate(size_t n)
    {
        void *p = std::calloc(n ? n : 1, sizeof(T));
        if (!p)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t) { std::free(p); }

    /** Value-initialization is a no-op: calloc already zeroed. */
    template <typename U>
    void construct(U *)
    {}

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    bool operator==(const ZeroAllocator &) const { return true; }
};

/** Data-memory image backed by lazily-materialized zero pages. */
using MemImage = std::vector<int64_t, ZeroAllocator<int64_t>>;

/**
 * Interprets one program. The interpreter owns the register file and
 * the data memory; both are inspectable after a run for functional
 * assertions in tests.
 */
class Interpreter
{
  public:
    explicit Interpreter(const ir::Program &prog)
        : _prog(prog), _mem(prog.memWords)
    {
        for (size_t i = 0; i < prog.initData.size() && i < _mem.size(); ++i)
            _mem[i] = prog.initData[i];
        _regs.fill(0);
    }

    /** Register file access (FP values are bit-cast doubles). */
    int64_t reg(ir::RegId r) const { return _regs[r]; }
    double freg(ir::RegId r) const { return std::bit_cast<double>(_regs[r]); }
    void setReg(ir::RegId r, int64_t v) { if (r) _regs[r] = v; }

    /** Data memory access (word addressed). */
    int64_t mem(uint64_t w) const { return _mem[w]; }
    double
    fmem(uint64_t w) const
    {
        return std::bit_cast<double>(_mem[w]);
    }

    /** Whole register file (architectural state capture). */
    const std::array<int64_t, ir::NUM_REGS> &regs() const { return _regs; }

    /** Whole data-memory image (word addressed). */
    const MemImage &memory() const { return _mem; }

    /** True when the last run() reached Halt. */
    bool halted() const { return _halted; }

    /** Dynamic instructions retired by the last run(). */
    uint64_t instCount() const { return _count; }

    /**
     * Runs the program from its entry function, invoking
     * @p visit(ref, inst, addr, taken) for each retired instruction.
     * Stops at Halt or after @p max_insts instructions.
     *
     * @p gov, when non-null, is charged one fuel per retired
     * instruction (in Governor::PULSE_INTERVAL blocks, settled
     * exactly at every return path) and pulse-checked for
     * cancellation/deadline at the same interval; a tripped budget
     * throws runtime::StageError out of the run.
     *
     * @return number of instructions executed.
     */
    template <typename Visitor>
    uint64_t
    run(Visitor &&visit, uint64_t max_insts = DEFAULT_MAX_INSTS,
        runtime::Governor *gov = nullptr)
    {
        const ir::Function *fn = &_prog.functions[_prog.entry];
        ir::BlockId blk = fn->entry;
        uint32_t idx = 0;
        _halted = false;
        _count = 0;

        // Fuel is charged in blocks so the hot loop pays one compare;
        // settle() brings the governor exactly up to _count.
        uint64_t charged = 0;
        auto settle = [&]() {
            if (gov) {
                gov->chargeFuel(_count - charged);
                charged = _count;
                gov->checkPulse();
            }
        };

        struct RetSite { ir::FuncId func; ir::BlockId block; };
        std::vector<RetSite> stack;
        stack.reserve(64);

        while (_count < max_insts) {
            if (gov &&
                _count - charged >= runtime::Governor::PULSE_INTERVAL)
                settle();
            const ir::BasicBlock &bb = fn->blocks[blk];
            if (idx >= bb.insts.size())
                throw runtime::StageError(
                    runtime::ErrorKind::InvalidInput, {},
                    "interpreter ran off block end");
            const ir::Instruction &in = bb.insts[idx];
            ir::InstRef ref{fn->id, blk, idx};

            uint64_t addr = 0;
            bool taken = false;
            ir::BlockId next_blk = blk;
            uint32_t next_idx = idx + 1;
            const ir::Function *next_fn = fn;
            bool advanced = false;

            switch (in.op) {
              case ir::Opcode::Halt:
                visit(ref, in, addr, taken);
                ++_count;
                _halted = true;
                settle();
                return _count;

              case ir::Opcode::Br:
                taken = (_regs[in.src1] != 0);
                goto branch_common;
              case ir::Opcode::BrZ:
                taken = (_regs[in.src1] == 0);
              branch_common:
                next_blk = taken ? in.target : bb.fallthrough;
                next_idx = 0;
                advanced = true;
                break;

              case ir::Opcode::Jmp:
                next_blk = in.target;
                next_idx = 0;
                advanced = true;
                break;

              case ir::Opcode::Call:
                stack.push_back({fn->id, bb.fallthrough});
                next_fn = &_prog.functions[in.callee];
                next_blk = next_fn->entry;
                next_idx = 0;
                advanced = true;
                break;

              case ir::Opcode::Ret:
                if (stack.empty()) {
                    visit(ref, in, addr, taken);
                    ++_count;
                    _halted = true;  // Ret from entry terminates.
                    settle();
                    return _count;
                }
                next_fn = &_prog.functions[stack.back().func];
                next_blk = stack.back().block;
                next_idx = 0;
                stack.pop_back();
                advanced = true;
                break;

              default:
                execute(in, addr);
                break;
            }

            visit(ref, in, addr, taken);
            ++_count;

            if (!advanced && idx + 1 >= bb.insts.size()) {
                // Implicit fall-through at block end.
                next_blk = bb.fallthrough;
                next_idx = 0;
            }
            fn = next_fn;
            blk = next_blk;
            idx = next_idx;
        }
        settle();
        return _count;
    }

    /** Runs and captures the full dynamic trace (its reservation is
     *  charged to @p gov's heap watermark; Trace::reserve). */
    Trace
    trace(uint64_t max_insts = DEFAULT_MAX_INSTS,
          runtime::Governor *gov = nullptr)
    {
        Trace t;
        t.reserve(max_insts, gov);
        run([&](ir::InstRef ref, const ir::Instruction &, uint64_t addr,
                bool taken) {
            t.entries.push_back({ref, taken, addr});
        }, max_insts, gov);
        t.completed = _halted;
        return t;
    }

    /** Runs without observation; returns instructions executed. */
    uint64_t
    runQuiet(uint64_t max_insts = DEFAULT_MAX_INSTS,
             runtime::Governor *gov = nullptr)
    {
        return run([](ir::InstRef, const ir::Instruction &, uint64_t,
                      bool) {}, max_insts, gov);
    }

    static constexpr uint64_t DEFAULT_MAX_INSTS = 50'000'000;

  private:
    /**
     * Executes a non-control instruction; fills @p addr for mem ops.
     * Data opcodes follow the UB-free architectural contract in
     * ir/semantics.h (wrapping arithmetic, pinned div/FtoI cases).
     */
    void
    execute(const ir::Instruction &in, uint64_t &addr)
    {
        using ir::Opcode;
        auto wr = [&](int64_t v) {
            if (in.dst != ir::REG_ZERO)
                _regs[in.dst] = v;
        };

        switch (in.op) {
          case Opcode::Nop:
            break;

          case Opcode::Load:
          case Opcode::FLoad:
            addr = effAddr(in.src1, in.imm);
            wr(_mem[addr]);
            break;
          case Opcode::Store:
          case Opcode::FStore:
            addr = effAddr(in.src2, in.imm);
            _mem[addr] = _regs[in.src1];
            break;

          default: {
            const ir::OpInfo &oi = in.info();
            if (!oi.hasDst)
                throw std::runtime_error("execute: unexpected opcode");
            int64_t a = oi.readsSrc1 ? _regs[in.src1] : 0;
            int64_t b = (oi.readsSrc2 && in.src2 != ir::NO_REG)
                ? _regs[in.src2] : in.imm;
            wr(ir::evalScalar(in.op, a, b));
            break;
          }
        }
    }

    uint64_t
    effAddr(ir::RegId base, int64_t off) const
    {
        int64_t a = (base != ir::NO_REG ? _regs[base] : 0) + off;
        uint64_t w = uint64_t(a);
        if (w >= _mem.size())
            throw runtime::StageError(
                runtime::ErrorKind::InvalidInput, {},
                "memory access out of bounds (word " +
                    std::to_string(w) + " of " +
                    std::to_string(_mem.size()) + ")");
        return w;
    }

    const ir::Program &_prog;
    std::array<int64_t, ir::NUM_REGS> _regs;
    MemImage _mem;
    bool _halted = false;
    uint64_t _count = 0;
};

} // namespace profile
} // namespace msc
