/**
 * @file
 * Execution profiling: block/edge frequencies, per-function dynamic
 * sizes, and dynamic def-use dependence frequencies.
 *
 * The paper integrates all heuristics through profiling (§3): basic
 * block frequencies steer register communication scheduling and task
 * selection; def-use dependences are prioritized by execution
 * frequency; call inclusion compares a callee's *dynamic* instruction
 * count against CALL_THRESH.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/program.h"
#include "profile/trace.h"
#include "runtime/budget.h"

namespace msc {
namespace profile {

/** Key identifying an intra-function CFG edge dynamically taken. */
struct EdgeKey
{
    ir::FuncId func;
    ir::BlockId from, to;

    friend bool
    operator==(const EdgeKey &a, const EdgeKey &b)
    {
        return a.func == b.func && a.from == b.from && a.to == b.to;
    }
};

struct EdgeKeyHash
{
    size_t
    operator()(const EdgeKey &k) const noexcept
    {
        return (size_t(k.func) * 0x9e3779b97f4a7c15ull)
            ^ (size_t(k.from) << 20) ^ k.to;
    }
};

/** Key identifying a dynamic def-use pair (producer inst, consumer
 *  inst, register). */
struct DefUseKey
{
    ir::InstRef def, use;
    ir::RegId reg;

    friend bool
    operator==(const DefUseKey &a, const DefUseKey &b)
    {
        return a.def == b.def && a.use == b.use && a.reg == b.reg;
    }
};

struct DefUseKeyHash
{
    size_t
    operator()(const DefUseKey &k) const noexcept
    {
        std::hash<ir::InstRef> h;
        return h(k.def) * 31 + h(k.use) + k.reg;
    }
};

/** Profile data gathered by one training run. */
struct Profile
{
    /** blockCount[func][block]: dynamic entries into each block. */
    std::vector<std::vector<uint64_t>> blockCount;

    /** Dynamic traversal counts of intra-function CFG edges. */
    std::unordered_map<EdgeKey, uint64_t, EdgeKeyHash> edgeCount;

    /** Per-function invocation counts. */
    std::vector<uint64_t> funcInvocations;

    /** Per-function *inclusive* dynamic instruction totals (callee
     *  instructions count toward every live caller). */
    std::vector<uint64_t> funcInclusiveInsts;

    /** Dynamic def-use pair frequencies. */
    std::unordered_map<DefUseKey, uint64_t, DefUseKeyHash> defUseCount;

    /** Total retired instructions. */
    uint64_t totalInsts = 0;

    /**
     * Average inclusive dynamic instructions per invocation of @p f;
     * returns a large value when the function never ran (so that the
     * call-inclusion test conservatively fails).
     */
    double
    avgCallInsts(ir::FuncId f) const
    {
        if (funcInvocations[f] == 0)
            return 1e18;
        return double(funcInclusiveInsts[f]) / double(funcInvocations[f]);
    }

    uint64_t
    blockFreq(ir::FuncId f, ir::BlockId b) const
    {
        return blockCount[f][b];
    }

    uint64_t
    edgeFreq(ir::FuncId f, ir::BlockId from, ir::BlockId to) const
    {
        auto it = edgeCount.find({f, from, to});
        return it == edgeCount.end() ? 0 : it->second;
    }
};

/**
 * Runs the program functionally and gathers a Profile.
 *
 * @param prog program to profile.
 * @param max_insts training-run instruction budget.
 * @param gov optional execution governor: charged one fuel per
 *        retired instruction and pulse-checked for cancellation and
 *        deadlines (see runtime/budget.h).
 * @param stream when non-null, the same run also records its first
 *        @p stream_insts instructions, as Interpreter::trace would.
 */
Profile profileProgram(const ir::Program &prog,
                       uint64_t max_insts = 50'000'000,
                       runtime::Governor *gov = nullptr,
                       Trace *stream = nullptr,
                       uint64_t stream_insts = 0);

} // namespace profile
} // namespace msc
