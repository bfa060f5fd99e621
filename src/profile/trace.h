/**
 * @file
 * Dynamic instruction traces.
 *
 * The functional interpreter emits one TraceEntry per retired
 * instruction; the Multiscalar timing model replays the stream,
 * cutting it into dynamic tasks per a TaskPartition.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir/types.h"
#include "runtime/budget.h"

namespace msc {
namespace profile {

/** One dynamically executed instruction; this field order packs it
 *  into 24 bytes. */
struct TraceEntry
{
    ir::InstRef ref;        ///< Static instruction identity.
    bool taken = false;     ///< Outcome for conditional branches.
    uint64_t addr = 0;      ///< Effective word address for memory ops.
};

/** A full dynamic trace. */
struct Trace
{
    std::vector<TraceEntry> entries;

    /** True when the program ran to Halt within the entry budget. */
    bool completed = false;

    size_t size() const { return entries.size(); }
    const TraceEntry &operator[](size_t i) const { return entries[i]; }

    /** Reserves room for a run of up to @p max_insts instructions.
     *  The buffer is the frontend's dominant allocation, so the
     *  planned bytes are charged to @p gov's heap watermark first. */
    void
    reserve(uint64_t max_insts, runtime::Governor *gov)
    {
        uint64_t planned = std::min<uint64_t>(max_insts, 1u << 22);
        if (gov)
            gov->chargeHeap(planned * sizeof(TraceEntry));
        entries.reserve(planned);
    }
};

} // namespace profile
} // namespace msc
