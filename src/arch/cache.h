/**
 * @file
 * Set-associative caches and the two-level memory hierarchy of §4.2:
 * banked L1 I/D caches (1-cycle hit), a shared L2 (12-cycle hit), and
 * main memory (58 cycles). Bank conflicts are modeled with per-bank
 * next-free-cycle counters; caches are lock-up free in the sense that
 * independent accesses to distinct banks proceed in parallel.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.h"

namespace msc {
namespace arch {

/**
 * LRU set-associative cache model (tags only).
 *
 * The line array is borrowed from a per-thread pool that keeps at
 * most one idle array per geometry, so back-to-back simulations on a
 * thread reuse their arrays instead of rebuilding them (the 4 MB L2
 * alone is 3 MB of lines). A borrowed array is reset in O(1) by
 * bumping its epoch: a line is valid only while its epoch equals the
 * array's, and a stale line reads as invalid with LRU stamp 0, which
 * is exactly the state of a freshly built line, so every hit, miss
 * and victim choice matches a cache built from scratch.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);
    ~Cache();
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Looks up @p addr; fills the line on miss.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Looks up without filling. */
    bool probe(uint64_t addr) const;

    unsigned hitLatency() const { return _cfg.hitLatency; }
    unsigned banks() const { return _cfg.banks; }
    unsigned blockBytes() const { return _cfg.blockBytes; }

    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }

    unsigned
    bankOf(uint64_t addr) const
    {
        return unsigned((addr / _cfg.blockBytes) % _cfg.banks);
    }

    /** Pooled line storage (defined in cache.cc). */
    struct LineArray;

  private:
    struct Line
    {
        uint64_t tag = ~0ull;
        uint64_t lru = 0;
        uint32_t epoch = 0;     ///< Valid iff equal to the array's.
    };

    CacheConfig _cfg;
    size_t _numSets;
    std::unique_ptr<LineArray> _array;  ///< numSets * assoc lines.
    Line *_lines;
    uint32_t _epoch;
    uint64_t _tick = 0;
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

/**
 * The shared data-side hierarchy: L1D -> L2 -> memory, with L1 bank
 * conflict modeling. Instruction fetch uses a separate L1I in front of
 * the same L2.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const SimConfig &cfg);

    /**
     * Performs a data access at byte address @p addr starting at
     * @p cycle.
     * @return cycle at which the value is available.
     */
    uint64_t dataAccess(uint64_t addr, uint64_t cycle);

    /**
     * Performs an instruction fetch of the line containing @p addr.
     * @return cycle at which the line is available.
     */
    uint64_t fetchAccess(uint64_t addr, uint64_t cycle);

    const Cache &l1i() const { return _l1i; }
    const Cache &l1d() const { return _l1d; }

  private:
    SimConfig _cfg;
    Cache _l1i, _l1d, _l2;
    std::vector<uint64_t> _l1dBankFree;
};

} // namespace arch
} // namespace msc
