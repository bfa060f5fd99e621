/**
 * @file
 * The Address Resolution Buffer (ARB, Franklin & Sohi [7]) and the
 * memory-dependence synchronization table (Moshovos et al. [11]).
 *
 * Tasks speculate that their loads do not depend on stores of earlier
 * in-flight tasks. The ARB tracks the speculative memory accesses of
 * every in-flight task; when a store from an older task hits an
 * address that a younger task already loaded (and the younger task's
 * load did not get its value from a task at least as young as the
 * storer), a memory-dependence violation squashes the younger task and
 * its successors. The sync table remembers offending (store PC, load
 * PC) pairs so subsequent instances of the load wait instead of
 * speculating (§3.4).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace msc {
namespace arch {

/** Sequence number of a dynamic task instance (program order). */
using TaskSeq = uint64_t;
constexpr TaskSeq NO_TASK = ~0ull;

/**
 * ARB model over word addresses.
 *
 * Storage is flat and reused: one open-addressing table maps each
 * tracked address to a block of inline access records (at most one
 * per in-flight task, so a block holds `max_tasks` records and only
 * grows when a caller keeps more tasks in flight), and a sorted small
 * vector indexes the addresses each task first touched. After warm-up
 * no access, retire or squash allocates.
 */
class Arb
{
  public:
    /**
     * @param total_entries total tracked addresses (entries/PU x PUs).
     * @param max_tasks expected in-flight tasks (the PU count): the
     *        initial per-address record capacity.
     */
    explicit Arb(unsigned total_entries, unsigned max_tasks = 4);

    /** True when no free entry remains for a new address. */
    bool full() const { return _size >= _capacity; }

    /** True when @p addr is already tracked (no new entry needed). */
    bool
    tracked(uint64_t addr) const
    {
        return _table[bucketOf(addr)].block != NONE;
    }

    /**
     * Records a load by @p task to @p addr. The version the load
     * observes is the youngest store to @p addr by a task <= @p task,
     * or "architectural" when none is in flight. @p pc identifies the
     * load instruction for sync-table training on violation.
     */
    void recordLoad(TaskSeq task, uint64_t addr, uint64_t pc);

    /** Outcome of a store: the violating task (if any) and the PC of
     *  its stale load. */
    struct StoreResult
    {
        TaskSeq victim = NO_TASK;
        uint64_t loadPc = 0;
    };

    /**
     * Records a store by @p task to @p addr.
     * @return the oldest younger task whose earlier load is now stale
     *         (a violation), with the offending load's PC.
     */
    StoreResult recordStore(TaskSeq task, uint64_t addr);

    /** Discards all accesses of tasks >= @p task (squash). */
    void squashFrom(TaskSeq task);

    /** Discards all accesses of tasks <= @p task (retire commit). */
    void retireUpTo(TaskSeq task);

    size_t entriesInUse() const { return _size; }

  private:
    struct Access
    {
        TaskSeq task;
        /** Version the first load observed: youngest storing task
         *  <= task at load time; NO_TASK means architectural. */
        TaskSeq loadSrc;
        /** PC of the first load (for sync-table training). */
        uint64_t loadPc;
        bool loaded;
        bool stored;
    };

    static constexpr uint32_t NONE = ~0u;

    /** One open-addressing bucket: a tracked address and the block
     *  holding its access records (NONE: empty bucket). */
    struct Bucket
    {
        uint64_t addr = 0;
        uint32_t block = NONE;
    };

    size_t home(uint64_t addr) const;
    /** Bucket holding @p addr, or the empty bucket ending its probe
     *  run. */
    size_t bucketOf(uint64_t addr) const;
    /** Block of @p addr's records, creating the entry if absent. */
    uint32_t blockOf(uint64_t addr);
    /** Drops the entry in bucket @p b (backward-shift deletion). */
    void erase(size_t b);
    void growTable();
    /** Appends an access of @p task to @p addr's @p block. */
    Access &append(uint32_t block, TaskSeq task, uint64_t addr);
    Access *records(uint32_t block) { return &_records[block * _blockCap]; }

    /** Notes that @p task first touched @p addr. */
    void index(TaskSeq task, uint64_t addr);

    /** Removes every access with task <=/>= @p task (per @p retire)
     *  from the lists of the indexed @p addrs, dropping emptied
     *  entries. */
    void filterLists(const std::vector<uint64_t> &addrs, TaskSeq task,
                     bool retire);

    unsigned _capacity;
    size_t _size = 0;               ///< Tracked addresses.

    std::vector<Bucket> _table;     ///< Power-of-two, <= half full.
    unsigned _shift;                ///< 64 - log2(_table.size()).
    std::vector<Access> _records;   ///< Blocks of _blockCap records.
    std::vector<uint32_t> _counts;  ///< Records in use, per block.
    std::vector<uint32_t> _freeBlocks;
    uint32_t _blockCap;

    /**
     * Index: addresses first touched by each in-flight task, sorted by
     * task, so retireUpTo/squashFrom visit only the affected access
     * lists instead of sweeping the table. The first _liveTasks
     * entries are live; the rest are spares whose (empty) address
     * lists keep their capacity for the next task.
     */
    struct TaskAddrs
    {
        TaskSeq task;
        std::vector<uint64_t> addrs;
    };
    std::vector<TaskAddrs> _byTask;
    size_t _liveTasks = 0;
};

/** Memory-dependence synchronization table. */
class SyncTable
{
  public:
    explicit SyncTable(unsigned capacity) : _capacity(capacity) {}

    /** Records that the load at @p load_pc violated against the store
     *  at @p store_pc. */
    void
    insert(uint64_t load_pc, uint64_t store_pc)
    {
        if (_map.size() >= _capacity && !_map.count(load_pc))
            _map.erase(_map.begin());  // Capacity eviction.
        _map[load_pc] = store_pc;
    }

    /** Store PC the load must synchronize with; 0 when unsynced. */
    uint64_t
    producerOf(uint64_t load_pc) const
    {
        auto it = _map.find(load_pc);
        return it == _map.end() ? 0 : it->second;
    }

    size_t size() const { return _map.size(); }

  private:
    unsigned _capacity;
    std::unordered_map<uint64_t, uint64_t> _map;
};

} // namespace arch
} // namespace msc
