#include "arch/arb.h"

#include <algorithm>

namespace msc {
namespace arch {

Arb::Arb(unsigned total_entries, unsigned max_tasks)
    : _capacity(total_entries), _blockCap(std::max(1u, max_tasks))
{
    // Twice the nominal capacity keeps probes short; head accesses
    // past capacity grow the table on demand.
    size_t buckets = 16;
    while (buckets < 2 * size_t(total_entries))
        buckets *= 2;
    _table.resize(buckets);
    _shift = 64 - unsigned(__builtin_ctzll(buckets));
}

size_t
Arb::home(uint64_t addr) const
{
    return size_t((addr * 0x9e3779b97f4a7c15ull) >> _shift);
}

size_t
Arb::bucketOf(uint64_t addr) const
{
    size_t mask = _table.size() - 1;
    size_t b = home(addr);
    while (_table[b].block != NONE && _table[b].addr != addr)
        b = (b + 1) & mask;
    return b;
}

void
Arb::growTable()
{
    std::vector<Bucket> old(_table.size() * 2);
    old.swap(_table);
    _shift--;
    size_t mask = _table.size() - 1;
    for (const Bucket &k : old) {
        if (k.block == NONE)
            continue;
        size_t b = home(k.addr);
        while (_table[b].block != NONE)
            b = (b + 1) & mask;
        _table[b] = k;
    }
}

uint32_t
Arb::blockOf(uint64_t addr)
{
    size_t b = bucketOf(addr);
    if (_table[b].block != NONE)
        return _table[b].block;

    if (2 * (_size + 1) > _table.size()) {
        growTable();
        b = bucketOf(addr);
    }
    uint32_t block;
    if (!_freeBlocks.empty()) {
        block = _freeBlocks.back();
        _freeBlocks.pop_back();
    } else {
        block = uint32_t(_counts.size());
        _counts.push_back(0);
        _records.resize(_counts.size() * _blockCap);
    }
    _table[b] = {addr, block};
    _size++;
    return block;
}

void
Arb::erase(size_t b)
{
    _freeBlocks.push_back(_table[b].block);
    _size--;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole so lookups never need tombstones.
    size_t mask = _table.size() - 1;
    size_t hole = b;
    for (size_t j = (b + 1) & mask; _table[j].block != NONE;
         j = (j + 1) & mask) {
        size_t h = home(_table[j].addr);
        // Movable when its home does not lie cyclically in (hole, j].
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            _table[hole] = _table[j];
            hole = j;
        }
    }
    _table[hole].block = NONE;
}

Arb::Access &
Arb::append(uint32_t block, TaskSeq task, uint64_t addr)
{
    if (_counts[block] == _blockCap) {
        // More tasks in flight than the hint: widen every block.
        uint32_t cap = 2 * _blockCap;
        std::vector<Access> wider(_counts.size() * cap);
        for (size_t k = 0; k < _counts.size(); ++k)
            std::copy_n(&_records[k * _blockCap], _counts[k],
                        &wider[k * cap]);
        _records.swap(wider);
        _blockCap = cap;
    }
    Access &a = records(block)[_counts[block]++];
    a = Access{task, NO_TASK, 0, false, false};
    index(task, addr);
    return a;
}

void
Arb::index(TaskSeq task, uint64_t addr)
{
    auto live = _byTask.begin() + ptrdiff_t(_liveTasks);
    auto it = std::lower_bound(
        _byTask.begin(), live, task,
        [](const TaskAddrs &t, TaskSeq v) { return t.task < v; });
    if (it == live || it->task != task) {
        size_t pos = size_t(it - _byTask.begin());
        if (_byTask.size() == _liveTasks)
            _byTask.push_back({});
        // Rotate the first spare into place; its list keeps capacity.
        std::rotate(_byTask.begin() + ptrdiff_t(pos),
                    _byTask.begin() + ptrdiff_t(_liveTasks),
                    _byTask.begin() + ptrdiff_t(_liveTasks) + 1);
        _liveTasks++;
        it = _byTask.begin() + ptrdiff_t(pos);
        it->task = task;
    }
    it->addrs.push_back(addr);
}

void
Arb::recordLoad(TaskSeq task, uint64_t addr, uint64_t pc)
{
    uint32_t block = blockOf(addr);
    Access *list = records(block);
    uint32_t n = _counts[block];

    // The version observed: youngest store by a task <= this one.
    TaskSeq src = NO_TASK;
    for (uint32_t k = 0; k < n; ++k) {
        const Access &a = list[k];
        if (a.stored && a.task <= task &&
            (src == NO_TASK || a.task > src)) {
            src = a.task;
        }
    }

    for (uint32_t k = 0; k < n; ++k) {
        Access &a = list[k];
        if (a.task == task) {
            if (!a.loaded && !a.stored) {
                a.loaded = true;
                a.loadSrc = src;
                a.loadPc = pc;
            } else if (!a.loaded) {
                // First access was a store: the load reads the task's
                // own value; no upstream exposure.
                a.loaded = true;
                a.loadSrc = task;
                a.loadPc = pc;
            }
            return;
        }
    }
    Access &a = append(block, task, addr);
    a.loaded = true;
    a.loadSrc = src;
    a.loadPc = pc;
}

Arb::StoreResult
Arb::recordStore(TaskSeq task, uint64_t addr)
{
    uint32_t block = blockOf(addr);
    Access *list = records(block);
    uint32_t n = _counts[block];

    StoreResult res;
    for (uint32_t k = 0; k < n; ++k) {
        const Access &a = list[k];
        // A younger task read a version older than this store: its
        // load missed this store's value.
        if (a.task > task && a.loaded &&
            (a.loadSrc == NO_TASK || a.loadSrc < task)) {
            if (res.victim == NO_TASK || a.task < res.victim) {
                res.victim = a.task;
                res.loadPc = a.loadPc;
            }
        }
    }

    for (uint32_t k = 0; k < n; ++k) {
        if (list[k].task == task) {
            list[k].stored = true;
            return res;
        }
    }
    append(block, task, addr).stored = true;
    return res;
}

void
Arb::filterLists(const std::vector<uint64_t> &addrs, TaskSeq task,
                 bool retire)
{
    for (uint64_t addr : addrs) {
        size_t b = bucketOf(addr);
        if (_table[b].block == NONE)
            continue;  // Already dropped via another indexed task.
        uint32_t block = _table[b].block;
        Access *list = records(block);
        uint32_t kept = 0;
        for (uint32_t k = 0; k < _counts[block]; ++k) {
            bool drop = retire ? list[k].task <= task
                               : list[k].task >= task;
            if (!drop)
                list[kept++] = list[k];
        }
        _counts[block] = kept;
        if (kept == 0)
            erase(b);
    }
}

void
Arb::squashFrom(TaskSeq task)
{
    auto live = _byTask.begin() + ptrdiff_t(_liveTasks);
    auto first = std::lower_bound(
        _byTask.begin(), live, task,
        [](const TaskAddrs &t, TaskSeq v) { return t.task < v; });
    for (auto it = first; it != live; ++it) {
        filterLists(it->addrs, task, /*retire=*/false);
        it->addrs.clear();
    }
    _liveTasks = size_t(first - _byTask.begin());
}

void
Arb::retireUpTo(TaskSeq task)
{
    auto live = _byTask.begin() + ptrdiff_t(_liveTasks);
    auto last = std::upper_bound(
        _byTask.begin(), live, task,
        [](TaskSeq v, const TaskAddrs &t) { return v < t.task; });
    for (auto it = _byTask.begin(); it != last; ++it) {
        filterLists(it->addrs, task, /*retire=*/true);
        it->addrs.clear();
    }
    // The emptied prefix becomes spares behind the live entries.
    std::rotate(_byTask.begin(), last, live);
    _liveTasks -= size_t(last - _byTask.begin());
}

} // namespace arch
} // namespace msc
