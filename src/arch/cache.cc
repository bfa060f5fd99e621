#include "arch/cache.h"

#include <algorithm>

namespace msc {
namespace arch {

struct Cache::LineArray
{
    std::vector<Line> lines;
    uint32_t epoch = 0;
};

namespace {

/** Idle line arrays of this thread, at most one per geometry (line
 *  count). */
thread_local std::vector<std::unique_ptr<Cache::LineArray>> idleArrays;

} // anonymous namespace

Cache::Cache(const CacheConfig &cfg) : _cfg(cfg)
{
    _numSets = std::max<size_t>(
        1, cfg.sizeBytes / (uint64_t(cfg.blockBytes) * cfg.assoc));
    size_t n = _numSets * cfg.assoc;
    for (size_t i = 0; i < idleArrays.size(); ++i) {
        if (idleArrays[i]->lines.size() == n) {
            _array = std::move(idleArrays[i]);
            idleArrays.erase(idleArrays.begin() + ptrdiff_t(i));
            break;
        }
    }
    if (!_array) {
        _array = std::make_unique<LineArray>();
        _array->lines.resize(n);
    }
    // Invalidate every line at once. On wrap-around the stamps are
    // rewritten so no line from 2^32 uses ago can look current.
    if (++_array->epoch == 0) {
        for (Line &l : _array->lines)
            l.epoch = 0;
        _array->epoch = 1;
    }
    _lines = _array->lines.data();
    _epoch = _array->epoch;
}

Cache::~Cache()
{
    size_t n = _array->lines.size();
    for (const auto &a : idleArrays)
        if (a->lines.size() == n)
            return;  // One idle array per geometry: free this one.
    idleArrays.push_back(std::move(_array));
}

bool
Cache::access(uint64_t addr)
{
    ++_accesses;
    uint64_t block = addr / _cfg.blockBytes;
    size_t set = size_t(block % _numSets);
    uint64_t tag = block / _numSets;
    Line *base = &_lines[set * _cfg.assoc];

    ++_tick;
    for (unsigned w = 0; w < _cfg.assoc; ++w) {
        if (base[w].epoch == _epoch && base[w].tag == tag) {
            base[w].lru = _tick;
            return true;
        }
    }
    ++_misses;

    // Fill the LRU way; a stale line is invalid with LRU stamp 0.
    auto lru = [&](const Line &l) {
        return l.epoch == _epoch ? l.lru : 0;
    };
    Line *victim = base;
    for (unsigned w = 1; w < _cfg.assoc; ++w)
        if (base[w].epoch != _epoch || lru(base[w]) < lru(*victim))
            victim = &base[w];
    victim->epoch = _epoch;
    victim->tag = tag;
    victim->lru = _tick;
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t block = addr / _cfg.blockBytes;
    size_t set = size_t(block % _numSets);
    uint64_t tag = block / _numSets;
    const Line *base = &_lines[set * _cfg.assoc];
    for (unsigned w = 0; w < _cfg.assoc; ++w)
        if (base[w].epoch == _epoch && base[w].tag == tag)
            return true;
    return false;
}

MemoryHierarchy::MemoryHierarchy(const SimConfig &cfg)
    : _cfg(cfg), _l1i(cfg.l1i), _l1d(cfg.l1d), _l2(cfg.l2),
      _l1dBankFree(cfg.l1d.banks, 0)
{
}

uint64_t
MemoryHierarchy::dataAccess(uint64_t addr, uint64_t cycle)
{
    // Bank arbitration: one access per bank per cycle.
    unsigned bank = _l1d.bankOf(addr);
    uint64_t start = std::max(cycle, _l1dBankFree[bank]);
    _l1dBankFree[bank] = start + 1;

    uint64_t t = start + _l1d.hitLatency();
    if (!_l1d.access(addr)) {
        if (_l2.access(addr))
            t += _cfg.l2.hitLatency;
        else
            t += _cfg.l2.hitLatency + _cfg.memLatency;
    }
    return t;
}

uint64_t
MemoryHierarchy::fetchAccess(uint64_t addr, uint64_t cycle)
{
    uint64_t t = cycle + _l1i.hitLatency();
    if (!_l1i.access(addr)) {
        if (_l2.access(addr))
            t += _cfg.l2.hitLatency;
        else
            t += _cfg.l2.hitLatency + _cfg.memLatency;
    }
    return t;
}

} // namespace arch
} // namespace msc
