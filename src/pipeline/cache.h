/**
 * @file
 * In-memory keyed artifact cache with compute-once semantics.
 *
 * getOrCompute guarantees that for a given key the producer runs at
 * most once per cache, even under concurrent callers (the sweep
 * worker pool): the first caller computes while later callers block
 * on the slot and then share the published value. This is what makes
 * "a 2-strategy x 4-config sweep performs exactly 2 profile runs"
 * hold for any --jobs value.
 *
 * Counters distinguish three outcomes per stage:
 *   - hit:      the artifact already existed (or was being computed);
 *   - diskHit:  produced by loading the on-disk cache (a miss here,
 *               but no compute);
 *   - computed: produced by actually running the stage.
 * misses() == diskHits + computed.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace msc {
namespace pipeline {

/** Snapshot of one stage's cache traffic. */
struct StageCounters
{
    uint64_t hits = 0;      ///< Served from memory.
    uint64_t diskHits = 0;  ///< Loaded from the on-disk cache.
    uint64_t computed = 0;  ///< Actually ran the stage.

    uint64_t misses() const { return diskHits + computed; }
};

/** Thread-safe counter cell behind a StageCounters snapshot. */
struct AtomicStageCounters
{
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> diskHits{0};
    std::atomic<uint64_t> computed{0};

    StageCounters
    snapshot() const
    {
        return {hits.load(std::memory_order_relaxed),
                diskHits.load(std::memory_order_relaxed),
                computed.load(std::memory_order_relaxed)};
    }
};

/** Compute-once map from 64-bit content key to immutable artifact. */
template <typename T>
class KeyedCache
{
  public:
    /**
     * Returns the cached value for @p key, or invokes @p produce()
     * (exactly once per key across all threads) and caches its
     * result. @p produce must return a non-null
     * shared_ptr<const T>; its exceptions propagate to every caller
     * waiting on the same key, and the failed slot is removed so a
     * later call retries.
     *
     * Counts a hit when the value existed or was in flight; @p produce
     * is responsible for counting diskHit vs computed.
     */
    template <typename Fn>
    std::shared_ptr<const T>
    getOrCompute(uint64_t key, AtomicStageCounters &ctr, Fn &&produce)
    {
        std::shared_ptr<Slot> slot;
        bool creator = false;
        {
            std::lock_guard<std::mutex> lock(_mu);
            auto it = _slots.find(key);
            if (it == _slots.end()) {
                slot = std::make_shared<Slot>();
                _slots.emplace(key, slot);
                creator = true;
            } else {
                slot = it->second;
            }
        }

        if (!creator) {
            ctr.hits.fetch_add(1, std::memory_order_relaxed);
            std::unique_lock<std::mutex> lk(slot->mu);
            slot->cv.wait(lk, [&] { return slot->ready; });
            if (slot->error)
                std::rethrow_exception(slot->error);
            return slot->value;
        }

        try {
            std::shared_ptr<const T> v = produce();
            {
                std::lock_guard<std::mutex> lk(slot->mu);
                slot->value = v;
                slot->ready = true;
            }
            slot->cv.notify_all();
            return v;
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(slot->mu);
                slot->error = std::current_exception();
                slot->ready = true;
            }
            slot->cv.notify_all();
            {
                // Drop the poisoned slot so a later call can retry
                // (waiters already hold their shared_ptr to it).
                std::lock_guard<std::mutex> lock(_mu);
                auto it = _slots.find(key);
                if (it != _slots.end() && it->second == slot)
                    _slots.erase(it);
            }
            throw;
        }
    }

    /** Publishes @p v under @p key unless the key is already present
     *  or in flight; never blocks on, or inherits, another producer. */
    void
    putIfAbsent(uint64_t key, std::shared_ptr<const T> v)
    {
        auto slot = std::make_shared<Slot>();
        slot->value = std::move(v);
        slot->ready = true;
        std::lock_guard<std::mutex> lock(_mu);
        _slots.emplace(key, std::move(slot));
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(_mu);
        return _slots.size();
    }

  private:
    struct Slot
    {
        std::mutex mu;
        std::condition_variable cv;
        bool ready = false;
        std::shared_ptr<const T> value;
        std::exception_ptr error;
    };

    mutable std::mutex _mu;
    std::unordered_map<uint64_t, std::shared_ptr<Slot>> _slots;
};

} // namespace pipeline
} // namespace msc
