/**
 * @file
 * The unidirectional register-communication ring (§4.2): each link
 * carries a bounded number of values per cycle; a value forwarded by
 * PU p reaches the adjacent PU p+1 in the same cycle (bypass) and each
 * further hop adds one cycle, subject to per-link bandwidth.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace msc {
namespace arch {

/** Bandwidth-modeled forwarding ring. */
class Ring
{
  public:
    Ring(unsigned num_pus, unsigned bandwidth)
        : _numPUs(num_pus), _bandwidth(bandwidth)
    {
        resize(INITIAL_WINDOW);
    }

    /**
     * Sends one value from PU @p from at cycle @p when and computes
     * its arrival time at every PU (consuming link slots on the way
     * around the ring).
     *
     * @param now the current simulated cycle. Calls must pass a
     *        non-decreasing @p now and @p when >= @p now (see the
     *        window bound below).
     * @param arrivals receives numPUs arrival cycles, one per PU; the
     *        sender's own slot holds @p when.
     */
    void
    broadcast(unsigned from, uint64_t when, uint64_t now,
              uint64_t *arrivals)
    {
        assert(now >= _now && when >= now);
        _now = now;
        arrivals[from] = when;
        uint64_t t = when;
        unsigned p = from;
        for (unsigned hop = 1; hop < _numPUs; ++hop) {
            // Slot on link p -> p+1, adjacent bypass in the same cycle.
            t = claimSlot(p, t);
            p = p + 1 == _numPUs ? 0 : p + 1;
            arrivals[p] = t;
            ++t;  // Each further hop costs a cycle.
        }
    }

  private:
    /**
     * Per-link slot usage as a circular buffer tagged by cycle: with W
     * slots per link (a power of two), slot t & (W - 1) counts the
     * claims at cycle t when its tag equals t, and any other tag reads
     * as zero claims at t.
     *
     * Window bound: every claim made during cycle `now` lies in
     * [now, now + W). The lower edge holds because a claim is never
     * earlier than its broadcast's `when` (claimSlot only moves
     * forward) and the simulator always passes when >= now: it
     * forwards at the writeback cycle of a producer (writeback runs
     * exactly at doneCycle, as every latency is >= 1 and a live
     * instance executes every cycle), at a completion cycle equal to
     * now, at max(now, arrival) on release, or at max(arrival,
     * completion) on a chained release inside the current cycle,
     * where the arrival is a claim of a broadcast made now. The upper
     * edge holds because claimSlot doubles W before a claim would
     * leave the window, keeping every live slot. Since `now` never
     * decreases, a tag below the current `now` is never read again,
     * and the live tags lie in one W-wide range, so they are distinct
     * modulo W. A slot whose tag differs from t therefore holds a dead
     * tag, and resetting it to t with zero claims reads exactly what
     * an unbounded per-cycle map would. Nothing needs trimming.
     */
    struct Slot
    {
        uint64_t tag = ~0ull;
        unsigned used = 0;
    };

    static constexpr uint64_t INITIAL_WINDOW = 64;

    /** Rebuilds the buffers with @p window slots per link, keeping
     *  every live (tag >= _now) slot. */
    void
    resize(uint64_t window)
    {
        std::vector<Slot> grown(size_t(window) * _numPUs);
        uint64_t mask = window - 1;
        for (unsigned l = 0; l < _numPUs && !_slots.empty(); ++l) {
            for (uint64_t i = 0; i <= _mask; ++i) {
                const Slot &s = _slots[l * (_mask + 1) + i];
                if (s.tag != ~0ull && s.tag >= _now)
                    grown[l * window + (s.tag & mask)] = s;
            }
        }
        _slots.swap(grown);
        _mask = mask;
    }

    /** Earliest cycle >= @p t with a free slot on link @p link. */
    uint64_t
    claimSlot(unsigned link, uint64_t t)
    {
        for (;; ++t) {
            while (t - _now > _mask)
                resize(2 * (_mask + 1));
            Slot &s = _slots[link * (_mask + 1) + (t & _mask)];
            if (s.tag != t) {
                assert(s.tag == ~0ull || s.tag < _now);
                s.tag = t;
                s.used = 0;
            }
            if (s.used < _bandwidth) {
                ++s.used;
                return t;
            }
        }
    }

    unsigned _numPUs;
    unsigned _bandwidth;
    uint64_t _now = 0;
    uint64_t _mask = 0;
    std::vector<Slot> _slots;   ///< numPUs links x (_mask + 1) slots.
};

} // namespace arch
} // namespace msc
