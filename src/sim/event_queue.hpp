/**
 * @file
 * A small discrete-event simulation core used by the bank-level eDRAM
 * tests, the refresh-hiding studies and the serving/cluster engines.
 * Events execute in (time, insertion-order) order; callbacks may
 * schedule further events.
 *
 * The queue is an explicit binary heap over a `std::vector` rather
 * than a `std::priority_queue`: the comparator defines a strict total
 * order (the insertion sequence number breaks every tie), so the pop
 * order — the only observable — is identical, while the explicit heap
 * lets the hot serving loop *move* events in and out (a
 * `priority_queue` top()/pop() cycle copies the `std::function`, a
 * heap allocation per event) and lets owners `reserve` the backing
 * storage for an allocation-free steady state.
 */

#ifndef KELLE_SIM_EVENT_QUEUE_HPP
#define KELLE_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_time.hpp"

namespace kelle {
namespace sim {

/** Heap-driven event scheduler. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule a callback at an absolute time (>= now). */
    void schedule(SimTime when, Callback cb);
    /** Schedule relative to the current time. */
    void scheduleAfter(SimTime delta, Callback cb);

    /** Execute the earliest event; returns false if empty. */
    bool runNext();
    /** Run until the queue drains or `limit` events execute. */
    std::uint64_t runAll(std::uint64_t limit = UINT64_MAX);
    /** Run events with time <= t, then advance now to t. */
    std::uint64_t runUntil(SimTime t);
    /**
     * Run events with time strictly < t; `now` is left at the last
     * executed event (not advanced to t). The cluster drive loop
     * drains each device's partition up to a lookahead horizon with
     * this: events at exactly the horizon must wait for the global
     * events (arrivals, requeues) that sort before them.
     */
    std::uint64_t runBefore(SimTime t);
    /**
     * Advance `now` to t without running anything. Panics if an event
     * earlier than t is still pending — advancing past it would
     * execute it in the past. Owners use this to line a partition's
     * clock up with a globally-timestamped injection (an arrival
     * dispatch) before scheduling into it.
     */
    void advanceTo(SimTime t);

    SimTime now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }

    /** Timestamp of the earliest pending event, `SimTime::never()`
     *  when the queue is empty. The serving fast-forward bounds its
     *  window with this: no callback whatsoever runs before it. */
    SimTime
    nextEventTime() const
    {
        return heap_.empty() ? SimTime::never() : heap_.front().when;
    }

    /** Pre-size the backing storage (events pending at once). */
    void reserve(std::size_t events) { heap_.reserve(events); }

  private:
    struct Event
    {
        SimTime when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return b.when < a.when;
            return b.seq < a.seq;
        }
    };

    std::vector<Event> heap_; ///< std::push_heap/pop_heap under Later
    SimTime now_;
    std::uint64_t seq_ = 0;
};

} // namespace sim
} // namespace kelle

#endif // KELLE_SIM_EVENT_QUEUE_HPP
