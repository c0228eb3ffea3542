#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace kelle {
namespace sim {

void
EventQueue::schedule(SimTime when, Callback cb)
{
    KELLE_ASSERT(when >= now_, "scheduling into the past: ", when.sec(),
                 " < ", now_.sec());
    heap_.push_back(Event{when, seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::scheduleAfter(SimTime delta, Callback cb)
{
    schedule(now_ + delta, std::move(cb));
}

bool
EventQueue::runNext()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.when;
    ev.cb();
    return true;
}

std::uint64_t
EventQueue::runAll(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && runNext())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runBefore(SimTime t)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when < t) {
        runNext();
        ++n;
    }
    return n;
}

void
EventQueue::advanceTo(SimTime t)
{
    KELLE_ASSERT(heap_.empty() || !(heap_.front().when < t),
                 "advancing the clock past a pending event: ",
                 heap_.empty() ? 0.0 : heap_.front().when.sec(),
                 " < ", t.sec());
    if (t > now_)
        now_ = t;
}

std::uint64_t
EventQueue::runUntil(SimTime t)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= t) {
        runNext();
        ++n;
    }
    if (t > now_)
        now_ = t;
    return n;
}

} // namespace sim
} // namespace kelle
