/**
 * @file
 * The simulation clock: a strong int64 count of nanoseconds (ticks).
 *
 * Event-queue keys, request stamps, cluster windows, fault and retry
 * instants, waterfall components and trace timestamps are all ticks,
 * so their sums and differences are exact: waterfall folds close by
 * construction, a doom test is one integer comparison, and a trace's
 * `%.3f` µs timestamps parse back to the ticks that were written.
 *
 * The accelerator model (`accel/`) keeps `double` seconds
 * (`kelle::Time`); there is no implicit conversion either way. Values
 * enter the clock through `fromSec`, which rounds once: a step latency
 * in `DeviceEngine::scaled()`, an arrival in the request generator, a
 * fault or backoff draw where it is scheduled.
 */

#ifndef KELLE_SIM_SIM_TIME_HPP
#define KELLE_SIM_SIM_TIME_HPP

#include <compare>
#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace kelle {
namespace sim {

/** @name Tick sums clamped to the int64 range. Engine runs never come
 *  near it; `never()` absorbs what is added to it, and a hostile trace
 *  replayed into a waterfall saturates instead of overflowing. @{ */
constexpr std::int64_t
addTicks(std::int64_t a, std::int64_t b)
{
    std::int64_t r = 0;
    if (__builtin_add_overflow(a, b, &r))
        return b > 0 ? INT64_MAX : INT64_MIN;
    return r;
}
constexpr std::int64_t
subTicks(std::int64_t a, std::int64_t b)
{
    std::int64_t r = 0;
    if (__builtin_sub_overflow(a, b, &r))
        return b < 0 ? INT64_MAX : INT64_MIN;
    return r;
}
/** @} */

class SimTime
{
  public:
    constexpr SimTime() = default;

    static constexpr SimTime nanos(std::int64_t ns) { return SimTime(ns); }
    /** `s` seconds rounded to the nearest tick, halves away from zero
     *  (`std::round`'s rule, without the libm call); +inf, NaN and
     *  values from 2^63 ns up saturate to `never()`, values below
     *  -2^63 ns to INT64_MIN. */
    static constexpr SimTime
    fromSec(double s)
    {
        const double ns = s * 1e9;
        if (!(ns < 0x1p63))
            return never();
        if (ns < -0x1p63)
            return SimTime(INT64_MIN);
        // Truncation toward zero; `ns - i` is exact (0 from 2^52 up,
        // where every double is an integer).
        const auto i = static_cast<std::int64_t>(ns);
        const double frac = ns - static_cast<double>(i);
        return SimTime(frac >= 0.5 ? i + 1 : frac <= -0.5 ? i - 1 : i);
    }
    /** Later than every reachable instant (an empty queue's next
     *  event, an absent bound); adding to it leaves it unchanged. */
    static constexpr SimTime never() { return SimTime(INT64_MAX); }

    constexpr std::int64_t ns() const { return ns_; }
    constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

    friend constexpr SimTime
    operator+(SimTime a, SimTime b)
    {
        return SimTime(addTicks(a.ns_, b.ns_));
    }
    friend constexpr SimTime
    operator-(SimTime a, SimTime b)
    {
        return SimTime(a.ns_ - b.ns_);
    }
    SimTime &
    operator+=(SimTime b)
    {
        return *this = *this + b;
    }
    friend constexpr auto operator<=>(SimTime, SimTime) = default;

  private:
    explicit constexpr SimTime(std::int64_t ns) : ns_(ns) {}

    std::int64_t ns_ = 0;
};

inline std::string toString(SimTime t) { return formatSi(t.sec(), "s"); }

} // namespace sim
} // namespace kelle

#endif // KELLE_SIM_SIM_TIME_HPP
