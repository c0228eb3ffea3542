#include "edram/refresh_policy.hpp"

#include "common/log.hpp"

namespace kelle {
namespace edram {

std::string
toString(RefreshGroup g)
{
    switch (g) {
      case RefreshGroup::HstMsb:
        return "HST-MSB";
      case RefreshGroup::HstLsb:
        return "HST-LSB";
      case RefreshGroup::LstMsb:
        return "LST-MSB";
      case RefreshGroup::LstLsb:
        return "LST-LSB";
    }
    return "?";
}

RefreshIntervals
RefreshIntervals::paper2drp()
{
    RefreshIntervals r;
    // Section 7.1: 0.36 ms, 5.4 ms, 1.44 ms and 7.2 ms for the MSBs of
    // HST, LSBs of HST, MSBs of LST and LSBs of LST respectively.
    r.of(RefreshGroup::HstMsb) = Time::millis(0.36);
    r.of(RefreshGroup::HstLsb) = Time::millis(5.4);
    r.of(RefreshGroup::LstMsb) = Time::millis(1.44);
    r.of(RefreshGroup::LstLsb) = Time::millis(7.2);
    return r;
}

RefreshIntervals
RefreshIntervals::uniform(Time t)
{
    RefreshIntervals r;
    for (auto &iv : r.interval)
        iv = t;
    return r;
}

RefreshIntervals
RefreshIntervals::retentionFloor()
{
    return uniform(Time::micros(45));
}

Time
RefreshIntervals::averageInterval() const
{
    double inv_sum = 0.0;
    for (const auto &iv : interval) {
        KELLE_ASSERT(iv.sec() > 0.0, "refresh interval must be positive");
        inv_sum += 1.0 / iv.sec();
    }
    return Time::seconds(static_cast<double>(interval.size()) / inv_sum);
}

RefreshIntervals
RefreshIntervals::scaled(double factor) const
{
    RefreshIntervals r;
    for (std::size_t i = 0; i < interval.size(); ++i)
        r.interval[i] = interval[i] * factor;
    return r;
}

TwoDRefreshPolicy::TwoDRefreshPolicy(RefreshIntervals intervals,
                                     RetentionModel retention)
    : intervals_(intervals), retention_(retention)
{}

double
TwoDRefreshPolicy::failureRate(RefreshGroup g) const
{
    return retention_.failureProbability(intervals_.of(g));
}

double
TwoDRefreshPolicy::averageFailureRate() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < kNumRefreshGroups; ++i)
        acc += failureRate(static_cast<RefreshGroup>(i));
    return acc / static_cast<double>(kNumRefreshGroups);
}

Time
TwoDRefreshPolicy::isoAccuracyUniformInterval() const
{
    return retention_.intervalForFailureRate(averageFailureRate());
}

} // namespace edram
} // namespace kelle
