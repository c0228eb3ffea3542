/**
 * @file
 * Two-dimensional adaptive refresh policy (2DRP, Section 4.2).
 *
 * 2DRP assigns each stored eDRAM cell one of four refresh intervals
 * based on (token importance group) x (bit significance): the MSBs of
 * high-score tokens refresh most often, the LSBs of low-score tokens
 * least often. The refresh *power* of a group is inversely
 * proportional to its interval, so the effective average interval
 * across groups is the harmonic mean — which for the paper's interval
 * set (0.36 / 5.4 / 1.44 / 7.2 ms) is the 1.05 ms the paper quotes,
 * with an average retention failure rate of ~2e-3.
 */

#ifndef KELLE_EDRAM_REFRESH_POLICY_HPP
#define KELLE_EDRAM_REFRESH_POLICY_HPP

#include <array>
#include <string>

#include "common/units.hpp"
#include "edram/retention.hpp"

namespace kelle {
namespace edram {

/** The four 2DRP refresh groups (Figure 7b/c). */
enum class RefreshGroup
{
    HstMsb = 0, ///< high-score token, bits 15..8
    HstLsb = 1, ///< high-score token, bits 7..0
    LstMsb = 2, ///< low-score token, bits 15..8
    LstLsb = 3, ///< low-score token, bits 7..0
};

inline constexpr std::size_t kNumRefreshGroups = 4;

std::string toString(RefreshGroup g);

/** Per-group refresh interval assignment. */
struct RefreshIntervals
{
    std::array<Time, kNumRefreshGroups> interval = {};

    Time of(RefreshGroup g) const
    {
        return interval[static_cast<std::size_t>(g)];
    }
    Time &of(RefreshGroup g)
    {
        return interval[static_cast<std::size_t>(g)];
    }

    /** The paper's deployment set (Section 7.1). */
    static RefreshIntervals paper2drp();

    /** Uniform policy: every group refreshed at the same interval. */
    static RefreshIntervals uniform(Time t);

    /** The unoptimized "Org" policy: every group refreshed at the
     *  45 us retention floor of Table 1. */
    static RefreshIntervals retentionFloor();

    /**
     * Refresh-rate-weighted (harmonic-mean) average interval; this is
     * what determines total refresh energy for equal-sized groups.
     */
    Time averageInterval() const;

    /** Scale all four intervals by a factor (retention-time studies). */
    RefreshIntervals scaled(double factor) const;

    bool operator==(const RefreshIntervals &) const = default;
};

/** Couples an interval set with a retention model. */
class TwoDRefreshPolicy
{
  public:
    TwoDRefreshPolicy(RefreshIntervals intervals, RetentionModel retention);

    /** Bit-flip probability per read for a group (P(T < interval)). */
    double failureRate(RefreshGroup g) const;

    /** Mean failure rate across the four equal-sized groups. */
    double averageFailureRate() const;

    /**
     * The uniform interval whose failure rate equals this policy's
     * average failure rate — the iso-accuracy uniform baseline used in
     * Table 4 and Figure 15b.
     */
    Time isoAccuracyUniformInterval() const;

    const RefreshIntervals &intervals() const { return intervals_; }
    const RetentionModel &retention() const { return retention_; }

  private:
    RefreshIntervals intervals_;
    RetentionModel retention_;
};

} // namespace edram
} // namespace kelle

#endif // KELLE_EDRAM_REFRESH_POLICY_HPP
