#include "common/repeated_add.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace kelle {

namespace {

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
/** Ulp counts of a binade's interior: one ulp inside each edge, so a
 *  sum landing there came from an exact value inside the binade. */
constexpr std::int64_t kInnerLo = (std::int64_t{1} << 52) + 1;
constexpr std::int64_t kInnerHi = (std::int64_t{1} << 53) - 1;

/**
 * How many of the next `k` adds of `x` keep a normal `s` in its
 * binade's interior, each moving it by the same `*move`; 0 when the
 * next add must run plainly (a tie, an edge, or no binade).
 */
std::uint64_t
binadeRun(double s, double x, std::uint64_t k, double *move)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
    const std::uint64_t biased = (bits >> 52) & 0x7ff;
    if (biased == 0 || biased == 0x7ff || !std::isfinite(x))
        return 0;
    // |s| = ulps·u with ulps in [2^52, 2^53).
    const double u = biased > 52
                         ? std::bit_cast<double>((biased - 52) << 52)
                         : std::bit_cast<double>(std::uint64_t{1}
                                                 << (biased - 1));
    const auto ulps =
        static_cast<std::int64_t>((bits & kFracMask) | (kFracMask + 1));
    if (ulps < kInnerLo || ulps > kInnerHi)
        return 0;
    const double q = x / u; // exact wherever |q| >= 1/2 matters
    if (!(std::fabs(q) < 0x1p52))
        return 0; // the add leaves the binade
    if (q - std::floor(q) == 0.5)
        return 0; // a tie
    const auto d = static_cast<std::int64_t>(std::round(q));
    const std::int64_t grow = std::signbit(s) ? -d : d; // |s| per add
    std::uint64_t j = k;
    if (grow > 0)
        j = std::min<std::uint64_t>(j, (kInnerHi - ulps) / grow);
    else if (grow < 0)
        j = std::min<std::uint64_t>(j, (ulps - kInnerLo) / -grow);
    *move = static_cast<double>(d) * u;
    return j;
}

} // namespace

double
repeatedAdd(double s, double x, std::uint64_t k)
{
    while (k > 0) {
        double move = 0.0;
        const std::uint64_t j = binadeRun(s, x, k, &move);
        if (j > 0) {
            // j·d stays inside the binade, so both products and the
            // sum are exact.
            s += static_cast<double>(j) * move;
            k -= j;
            continue;
        }
        const double next = s + x;
        --k;
        if (next == s || std::isnan(next))
            return next; // a fixpoint of `+= x`
        s = next;
    }
    return s;
}

} // namespace kelle
