/**
 * @file
 * A run of identical floating-point additions, collapsed exactly.
 */

#ifndef KELLE_COMMON_REPEATED_ADD_HPP
#define KELLE_COMMON_REPEATED_ADD_HPP

#include <cstdint>

namespace kelle {

/**
 * The value of `for (k times) s += x;` in IEEE-754 double with
 * round-to-nearest-even, bit for bit, taken one binade of `s` at a
 * time instead of one add at a time.
 *
 * Inside the binade of `s` every double is a multiple of the binade's
 * ulp `u`, so each add moves `s` by the same `d = round(x / u)·u` as
 * long as the exact sum stays in the binade — except when `2x / u` is
 * an odd integer: that add is a tie, whose rounding follows the parity
 * of `s`, and it runs plainly. The adds that keep `s` one ulp inside
 * the binade are an integer division of ulp counts and apply as one
 * exact add of `j·d`; the add that crosses into the next binade runs
 * plainly. Once `s + x == s` (or the sum is NaN) every later add
 * leaves the sum as it is, and the helper returns. A zero or subnormal
 * `s` and non-finite operands step plainly.
 *
 * Cost: a few steps per binade crossed, plus one per tie.
 */
double repeatedAdd(double s, double x, std::uint64_t k);

} // namespace kelle

#endif // KELLE_COMMON_REPEATED_ADD_HPP
