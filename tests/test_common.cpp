/**
 * @file
 * Unit tests for the common library: units, the exact repeated add,
 * RNG, tables, the thread pool, the CLI flag parser.
 */

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arg_parser.hpp"
#include "common/repeated_add.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace kelle {
namespace {

TEST(Units, TimeConstructionAndConversion)
{
    EXPECT_DOUBLE_EQ(Time::millis(3).sec(), 3e-3);
    EXPECT_DOUBLE_EQ(Time::micros(45).us(), 45.0);
    EXPECT_DOUBLE_EQ(Time::nanos(1.9).ns(), 1.9);
    EXPECT_DOUBLE_EQ((Time::millis(1) + Time::micros(500)).ms(), 1.5);
}

TEST(Units, EnergyPowerAlgebra)
{
    const Power p = Power::watts(2.0);
    const Time t = Time::seconds(3.0);
    EXPECT_DOUBLE_EQ((p * t).j(), 6.0);
    EXPECT_DOUBLE_EQ((Energy::joules(6.0) / t).w(), 2.0);
    EXPECT_DOUBLE_EQ((Energy::joules(6.0) / p).sec(), 3.0);
}

TEST(Units, BytesAndBandwidth)
{
    const Bytes b = Bytes::mib(64);
    const Bandwidth bw = Bandwidth::gibPerSec(64);
    EXPECT_NEAR((b / bw).sec(), 64.0 / (64.0 * 1024.0), 1e-12);
    EXPECT_DOUBLE_EQ(Bytes::gib(1).inMib(), 1024.0);
}

TEST(Units, EnergyPerByteTimesBytes)
{
    const EnergyPerByte e = EnergyPerByte::picojoules(84.8);
    EXPECT_NEAR((e * Bytes::count(1000)).pj(), 84800.0, 1e-6);
}

TEST(Units, CyclesAtFrequency)
{
    const Cycles c(1000);
    EXPECT_DOUBLE_EQ(c.atFrequency(1e9).us(), 1.0);
}

TEST(Units, UnitRatioIsDimensionless)
{
    EXPECT_DOUBLE_EQ(Time::seconds(6) / Time::seconds(3), 2.0);
}

TEST(Units, FormatSi)
{
    EXPECT_EQ(formatSi(3.2e-3, "s"), "3.2 ms");
    EXPECT_EQ(formatSi(0.0, "J"), "0 J");
    EXPECT_EQ(formatSi(2.5e9, "B/s"), "2.5 GB/s");
}

/** `k` plain `s += x`: what repeatedAdd must equal. */
double
loopAdd(double s, double x, std::uint64_t k)
{
    for (std::uint64_t i = 0; i < k; ++i)
        s += x;
    return s;
}

/** repeatedAdd(s, x, k) equals the loop bit for bit (any NaN matches
 *  any NaN: payloads are unspecified). */
void
expectRepeatedAddExact(double s, double x, std::uint64_t k)
{
    const double want = loopAdd(s, x, k);
    const double got = repeatedAdd(s, x, k);
    if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << std::hexfloat << s << " + " << x;
        return;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << std::hexfloat << s << " + " << x << " x " << std::dec << k
        << ": got " << std::hexfloat << got << ", want " << want;
}

/** The spacing of doubles in the binade of a normal `s`. */
double
ulpOf(double s)
{
    int e = 0;
    std::frexp(s, &e); // |s| in [2^(e-1), 2^e)
    return std::ldexp(1.0, e - 53);
}

TEST(RepeatedAdd, MatchesTheLoopOnRandomOperands)
{
    Rng rng(23);
    for (int i = 0; i < 400; ++i) {
        const double sign_s = rng.bernoulli(0.2) ? -1.0 : 1.0;
        const double s = sign_s * std::ldexp(rng.uniform(1.0, 2.0),
                                             static_cast<int>(rng.below(61)) - 30);
        // Addends from ~1e-12 |s| to ~|s|, a fifth of them against
        // the sum (which then shrinks through binades and may cross 0).
        const double sign_x = rng.bernoulli(0.2) ? -sign_s : sign_s;
        const double x = sign_x * std::fabs(s) *
                         std::pow(10.0, -12.0 * rng.uniform());
        const std::uint64_t k_max = i % 4 == 0 ? 1000000 : 1000;
        expectRepeatedAddExact(s, x, 1 + rng.below(k_max));
    }
}

TEST(RepeatedAdd, BuiltTiesFollowTheSumsParity)
{
    // x = (m + 1/2)·ulp(s): every add inside the binade is a tie.
    Rng rng(5);
    for (double m : {0.0, 1.0, 2.0, 3.0, 7.0, 100.0}) {
        for (int i = 0; i < 4; ++i) {
            const double s = std::ldexp(rng.uniform(1.0, 2.0), 3 * i - 4);
            const double x = (m + 0.5) * ulpOf(s);
            expectRepeatedAddExact(s, x, 100000);
            expectRepeatedAddExact(s, -x, 100000);
            // An odd and an even starting mantissa.
            const double odd = std::nextafter(s, 4.0 * s);
            expectRepeatedAddExact(odd, x, 1000);
            expectRepeatedAddExact(odd, -x, 1000);
        }
    }
}

TEST(RepeatedAdd, CrossesManyBinades)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        // x ~ s: one or two adds per binade.
        const double s = rng.uniform(0.5, 4.0);
        expectRepeatedAddExact(s, s * rng.uniform(0.5, 2.0), 100000);
        expectRepeatedAddExact(s, -s * rng.uniform(0.001, 0.01), 10000);
    }
    for (int e : {-20, 0, 1, 30}) {
        // Just below and at a power of two, adds of a few ulps either
        // way: the spacing doubles above and halves below it.
        const double p = std::ldexp(1.0, e);
        const double below = std::nextafter(p, 0.0);
        for (double ulps : {0.3, 1.0, 3.7, 1000.25}) {
            const double x = ulps * ulpOf(below);
            expectRepeatedAddExact(below, x, 1000000);
            expectRepeatedAddExact(p, -x, 1000000);
            expectRepeatedAddExact(-below, -x, 1000000);
        }
    }
}

TEST(RepeatedAdd, StagnatesBelowHalfAnUlp)
{
    for (double s : {1.0, 1.5, 3.0, -7.25, 1e300}) {
        const double u = ulpOf(s);
        expectRepeatedAddExact(s, 0.49 * u, 1000000);
        expectRepeatedAddExact(s, -0.49 * u, 1000000);
        expectRepeatedAddExact(s, 0.5 * u, 1000000); // a tie
        expectRepeatedAddExact(s, 0.0, 1000000);
        expectRepeatedAddExact(s, -0.0, 1000000);
        EXPECT_EQ(repeatedAdd(s, 0.3 * u, std::uint64_t{1} << 62), s);
    }
    // At a power of two the spacing below is half: a quarter ulp down
    // does not stagnate.
    expectRepeatedAddExact(2.0, -0.3 * ulpOf(2.0), 1000000);
}

TEST(RepeatedAdd, ZeroSums)
{
    for (double s : {0.0, -0.0}) {
        for (double x : {0.0, -0.0, 1.0, -3.5, 1e-300, 0.1}) {
            expectRepeatedAddExact(s, x, 0);
            expectRepeatedAddExact(s, x, 1);
            expectRepeatedAddExact(s, x, 1000000);
        }
    }
    // A sum driven through zero.
    expectRepeatedAddExact(1.0, -0.25, 10);
    expectRepeatedAddExact(1.0, -0.3, 1000);
}

TEST(RepeatedAdd, SubnormalAddends)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double min_normal = std::numeric_limits<double>::min();
    for (double x : {tiny, 3.0 * tiny, 0.3 * min_normal, -7.0 * tiny}) {
        expectRepeatedAddExact(0.0, x, 100000);
        expectRepeatedAddExact(min_normal, x, 100000);
        expectRepeatedAddExact(4.0 * min_normal, x, 100000);
        expectRepeatedAddExact(1e-300, x, 100000);
        expectRepeatedAddExact(1.0, x, 100000);
    }
}

TEST(RepeatedAdd, InfinitiesAndNans)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double big = std::numeric_limits<double>::max();
    for (double s : {inf, -inf, nan, 1.0, -2.0, big}) {
        for (double x : {inf, -inf, nan, 1.0, 0.0, big / 4.0}) {
            expectRepeatedAddExact(s, x, 1);
            expectRepeatedAddExact(s, x, 1000);
        }
    }
    EXPECT_EQ(repeatedAdd(big / 2.0, big / 4.0, 10), inf);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Table, RendersAligned)
{
    Table t({"col", "value"});
    t.addRow({"x", "1.00"});
    t.addRow({"longer", "2.50"});
    const std::string out = t.render();
    EXPECT_NE(out.find("col |"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // All rows render to the same width.
    std::size_t first_len = out.find('\n');
    for (std::size_t pos = 0; pos < out.size();) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, first_len);
        pos = next + 1;
    }
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::mult(3.9399, 2), "3.94x");
    EXPECT_EQ(Table::pct(0.465, 1), "46.5%");
}

TEST(ThreadPool, SlotResultsMatchTheSerialLoop)
{
    // Each iteration writes only its own slot, so the parallel sweep
    // must be bit-identical to the serial one — the property the
    // bench harnesses rely on for seeded determinism. Two jobs per
    // pool: the workers outlive a forEach and must serve the next.
    const std::size_t n = 257;
    auto cell = [](std::size_t i) {
        Rng rng(1000 + i); // per-cell seed, like a sweep cell
        double acc = 0.0;
        for (int k = 0; k < 50; ++k)
            acc += rng.uniform();
        return acc;
    };
    std::vector<double> serial(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = cell(i);
    for (std::size_t threads : {1u, 4u, 16u}) {
        common::ThreadPool pool(threads);
        for (int job = 0; job < 2; ++job) {
            std::vector<double> parallel(n);
            pool.forEach(n,
                         [&](std::size_t i) { parallel[i] = cell(i); });
            EXPECT_EQ(serial, parallel)
                << threads << " threads, job " << job;
        }
    }
}

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    common::ThreadPool pool(8);
    pool.forEach(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EdgeSizes)
{
    common::ThreadPool pool(4);
    pool.forEach(0, [](std::size_t) { FAIL(); });
    int calls = 0;
    pool.forEach(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
    // More lanes than work: excess workers find nothing to claim.
    std::atomic<int> done{0};
    common::ThreadPool wide(16);
    wide.forEach(2, [&](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 2);
    EXPECT_GE(common::defaultParallelism(), 1u);
    EXPECT_EQ(common::ThreadPool(0).threads(),
              common::defaultParallelism());
}

TEST(ThreadPool, RethrowsTheFirstWorkerException)
{
    common::ThreadPool pool(4);
    EXPECT_THROW(pool.forEach(64,
                              [](std::size_t i) {
                                  if (i == 13)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The error does not stick to the pool: the next job runs clean.
    std::atomic<int> done{0};
    EXPECT_NO_THROW(pool.forEach(64, [&](std::size_t) { ++done; }));
    EXPECT_EQ(done.load(), 64);
}

/** Parse `flags` as a command line after a program name. */
bool
parseArgs(common::ArgParser &args, std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &f : flags)
        argv.push_back(f.data());
    return args.parse(static_cast<int>(argv.size()), argv.data());
}

/** Parse `--n value` against one int flag of `range`; on rejection,
 *  the one stderr line must name the flag. */
bool
intAccepted(common::IntRange range, const std::string &value)
{
    common::ArgParser args("prog", "");
    args.addInt("n", range == common::IntRange::AtLeastOne ? 1 : 0, "",
                range);
    ::testing::internal::CaptureStderr();
    const bool ok = parseArgs(args, {"--n", value});
    const std::string err = ::testing::internal::GetCapturedStderr();
    if (!ok) {
        EXPECT_EQ(args.exitCode(), 1);
        EXPECT_EQ(err.find("--n "), 6u) << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    }
    return ok;
}

bool
numAccepted(common::NumRange range, const std::string &value)
{
    common::ArgParser args("prog", "");
    args.addDouble("x", 0.5, "", range);
    ::testing::internal::CaptureStderr();
    const bool ok = parseArgs(args, {"--x=" + value});
    const std::string err = ::testing::internal::GetCapturedStderr();
    if (!ok) {
        EXPECT_EQ(args.exitCode(), 1);
        EXPECT_EQ(err.find("--x "), 6u) << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    }
    return ok;
}

TEST(ArgParser, ParsesEveryKindInBothSpellings)
{
    common::ArgParser args("prog", "");
    args.addInt("n", 1, "");
    args.addDouble("x", 0.5, "");
    args.addString("s", "a", "");
    args.addBool("b", false, "");
    args.addBool("c", true, "");
    ASSERT_TRUE(parseArgs(args, {"--n", "-7", "--x=2.5", "--s", "hi",
                                 "--b", "--c=0"}));
    EXPECT_EQ(args.getInt("n"), -7);
    EXPECT_EQ(args.getDouble("x"), 2.5);
    EXPECT_EQ(args.getString("s"), "hi");
    EXPECT_TRUE(args.getBool("b"));
    EXPECT_FALSE(args.getBool("c"));
    EXPECT_TRUE(args.provided("n"));

    common::ArgParser defaults("prog", "");
    defaults.addInt("n", 3, "", common::IntRange::AtLeastOne);
    ASSERT_TRUE(parseArgs(defaults, {}));
    EXPECT_EQ(defaults.getSize("n"), 3u);
    EXPECT_FALSE(defaults.provided("n"));
}

TEST(ArgParser, IntRangesRejectValuesOutsideThem)
{
    using common::IntRange;
    EXPECT_TRUE(intAccepted(IntRange::Any, "-9223372036854775808"));
    EXPECT_TRUE(intAccepted(IntRange::Any, "9223372036854775807"));
    EXPECT_TRUE(intAccepted(IntRange::NonNegative, "0"));
    EXPECT_FALSE(intAccepted(IntRange::NonNegative, "-1"));
    EXPECT_TRUE(intAccepted(IntRange::AtLeastOne, "1"));
    EXPECT_FALSE(intAccepted(IntRange::AtLeastOne, "0"));
    EXPECT_TRUE(intAccepted(IntRange::Uint32, "0"));
    EXPECT_TRUE(intAccepted(IntRange::Uint32, "4294967295"));
    EXPECT_FALSE(intAccepted(IntRange::Uint32, "4294967296"));
    EXPECT_FALSE(intAccepted(IntRange::Uint32, "-1"));
}

TEST(ArgParser, IntOverflowIsRejectedNotSaturated)
{
    // strtoll clamps these to INT64_MAX / INT64_MIN, both in range.
    for (const char *v : {"9223372036854775808", "99999999999999999999",
                          "-9223372036854775809"})
        EXPECT_FALSE(intAccepted(common::IntRange::Any, v)) << v;
}

TEST(ArgParser, NumRangesRejectValuesOutsideThem)
{
    using common::NumRange;
    for (const char *v : {"nan", "inf", "-1e300"})
        EXPECT_TRUE(numAccepted(NumRange::Any, v)) << v;
    EXPECT_TRUE(numAccepted(NumRange::PositiveFinite, "1e-300"));
    for (const char *v : {"0", "-1", "nan", "inf"})
        EXPECT_FALSE(numAccepted(NumRange::PositiveFinite, v)) << v;
    EXPECT_TRUE(numAccepted(NumRange::NonNegativeFinite, "0"));
    for (const char *v : {"-0.5", "nan", "inf"})
        EXPECT_FALSE(numAccepted(NumRange::NonNegativeFinite, v)) << v;
    EXPECT_TRUE(numAccepted(NumRange::UnitFraction, "0"));
    EXPECT_TRUE(numAccepted(NumRange::UnitFraction, "1"));
    for (const char *v : {"-0.1", "1.5", "nan"})
        EXPECT_FALSE(numAccepted(NumRange::UnitFraction, v)) << v;
}

TEST(ArgParser, HelpPrintsEachNumericFlagsRange)
{
    common::ArgParser args("prog", "what it does");
    args.addInt("seed", 42, "a seed");
    args.addInt("n", 2, "a count", common::IntRange::AtLeastOne);
    args.addDouble("f", 0.5, "a fraction", common::NumRange::UnitFraction);
    args.addBool("b", false, "a switch");
    const std::string help = args.usage();
    for (const char *line :
         {"  --seed <int>  a seed (default 42, any value)\n",
          "  --n <int>  a count (default 2, must be >= 1)\n",
          "  --f <num>  a fraction (default 0.5, must be a fraction in "
          "[0, 1])\n",
          "  --b [0|1]  a switch (default 0)\n"})
        EXPECT_NE(help.find(line), std::string::npos) << help;

    ::testing::internal::CaptureStdout();
    EXPECT_FALSE(parseArgs(args, {"--help"}));
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), help);
    EXPECT_EQ(args.exitCode(), 0);
}

TEST(ArgParser, MalformedCommandLinesFailWithTheUsage)
{
    for (const std::vector<std::string> &argv :
         std::vector<std::vector<std::string>>{
             {"--nope", "1"}, {"--n"}, {"--n", "4x"}, {"--x", ""},
             {"stray"}}) {
        common::ArgParser args("prog", "");
        args.addInt("n", 0, "");
        args.addDouble("x", 0.0, "");
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(parseArgs(args, argv));
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(args.exitCode(), 1);
        EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
    }
}

TEST(ArgParser, DefaultOutsideItsRangeIsABug)
{
    common::ArgParser args("prog", "");
    EXPECT_DEATH(args.addInt("n", 0, "", common::IntRange::AtLeastOne),
                 "out of its range");
    EXPECT_DEATH(args.addDouble("x", 0.0, "",
                                common::NumRange::PositiveFinite),
                 "out of its range");
}

} // namespace
} // namespace kelle
