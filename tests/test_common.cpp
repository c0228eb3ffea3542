/**
 * @file
 * Unit tests for the common library: units, RNG, stats, tables,
 * the thread pool.
 */

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
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

TEST(Stats, SummaryMoments)
{
    stats::Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, SummaryEmpty)
{
    stats::Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, HistogramBinning)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(0.5);
    h.sample(5.5);
    h.sample(9.99);
    h.sample(-3.0); // clamps to first bin
    h.sample(42.0); // clamps to last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Stats, GroupCounters)
{
    stats::Group g("test");
    g.add("a", 1.0);
    g.add("a", 2.0);
    g.set("b", 7.0);
    EXPECT_DOUBLE_EQ(g.get("a"), 3.0);
    EXPECT_DOUBLE_EQ(g.get("b"), 7.0);
    EXPECT_DOUBLE_EQ(g.get("missing"), 0.0);
    EXPECT_TRUE(g.has("a"));
    EXPECT_FALSE(g.has("missing"));

    stats::Group other;
    other.add("a", 10.0);
    g.merge(other);
    EXPECT_DOUBLE_EQ(g.get("a"), 13.0);
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

} // namespace
} // namespace kelle
