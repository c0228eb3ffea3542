/**
 * @file
 * Tests for the memory point models, the event queue and the workload
 * / experiment plumbing.
 */

#include <gtest/gtest.h>

#include "memory/memory_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiments.hpp"
#include "sim/workloads.hpp"

namespace kelle {
namespace {

TEST(MemoryModel, SramAnchorsAtTable1)
{
    const auto m = mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(128));
    EXPECT_NEAR(m.accessEnergy().pjPerByte(), 185.9, 0.1);
    EXPECT_NEAR(m.leakage().mw(), 415.0, 0.1);
    EXPECT_NEAR(m.area().inMm2(), 7.3, 0.01);
    EXPECT_NEAR(m.accessLatency().ns(), 2.6, 0.01);
    EXPECT_EQ(m.refreshEnergy().value, 0.0); // SRAM needs no refresh
}

TEST(MemoryModel, EdramAnchorsAtTable1)
{
    const auto m = mem::edram(Bytes::mib(4), Bandwidth::gibPerSec(256));
    EXPECT_NEAR(m.accessEnergy().pjPerByte(), 84.8, 0.1);
    EXPECT_NEAR(m.leakage().mw(), 154.0, 0.1);
    EXPECT_NEAR(m.area().inMm2(), 3.2, 0.01);
    // Steady-state refresh, the same per byte at every capacity.
    EXPECT_NEAR(m.refreshEnergy().pjPerByte(), 112.0, 1e-9);
    EXPECT_EQ(mem::edram(Bytes::kib(256), Bandwidth::gibPerSec(256))
                  .refreshEnergy(),
              m.refreshEnergy());
    EXPECT_EQ(mem::lpddr4().refreshEnergy().value, 0.0);
}

TEST(MemoryModel, EdramDensityAdvantage)
{
    // Table 1 / Section 1: eDRAM offers >2x density (less than half
    // the area at equal capacity) and ~3.5x lower leakage than SRAM.
    const auto s = mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(128));
    const auto e = mem::edram(Bytes::mib(4), Bandwidth::gibPerSec(128));
    EXPECT_GT(s.area().inMm2() / e.area().inMm2(), 2.0);
    EXPECT_GT(s.leakage().w() / e.leakage().w(), 2.5);
}

TEST(MemoryModel, ScalingMonotone)
{
    const auto small = mem::sram(Bytes::mib(2), Bandwidth::gibPerSec(128));
    const auto big = mem::sram(Bytes::mib(8), Bandwidth::gibPerSec(128));
    EXPECT_LT(small.area().inMm2(), big.area().inMm2());
    EXPECT_LT(small.leakage().w(), big.leakage().w());
    EXPECT_LT(small.accessEnergy().pjPerByte(),
              big.accessEnergy().pjPerByte());
}

TEST(MemoryModel, TransferMath)
{
    const auto d = mem::lpddr4();
    EXPECT_NEAR(d.transferTime(Bytes::gib(64)).sec(), 1.0, 1e-9);
    EXPECT_NEAR(d.transferEnergy(Bytes::count(1e9)).j(), 0.12, 1e-9);
}

TEST(EventQueue, OrdersByTime)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(sim::SimTime::nanos(3000), [&] { order.push_back(3); });
    q.schedule(sim::SimTime::nanos(1000), [&] { order.push_back(1); });
    q.schedule(sim::SimTime::nanos(2000), [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now().ns(), 3000);
}

TEST(EventQueue, InsertionOrderBreaksTies)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(sim::SimTime::nanos(2000), [&] { order.push_back(3); });
    q.schedule(sim::SimTime::nanos(1000), [&] { order.push_back(1); });
    q.schedule(sim::SimTime::nanos(1000), [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CallbacksCanReschedule)
{
    sim::EventQueue q;
    int ticks = 0;
    std::function<void()> tick = [&] {
        if (++ticks < 5)
            q.scheduleAfter(sim::SimTime::nanos(1000), tick);
    };
    q.schedule(sim::SimTime::nanos(0), tick);
    q.runAll();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(q.now().ns(), 4000);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    sim::EventQueue q;
    int ran = 0;
    q.schedule(sim::SimTime::nanos(1000), [&] { ++ran; });
    q.schedule(sim::SimTime::nanos(10000), [&] { ++ran; });
    q.runUntil(sim::SimTime::nanos(5000));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.now().ns(), 5000);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    sim::EventQueue q;
    q.schedule(sim::SimTime::nanos(5000), [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(sim::SimTime::nanos(1000), [] {}), "past");
}

TEST(Workloads, PresetsMatchPaperSettings)
{
    const auto pg = sim::pg19();
    EXPECT_EQ(pg.ctxLen, 512u);
    EXPECT_EQ(pg.decLen, 8192u);
    EXPECT_EQ(pg.budget, 2048u);
    EXPECT_EQ(pg.recentWindow, 1024u);
    const auto la = sim::lambada();
    EXPECT_EQ(la.budget, 128u);
    EXPECT_EQ(la.recentWindow, 64u);
    EXPECT_EQ(sim::hardwareTasks().size(), 4u);
}

TEST(Workloads, ScaledTaskKeepsInvariant)
{
    for (const auto &task : sim::hardwareTasks()) {
        const auto s = sim::scaledForTiny(task);
        EXPECT_GT(s.budget, s.sinkTokens + s.recentWindow) << task.name;
        EXPECT_GE(s.ctxLen, 16u);
        EXPECT_GE(s.decLen, 32u);
    }
}

TEST(Workloads, CacheConfigsValid)
{
    for (const auto &task : sim::hardwareTasks()) {
        for (auto policy :
             {kv::Policy::Full, kv::Policy::Streaming, kv::Policy::H2O,
              kv::Policy::Aerp}) {
            const auto cfg = sim::cacheConfigFor(task, policy);
            EXPECT_TRUE(cfg.validate().empty())
                << task.name << " " << kv::toString(policy);
        }
    }
}

TEST(Experiments, Figure13ShapesHold)
{
    // A scaled-down task keeps this test fast while preserving the
    // qualitative ranking of the five systems.
    sim::Task task = sim::lambada();
    task.decLen = 128;
    const auto results =
        sim::runFigure13(task, model::llama2_7b(), /*batch=*/4);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(results[0].system, "Original+SRAM");
    EXPECT_EQ(results[4].system, "Kelle+eDRAM");
    // Kelle wins overall.
    EXPECT_GT(results[4].speedup, 1.0);
    EXPECT_GT(results[4].energyEfficiency, 1.0);
    // Kelle at least matches the intermediate systems.
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_GE(results[4].speedup, results[i].speedup * 0.99)
            << results[i].system;
    }
    // Original+eDRAM without refresh optimization loses energy
    // efficiency versus Original+SRAM (Section 8.1.3).
    EXPECT_LT(results[1].energyEfficiency, 1.0);
    EXPECT_GT(results[1].speedup, 1.0);
}

TEST(Experiments, AccuracyBenchProducesBaseline)
{
    sim::Task tiny = sim::scaledForTiny(sim::lambada(), 96);
    sim::AccuracyBench bench(tiny, /*seed=*/77);
    EXPECT_GT(bench.baselinePerplexity(), 1.0);

    const auto full = bench.run(kv::makeFullConfig());
    EXPECT_NEAR(full.perplexity, bench.baselinePerplexity(), 1e-9);
    EXPECT_DOUBLE_EQ(full.agreementTop1, 1.0);

    const auto aerp = bench.run(sim::cacheConfigFor(tiny, kv::Policy::Aerp));
    EXPECT_GE(aerp.perplexity, full.perplexity * 0.99);
    EXPECT_GT(aerp.agreementTop1, 0.2);
}

} // namespace
} // namespace kelle
