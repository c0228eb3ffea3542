/**
 * @file
 * Deterministic tests of the serving subsystem: seeded arrival
 * traces, KV-pool conservation under admission/release, hand-computed
 * percentiles, engine conservation (every admitted request completes
 * and the pool is never oversubscribed), policy comparison, and the
 * batched timing-model entry points.
 *
 * Everything runs on the tiny functional model with scaled tasks so
 * the whole suite stays in the fast tier.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "accel/timing_model.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/rng.hpp"
#include "serving/device_engine.hpp"
#include "serving/kv_budget_allocator.hpp"
#include "serving/request_generator.hpp"
#include "serving/serving_metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiments.hpp"

namespace kelle {
namespace {

/** A Kelle+eDRAM device at batch cap 4 whose default pool holds a
 *  handful of concurrent tiny budgets. */
serving::DeviceSpec
tinyDevice(std::size_t pool_tokens = 512)
{
    serving::DeviceSpec d;
    d.poolTokens = pool_tokens;
    d.maxBatch = 4;
    return d;
}

/** A single-device session: a 1-device round-robin cluster. */
cluster::ClusterConfig
oneDevice(const serving::ServingConfig &cfg,
          const serving::DeviceSpec &device = tinyDevice())
{
    cluster::ClusterConfig c;
    c.engine = cfg;
    c.devices = cluster::homogeneousFleet(1, device.system,
                                          device.poolTokens,
                                          device.maxBatch);
    return c;
}

serving::ServingReport
runOneDevice(const serving::ServingConfig &cfg)
{
    return cluster::ClusterEngine(oneDevice(cfg)).run().aggregate;
}

/** Scaled two-task mix so engine runs finish in milliseconds. */
std::vector<std::pair<sim::Task, double>>
tinyMix()
{
    return {{sim::scaledForTiny(sim::lambada(), 96), 1.0},
            {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
}

serving::ServingConfig
tinyServingConfig(serving::SchedulePolicy policy, double rate,
                  std::uint64_t seed, std::size_t requests)
{
    serving::ServingConfig cfg;
    cfg.model = model::tinyLm();
    cfg.policy = policy;
    cfg.traffic.ratePerSec = rate;
    cfg.traffic.seed = seed;
    cfg.traffic.numRequests = requests;
    cfg.traffic.mix = tinyMix();
    return cfg;
}

// ---- RequestGenerator --------------------------------------------------

TEST(RequestGenerator, DeterministicForAFixedSeed)
{
    serving::TrafficConfig cfg;
    cfg.ratePerSec = 1.0;
    cfg.numRequests = 40;
    cfg.seed = 123;

    const auto a = serving::generateTrace(cfg);
    const auto b = serving::generateTrace(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival.sec(), b[i].arrival.sec()) << i;
        EXPECT_EQ(a[i].task.name, b[i].task.name) << i;
    }

    cfg.seed = 124;
    const auto c = serving::generateTrace(cfg);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].arrival.sec() != c[i].arrival.sec())
            differs = true;
    }
    EXPECT_TRUE(differs) << "different seeds produced identical traces";
}

TEST(RequestGenerator, ArrivalsAreOrderedWithSaneRate)
{
    serving::TrafficConfig cfg;
    cfg.ratePerSec = 2.0;
    cfg.numRequests = 400;
    cfg.seed = 9;

    const auto trace = serving::generateTrace(cfg);
    ASSERT_EQ(trace.size(), cfg.numRequests);
    double prev = -1.0;
    for (const auto &r : trace) {
        EXPECT_GE(r.arrival.sec(), prev);
        prev = r.arrival.sec();
    }
    // Mean inter-arrival of a Poisson trace ~ 1/rate; 400 samples keep
    // the seeded estimate within a loose factor.
    const double mean = prev / static_cast<double>(cfg.numRequests - 1);
    EXPECT_GT(mean, 0.5 / cfg.ratePerSec);
    EXPECT_LT(mean, 2.0 / cfg.ratePerSec);
}

TEST(RequestGenerator, BurstyTraceIsBurstier)
{
    serving::TrafficConfig cfg;
    cfg.ratePerSec = 1.0;
    cfg.numRequests = 500;
    cfg.seed = 77;

    auto squaredCv = [](const std::vector<serving::Request> &trace) {
        std::vector<double> gaps;
        for (std::size_t i = 1; i < trace.size(); ++i)
            gaps.push_back(trace[i].arrival.sec() -
                           trace[i - 1].arrival.sec());
        double mean = 0.0;
        for (double g : gaps)
            mean += g;
        mean /= static_cast<double>(gaps.size());
        double var = 0.0;
        for (double g : gaps)
            var += (g - mean) * (g - mean);
        var /= static_cast<double>(gaps.size());
        return var / (mean * mean);
    };

    const auto poisson = serving::generateTrace(cfg);
    cfg.process = serving::ArrivalProcess::Bursty;
    const auto bursty = serving::generateTrace(cfg);
    // Exponential gaps have CV^2 ~ 1; MMPP clustering pushes it up.
    EXPECT_GT(squaredCv(bursty), squaredCv(poisson));
}

TEST(RequestGenerator, MixCoversAllHardwareTasks)
{
    serving::TrafficConfig cfg;
    cfg.ratePerSec = 1.0;
    cfg.numRequests = 200;
    cfg.seed = 5;
    const auto trace = serving::generateTrace(cfg);
    std::size_t seen = 0;
    for (const auto &task : sim::hardwareTasks()) {
        for (const auto &r : trace) {
            if (r.task.name == task.name) {
                ++seen;
                break;
            }
        }
    }
    EXPECT_EQ(seen, sim::hardwareTasks().size());
}

// ---- KvBudgetAllocator -------------------------------------------------

TEST(KvBudgetAllocator, NeverOversubscribesUnderChurn)
{
    serving::AllocatorConfig cfg;
    cfg.capacityBytes = 10000.0;
    cfg.bytesPerToken = 10.0;
    serving::KvBudgetAllocator alloc(cfg);

    Rng rng(2024);
    std::vector<serving::KvBudgetAllocator::Grant> live;
    for (int i = 0; i < 2000; ++i) {
        if (rng.bernoulli(0.6) || live.empty()) {
            const std::size_t want = 50 + rng.below(200);
            auto g = alloc.tryAdmit(want, 20);
            if (g.admitted)
                live.push_back(g);
        } else {
            const std::size_t pick = rng.below(live.size());
            alloc.release(live[pick]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        }
        EXPECT_LE(alloc.inUseBytes(), cfg.capacityBytes);
    }
    EXPECT_LE(alloc.peakInUseBytes(), cfg.capacityBytes);
    for (auto &g : live)
        alloc.release(g);
    EXPECT_DOUBLE_EQ(alloc.inUseBytes(), 0.0);
}

TEST(KvBudgetAllocator, ReleaseRestoresCapacity)
{
    serving::AllocatorConfig cfg;
    cfg.capacityBytes = 1000.0;
    cfg.bytesPerToken = 1.0;
    cfg.highWatermark = 1.0;
    serving::KvBudgetAllocator alloc(cfg);

    auto a = alloc.tryAdmit(600, 100);
    ASSERT_TRUE(a.admitted);
    EXPECT_EQ(a.budgetTokens, 600u);
    // Pool holds 400 more: a 600-token ask shrinks to what fits.
    auto b = alloc.tryAdmit(600, 100);
    ASSERT_TRUE(b.admitted);
    EXPECT_EQ(b.budgetTokens, 400u);
    // A contiguous reservation holds its whole budget from admission,
    // and has no pages to publish a prefix from.
    EXPECT_EQ(a.chainCapacityTokens, a.budgetTokens);
    EXPECT_EQ(b.chainCapacityTokens, b.budgetTokens);
    alloc.publishPrefix(a, 7, 100);
    // Nothing left for the floor: deferred.
    auto c = alloc.tryAdmit(600, 100);
    EXPECT_FALSE(c.admitted);
    EXPECT_EQ(alloc.deferrals(), 1u);

    alloc.release(a);
    auto d = alloc.tryAdmit(600, 100);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.budgetTokens, 600u);
}

TEST(KvBudgetAllocator, PressureShrinksTowardTheFloor)
{
    serving::AllocatorConfig cfg;
    cfg.capacityBytes = 1000.0;
    cfg.bytesPerToken = 1.0;
    cfg.highWatermark = 0.5;
    serving::KvBudgetAllocator alloc(cfg);

    auto a = alloc.tryAdmit(400, 50);
    ASSERT_TRUE(a.admitted);
    EXPECT_EQ(a.budgetTokens, 400u); // below the 500-byte watermark
    auto b = alloc.tryAdmit(400, 50);
    ASSERT_TRUE(b.admitted);
    EXPECT_EQ(b.budgetTokens, 100u); // shrunk to stay at the watermark
    auto c = alloc.tryAdmit(400, 50);
    ASSERT_TRUE(c.admitted);
    EXPECT_EQ(c.budgetTokens, 50u); // floor grant above the watermark
    EXPECT_EQ(alloc.shrunkGrants(), 2u);
    EXPECT_LE(alloc.inUseBytes(), cfg.capacityBytes);
}

// ---- ServingMetrics ----------------------------------------------------

TEST(ServingMetrics, PercentilesMatchHandComputedRanks)
{
    // Nearest-rank on n=10: p50 -> 5th smallest, p95/p99 -> 10th.
    std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 10, 5};
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile(v, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile(v, 90.0), 9.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile(v, 95.0), 10.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile(v, 99.0), 10.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile({42.0}, 95.0),
                     42.0);
    EXPECT_DOUBLE_EQ(serving::ServingMetrics::percentile({}, 95.0), 0.0);
}

TEST(ServingMetrics, SummaryFromAHandBuiltTrace)
{
    serving::ServingMetrics m;
    for (int i = 1; i <= 4; ++i) {
        serving::Request r;
        r.id = static_cast<std::uint64_t>(i);
        r.task = sim::lambada();
        r.task.decLen = 10;
        r.arrival = sim::SimTime::fromSec(0.0);
        r.firstToken = sim::SimTime::fromSec(i); // TTFT 1, 2, 3, 4
        r.completed = sim::SimTime::fromSec(i + 10.0);
        r.generated = 10;
        r.budgetGranted = r.task.budget;
        r.state = serving::RequestState::Completed;
        m.onCompleted(r);
    }
    const auto s = m.summarize(Time::seconds(14.0));
    EXPECT_EQ(s.completed, 4u);
    EXPECT_DOUBLE_EQ(s.ttftP50, 2.0);  // ceil(0.5*4) = 2nd smallest
    EXPECT_DOUBLE_EQ(s.ttftP95, 4.0);
    EXPECT_DOUBLE_EQ(s.ttftMean, 2.5);
    EXPECT_DOUBLE_EQ(s.tpotMean, 1.0); // 10 s for 10 tokens each
    EXPECT_DOUBLE_EQ(s.tpotP50, 1.0);
    EXPECT_DOUBLE_EQ(s.tpotP95, 1.0);
    EXPECT_DOUBLE_EQ(s.goodputTokensPerSec, 40.0 / 14.0);
    EXPECT_DOUBLE_EQ(s.meanBudgetFraction, 1.0);
}

// ---- Batched timing-model entry points ---------------------------------

TEST(BatchedTiming, WeightStreamAmortizesAcrossTheBatch)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    const auto one =
        accel::simulateBatchedDecodeStep(sys, m, {512});
    const auto four =
        accel::simulateBatchedDecodeStep(sys, m, {512, 512, 512, 512});
    EXPECT_GT(one.latency.sec(), 0.0);
    // One batched step is cheaper than four serial steps...
    EXPECT_LT(four.latency.sec(), 4.0 * one.latency.sec());
    // ...but still does all four sequences' KV/attention work.
    EXPECT_GT(four.latency.sec(), one.latency.sec());

    // With opportunistic recomputation off, base MACs scale with the
    // batch (under Auto they do not: recompute just fills the memory
    // slack the shared weight stream leaves, whatever the batch).
    auto none = sys;
    none.kv.recompute = accel::RecomputeMode::None;
    const auto one_n = accel::simulateBatchedDecodeStep(none, m, {512});
    const auto four_n = accel::simulateBatchedDecodeStep(
        none, m, {512, 512, 512, 512});
    EXPECT_DOUBLE_EQ(four_n.macs, 4.0 * one_n.macs);
}

TEST(BatchedTiming, PrefillStepMatchesTheIntegratedModel)
{
    const auto sys = accel::kelleEdramSystem(2048);
    accel::Workload w;
    w.model = model::llama2_7b();
    w.ctxLen = 512;
    w.decLen = 1;
    w.batch = 1;
    const auto integrated = accel::simulate(sys, w);
    const auto step =
        accel::simulatePrefillChunk(sys, w.model, 0, w.ctxLen);
    EXPECT_DOUBLE_EQ(step.latency.sec(),
                     integrated.prefillLatency.sec());
}

TEST(BatchedTiming, EngineMatchesTheFigure13RunnerOnEveryCell)
{
    // Sixteen identical requests at t = 0 on a bare DeviceEngine with
    // a pool that never binds, against simulate() on the same
    // workload: the five Figure 13 systems on the four tasks. The
    // engine prefills each request alone, where simulate() prefills
    // the batch in one batch-16 step; with that prefill swapped for
    // sixteen batch-1 prefills the two agree (docs/ARCHITECTURE.md,
    // "Data flow", the deviation). Unswapped, the engine reads up to
    // 1.4% slower and 2.4% costlier, on LAMBADA, the shortest decode.
    constexpr std::size_t kBatch = 16;
    const auto m = model::llama2_7b();
    for (const sim::Task &task : sim::hardwareTasks()) {
        const accel::Workload w = sim::makeWorkload(task, m, kBatch);
        for (const accel::SystemConfig &sys : sim::figure13Systems(task)) {
            SCOPED_TRACE(sys.name + " on " + task.name);
            serving::DeviceConfig cfg;
            cfg.model = m;
            serving::DeviceSpec device;
            device.system = sys;
            device.poolTokens = 10'000'000;
            device.maxBatch = kBatch;
            std::vector<serving::Request> requests(kBatch);
            for (std::size_t i = 0; i < kBatch; ++i) {
                requests[i].id = i;
                requests[i].task = task;
            }
            sim::EventQueue queue;
            serving::DeviceEngine engine(cfg, device, queue, requests);
            for (std::size_t i = 0; i < kBatch; ++i)
                engine.enqueue(i);
            queue.runAll();
            const Time makespan =
                Time::seconds(engine.lastCompletion().sec());
            const serving::ServingSummary got =
                engine.metrics().summarize(makespan);
            ASSERT_EQ(got.completed, kBatch);

            const accel::RunReport run = accel::simulate(sys, w);
            const accel::StepReport one =
                accel::simulatePrefillChunk(sys, m, 0, task.ctxLen);
            const double want_s = run.decodeLatency.sec() +
                                  kBatch * one.latency.sec();
            const double want_j = run.decodeEnergy.total().j() +
                                  kBatch * one.energy.total().j();
            // The engine's clock counts whole nanoseconds, so each
            // step may round by up to half of one; energies are sums
            // of the same step energies in another order.
            EXPECT_NEAR(makespan.sec(), want_s,
                        1e-9 * static_cast<double>(engine.engineSteps()));
            EXPECT_NEAR(got.energy.total().j(), want_j, 1e-12 * want_j);
        }
    }
}

// ---- Single-device serving (a 1-device cluster) -------------------------

TEST(Scheduler, EveryAdmittedRequestCompletes)
{
    for (auto policy : serving::allSchedulePolicies()) {
        auto cfg = tinyServingConfig(policy, 50.0, 11, 24);
        cluster::ClusterEngine engine(oneDevice(cfg));
        const auto rep = engine.run().aggregate;

        EXPECT_TRUE(rep.drained) << toString(policy);
        EXPECT_EQ(rep.summary.completed + rep.summary.rejected,
                  cfg.traffic.numRequests)
            << toString(policy);
        EXPECT_EQ(rep.summary.rejected, 0u) << toString(policy);
        EXPECT_LE(rep.poolPeakBytes, rep.poolCapacityBytes)
            << toString(policy);
        EXPECT_EQ(rep.prefills, cfg.traffic.numRequests)
            << toString(policy);
        EXPECT_GT(rep.summary.goodputTokensPerSec, 0.0)
            << toString(policy);
    }
}

TEST(Scheduler, RequestTimestampsAreOrdered)
{
    auto cfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 20.0, 3, 16);
    cluster::ClusterEngine engine(oneDevice(cfg));
    const auto rep = engine.run().aggregate;
    ASSERT_EQ(rep.summary.completed, cfg.traffic.numRequests);
    for (const auto &r : engine.device(0).metrics().completedRequests()) {
        EXPECT_LE(r.arrival.sec(), r.admitted.sec()) << r.id;
        EXPECT_LT(r.admitted.sec(), r.firstToken.sec()) << r.id;
        EXPECT_LT(r.firstToken.sec(), r.completed.sec()) << r.id;
        EXPECT_EQ(r.generated, r.task.decLen) << r.id;
        EXPECT_GT(r.budgetGranted, 0u) << r.id;
    }
}

TEST(Scheduler, BitDeterministicAcrossRunsForEveryPolicy)
{
    // Chunked and unchunked, all four policies: reruns of the same
    // seeded config must agree to the last bit.
    for (auto policy : serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{16}}) {
            auto cfg = tinyServingConfig(policy, 30.0, 99, 20);
            cfg.chunkTokens = chunk;
            const auto a = runOneDevice(cfg);
            const auto b = runOneDevice(cfg);
            const std::string label =
                toString(policy) + " chunk " + std::to_string(chunk);
            EXPECT_EQ(a.engineSteps, b.engineSteps) << label;
            EXPECT_EQ(a.decodeSteps, b.decodeSteps) << label;
            EXPECT_EQ(a.prefillChunks, b.prefillChunks) << label;
            EXPECT_EQ(a.summary.completed, b.summary.completed)
                << label;
            EXPECT_EQ(a.summary.ttftP95, b.summary.ttftP95) << label;
            EXPECT_EQ(a.summary.e2eP99, b.summary.e2eP99) << label;
            EXPECT_EQ(a.summary.goodputTokensPerSec,
                      b.summary.goodputTokensPerSec)
                << label;
            EXPECT_EQ(a.summary.energy.total().j(),
                      b.summary.energy.total().j())
                << label;
            EXPECT_EQ(a.summary.admissionBypasses,
                      b.summary.admissionBypasses)
                << label;
            EXPECT_EQ(a.summary.sloAttainment, b.summary.sloAttainment)
                << label;
            EXPECT_EQ(a.poolPeakBytes, b.poolPeakBytes) << label;
        }
    }
}

TEST(Scheduler, ContinuousBatchingBeatsFcfsOnP95TtftWhenSaturated)
{
    // Arrivals far above the FCFS service rate: the run-to-completion
    // queue backs up while continuous batching keeps admitting.
    const double rate = 2000.0;
    const auto fcfs = runOneDevice(
        tinyServingConfig(serving::SchedulePolicy::Fcfs, rate, 21, 32));
    const auto cb = runOneDevice(tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, rate, 21, 32));
    ASSERT_EQ(fcfs.summary.completed, 32u);
    ASSERT_EQ(cb.summary.completed, 32u);
    EXPECT_LT(cb.summary.ttftP95, fcfs.summary.ttftP95);
    EXPECT_GE(cb.summary.goodputTokensPerSec,
              fcfs.summary.goodputTokensPerSec);
}

TEST(Scheduler, TinyPoolForcesShrunkGrantsNotOversubscription)
{
    // Saturating arrivals so several requests contend for the pool.
    auto cfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    // A pool of roughly two shrunk tiny budgets.
    cluster::ClusterEngine engine(oneDevice(cfg, tinyDevice(128)));
    const auto rep = engine.run().aggregate;
    EXPECT_TRUE(rep.drained);
    EXPECT_EQ(rep.summary.completed + rep.summary.rejected,
              cfg.traffic.numRequests);
    EXPECT_GT(rep.shrunkGrants + rep.deferrals, 0u);
    EXPECT_LE(rep.poolPeakBytes, rep.poolCapacityBytes);
    EXPECT_LT(rep.summary.meanBudgetFraction, 1.0);
}

TEST(Scheduler, FullGrantsReportNoBudgetPressure)
{
    // A budget override below the floor is clamped at request time;
    // with an ample pool the clamped ask is granted in full, so the
    // budget-kept metric must read 1.0 (no eviction pressure).
    auto cfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 10.0, 31, 8);
    cfg.budgetOverride = 4; // far below every task's floor
    cluster::ClusterEngine engine(oneDevice(cfg, tinyDevice(4096)));
    const auto rep = engine.run().aggregate;
    ASSERT_EQ(rep.summary.completed, cfg.traffic.numRequests);
    EXPECT_EQ(rep.shrunkGrants, 0u);
    EXPECT_DOUBLE_EQ(rep.summary.meanBudgetFraction, 1.0);
}

TEST(Scheduler, NoEvictionBaselineReservesTheFullFootprint)
{
    // On a no-eviction system a request cannot shrink: it reserves its
    // whole ctx+dec footprint, so fewer requests fit concurrently.
    auto cfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 41, 8);
    serving::DeviceSpec device = tinyDevice(1024);
    device.system = accel::originalEdramSystem();
    cluster::ClusterEngine engine(oneDevice(cfg, device));
    const auto rep = engine.run().aggregate;
    ASSERT_EQ(rep.summary.completed + rep.summary.rejected,
              cfg.traffic.numRequests);
    EXPECT_EQ(rep.shrunkGrants, 0u);
    EXPECT_LE(rep.poolPeakBytes, rep.poolCapacityBytes);
    for (const auto &r : engine.device(0).metrics().completedRequests()) {
        EXPECT_EQ(r.budgetGranted,
                  r.task.ctxLen + r.task.decLen + 1)
            << r.id;
    }
}

TEST(Scheduler, MaxStepsTruncatesInsteadOfHanging)
{
    auto cfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 50.0, 17, 16);
    cfg.maxEngineSteps = 5;
    cluster::ClusterEngine engine(oneDevice(cfg));
    const auto rep = engine.run().aggregate;
    EXPECT_FALSE(rep.drained);
    EXPECT_LE(rep.engineSteps, 5u);
    EXPECT_LE(rep.decodeSteps, 5u);
}

// ---- Policy layer ------------------------------------------------------

TEST(Policy, ToStringParseRoundTripAndErrorEnumeration)
{
    const auto all = serving::allSchedulePolicies();
    EXPECT_EQ(all.size(), 4u);
    for (auto policy : all) {
        serving::SchedulePolicy parsed;
        ASSERT_TRUE(
            serving::parseSchedulePolicy(toString(policy), &parsed))
            << toString(policy);
        EXPECT_EQ(parsed, policy);
        // The CLI error string must name every valid policy.
        EXPECT_NE(serving::schedulePolicyNames().find(toString(policy)),
                  std::string::npos)
            << toString(policy);
    }
    serving::SchedulePolicy p;
    EXPECT_FALSE(serving::parseSchedulePolicy("bogus", &p));
    EXPECT_FALSE(serving::parseSchedulePolicy("", &p));
    // Aliases keep working.
    EXPECT_TRUE(serving::parseSchedulePolicy("continuous", &p));
    EXPECT_EQ(p, serving::SchedulePolicy::ContinuousBatching);
    EXPECT_TRUE(serving::parseSchedulePolicy("edf", &p));
    EXPECT_EQ(p, serving::SchedulePolicy::EdfChunked);
    EXPECT_TRUE(serving::parseSchedulePolicy("sjf", &p));
    EXPECT_EQ(p, serving::SchedulePolicy::SjfWithinDeadline);
}

TEST(Policy, ChunkedPoliciesCompleteEveryRequest)
{
    for (auto policy : serving::allSchedulePolicies()) {
        auto cfg = tinyServingConfig(policy, 50.0, 23, 16);
        cfg.chunkTokens = 16;
        cluster::ClusterEngine engine(oneDevice(cfg));
        const auto rep = engine.run().aggregate;
        EXPECT_TRUE(rep.drained) << toString(policy);
        EXPECT_EQ(rep.summary.completed, cfg.traffic.numRequests)
            << toString(policy);
        EXPECT_EQ(rep.prefills, cfg.traffic.numRequests)
            << toString(policy);
        // Chunking splits prompts into ceil(ctx/chunk) steps each.
        std::uint64_t want_chunks = 0;
        for (const auto &r : engine.device(0).metrics().completedRequests()) {
            EXPECT_EQ(r.prefilled, r.task.ctxLen) << r.id;
            want_chunks += (r.task.ctxLen + cfg.chunkTokens - 1) /
                           cfg.chunkTokens;
        }
        EXPECT_EQ(rep.prefillChunks, want_chunks) << toString(policy);
        EXPECT_GT(rep.prefillChunks, rep.prefills) << toString(policy);
        EXPECT_EQ(rep.engineSteps, rep.prefillChunks + rep.decodeSteps)
            << toString(policy);
    }
}

TEST(Policy, SkipBlockedAdmissionBypassesTheHeadOfLine)
{
    // A pool around two shrunk tiny budgets at a saturating rate: FIFO
    // policies wait head-of-line (no bypass), reordering policies jump
    // blocked or larger requests and record every overtake.
    auto base = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    for (auto policy : serving::allSchedulePolicies()) {
        auto cfg = base;
        cfg.policy = policy;
        cluster::ClusterEngine engine(oneDevice(cfg, tinyDevice(128)));
        const auto rep = engine.run().aggregate;
        EXPECT_TRUE(rep.drained) << toString(policy);
        const bool reorders =
            policy == serving::SchedulePolicy::SjfWithinDeadline ||
            policy == serving::SchedulePolicy::EdfChunked;
        if (reorders)
            EXPECT_GT(rep.summary.admissionBypasses, 0u)
                << toString(policy);
        else
            EXPECT_EQ(rep.summary.admissionBypasses, 0u)
                << toString(policy);
    }
}

// ---- Chunked prefill timing --------------------------------------------

TEST(ChunkedTiming, WholePromptChunkMatchesSingleShotExactly)
{
    // chunkTokens = prompt length degenerates to the monolithic
    // prefill: one chunk at offset 0 must cost the same to the bit as
    // simulate()'s prefill of a batch of one. Its DRAM bytes and MACs
    // are read off the run's totals, which add the first decode step.
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    for (std::size_t ctx : {128u, 512u, 1024u}) {
        accel::Workload w;
        w.model = m;
        w.ctxLen = ctx;
        w.decLen = 1;
        w.batch = 1;
        const auto shot = accel::simulate(sys, w);
        const auto chunk = accel::simulatePrefillChunk(sys, m, 0, ctx);
        const auto first =
            accel::simulateBatchedDecodeStep(sys, m, 1, ctx + 1);
        EXPECT_EQ(chunk.latency.sec(), shot.prefillLatency.sec())
            << ctx;
        EXPECT_EQ(chunk.energy.total().j(),
                  shot.prefillEnergy.total().j())
            << ctx;
        EXPECT_EQ(chunk.dramBytes + first.dramBytes, shot.dramBytesTotal)
            << ctx;
        EXPECT_EQ(chunk.macs + first.macs, shot.macsTotal) << ctx;
    }
}

TEST(ChunkedTiming, ChunkComputeTelescopesAndWeightStreamDoesNot)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    const std::size_t ctx = 512;
    const std::size_t chunk = 128;
    const auto shot = accel::simulatePrefillChunk(sys, m, 0, ctx);

    double macs = 0.0;
    double latency = 0.0;
    for (std::size_t off = 0; off < ctx; off += chunk) {
        const auto step = accel::simulatePrefillChunk(sys, m, off, chunk);
        // Later chunks attend over a longer resident prefix, so no
        // chunk can be cheaper than its predecessor's attention share.
        EXPECT_GT(step.latency.sec(), 0.0);
        EXPECT_LT(step.latency.sec(), shot.latency.sec());
        macs += step.macs;
        latency += step.latency.sec();
    }
    // Causal-attention MACs telescope across chunks.
    EXPECT_NEAR(macs, shot.macs, 1e-9 * shot.macs);
    // The weight stream is charged per chunk, so the summed latency
    // can only meet or exceed the single shot.
    EXPECT_GE(latency, shot.latency.sec() * (1.0 - 1e-12));
}

// ---- SLO metrics -------------------------------------------------------

TEST(ServingMetrics, SloAttainmentFromAHandBuiltTrace)
{
    serving::ServingMetrics metrics;
    // Four completions, every TPOT exactly 1 s/token:
    //   id  ttft  ttft_ok (<= 2.5)  tpot_target  tpot_ok
    //    1    1     yes        2.0        yes
    //    2    2     yes        0.5        no
    //    3    3     no         2.0        yes
    //    4    4     no         0.5        no
    const double tpot_targets[] = {2.0, 0.5, 2.0, 0.5};
    for (int i = 1; i <= 4; ++i) {
        serving::Request r;
        r.id = static_cast<std::uint64_t>(i);
        r.task = sim::lambada();
        r.task.decLen = 10;
        r.arrival = sim::SimTime::fromSec(0.0);
        r.ttftDeadlineSec = 2.5;
        r.tpotTargetSec = tpot_targets[i - 1];
        r.firstToken = sim::SimTime::fromSec(i);
        r.completed = sim::SimTime::fromSec(i + 10.0); // 10 s for 10 tokens
        r.generated = 10;
        r.state = serving::RequestState::Completed;
        metrics.onCompleted(r);
    }
    // One rejected request misses everything.
    serving::Request rej;
    rej.id = 5;
    rej.task = sim::lambada();
    rej.state = serving::RequestState::Rejected;
    metrics.onRejected(rej);

    const auto s = metrics.summarize(Time::seconds(14.0));
    EXPECT_DOUBLE_EQ(s.sloTtftAttainment, 2.0 / 5.0);
    EXPECT_DOUBLE_EQ(s.sloTpotAttainment, 2.0 / 5.0);
    EXPECT_DOUBLE_EQ(s.sloAttainment, 1.0 / 5.0);
}

TEST(ServingMetrics, DisabledDeadlinesAlwaysAttain)
{
    serving::Request r;
    r.task = sim::lambada();
    r.task.decLen = 4;
    r.arrival = sim::SimTime::fromSec(0.0);
    r.firstToken = sim::SimTime::fromSec(100.0);
    r.completed = sim::SimTime::fromSec(200.0);
    r.ttftDeadlineSec = 0.0;
    r.tpotTargetSec = 0.0;
    EXPECT_TRUE(serving::ServingMetrics::metTtft(r));
    EXPECT_TRUE(serving::ServingMetrics::metTpot(r));
}

TEST(RequestGenerator, DeadlinesResolvePerTaskFromTheSloSpec)
{
    serving::TrafficConfig cfg;
    cfg.ratePerSec = 1.0;
    cfg.numRequests = 60;
    cfg.seed = 31;
    cfg.slo.ttftBaseSec = 4.0;
    cfg.slo.ttftPerCtxTokenSec = 0.01;
    cfg.slo.tpotSec = 0.25;
    const auto trace = serving::generateTrace(cfg);
    for (const auto &r : trace) {
        EXPECT_DOUBLE_EQ(
            r.ttftDeadlineSec,
            4.0 + 0.01 * static_cast<double>(r.task.ctxLen))
            << r.id;
        EXPECT_DOUBLE_EQ(r.tpotTargetSec, 0.25) << r.id;
        EXPECT_DOUBLE_EQ(r.ttftDeadline().sec(),
                         r.arrival.sec() + r.ttftDeadlineSec)
            << r.id;
    }
}

TEST(Scheduler, SloAttainmentIsNonTrivialUnderLoadForEveryPolicy)
{
    // Deadlines tuned so a saturated tiny engine meets some but not
    // all: attainment must land strictly inside (0, 1) — the figure
    // the policy comparison tables rely on.
    for (auto policy : serving::allSchedulePolicies()) {
        // Tiny-engine magnitudes: unqueued TTFT is ~20 us, the
        // saturated tail ~ms; a 100 us deadline splits the trace.
        auto cfg = tinyServingConfig(policy, 2000.0, 7, 24);
        cfg.traffic.slo.ttftBaseSec = 1e-4;
        cfg.traffic.slo.ttftPerCtxTokenSec = 0.0;
        cfg.traffic.slo.tpotSec = 1e-3;
        cluster::ClusterEngine engine(oneDevice(cfg));
        const auto rep = engine.run().aggregate;
        ASSERT_GT(rep.summary.completed, 0u) << toString(policy);
        EXPECT_GT(rep.summary.sloAttainment, 0.0) << toString(policy);
        EXPECT_LT(rep.summary.sloAttainment, 1.0) << toString(policy);
        EXPECT_GE(rep.summary.sloTtftAttainment,
                  rep.summary.sloAttainment)
            << toString(policy);
        EXPECT_GE(rep.summary.sloTpotAttainment,
                  rep.summary.sloAttainment)
            << toString(policy);
    }
}

} // namespace
} // namespace kelle
