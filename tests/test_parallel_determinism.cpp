/**
 * @file
 * Property tests of the cluster drive loop's lanes: every threaded run
 * must produce a ClusterReport bit-identical to the one-lane run
 * (`threads = 1`, every window inline), across the full
 * (policy x dispatch x fleet x seed) sweep, with preemption on and
 * off, and including configurations where the fast-forward window
 * logic actually fires (`fastForwardedSteps > 0`).
 *
 * Suites are split on purpose so per-suite ctest registration
 * (cmake/KelleGtestSuites.cmake) shards the sim-scale sweeps:
 *
 *  - ParallelSweep: threads {2,4,8} x all scheduling policies x all
 *    dispatch policies x homo/hetero fleets x 3 seeds, bitwise equal
 *    to the one-lane run of the same cell.
 *  - ParallelPreempt: preempt-and-requeue on — the serialized rounds
 *    must merge cross-device requeues in canonical order whatever the
 *    lane count.
 *  - ParallelFastForward: KV-blocked sjf/edf cells where devices
 *    fast-forward through idle gaps inside lookahead windows.
 *  - ParallelOracle: the event-path oracle — `fastSim = false` (the
 *    step-at-a-time loop) agrees bitwise with the fast path under
 *    preemption and under deferral-replay policies, serial and
 *    threaded alike.
 *  - ParallelMemoGroup: devices with equal systems share one decode
 *    memo. Grouped fleets match the oracle at every lane count with
 *    the same per-device cache counts, and equal systems really do
 *    share (fewer misses than the same fleet with distinct names).
 */

#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.hpp"

namespace kelle {
namespace {

std::vector<std::pair<sim::Task, double>>
tinyMix()
{
    return {{sim::scaledForTiny(sim::lambada(), 96), 1.0},
            {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
}

cluster::ClusterConfig
tinyClusterConfig(std::size_t n_devices, cluster::DispatchKind dispatch,
                  serving::SchedulePolicy policy, double rate,
                  std::uint64_t seed, std::size_t requests)
{
    serving::ServingConfig cfg;
    cfg.model = model::tinyLm();
    cfg.system = accel::kelleEdramSystem(2048);
    cfg.policy = policy;
    cfg.maxBatch = 4;
    cfg.poolTokens = 512;
    cfg.traffic.ratePerSec = rate;
    cfg.traffic.seed = seed;
    cfg.traffic.numRequests = requests;
    cfg.traffic.mix = tinyMix();
    return cluster::clusterConfigFrom(cfg, n_devices, dispatch);
}

/** Field-for-field bitwise equality of two serving summaries. */
void
expectSummariesBitIdentical(const serving::ServingSummary &a,
                            const serving::ServingSummary &b,
                            const std::string &label)
{
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.rejected, b.rejected) << label;
    EXPECT_EQ(a.makespan.sec(), b.makespan.sec()) << label;
    EXPECT_EQ(a.ttftMean, b.ttftMean) << label;
    EXPECT_EQ(a.ttftP50, b.ttftP50) << label;
    EXPECT_EQ(a.ttftP95, b.ttftP95) << label;
    EXPECT_EQ(a.ttftP99, b.ttftP99) << label;
    EXPECT_EQ(a.e2eP50, b.e2eP50) << label;
    EXPECT_EQ(a.e2eP95, b.e2eP95) << label;
    EXPECT_EQ(a.e2eP99, b.e2eP99) << label;
    EXPECT_EQ(a.tpotMean, b.tpotMean) << label;
    EXPECT_EQ(a.tpotP50, b.tpotP50) << label;
    EXPECT_EQ(a.tpotP95, b.tpotP95) << label;
    EXPECT_EQ(a.tokenGapP95, b.tokenGapP95) << label;
    EXPECT_EQ(a.goodputTokensPerSec, b.goodputTokensPerSec) << label;
    EXPECT_EQ(a.sloTtftAttainment, b.sloTtftAttainment) << label;
    EXPECT_EQ(a.sloTpotAttainment, b.sloTpotAttainment) << label;
    EXPECT_EQ(a.sloAttainment, b.sloAttainment) << label;
    EXPECT_EQ(a.admissionBypasses, b.admissionBypasses) << label;
    EXPECT_EQ(a.preemptions, b.preemptions) << label;
    EXPECT_EQ(a.maxQueueWaitSec, b.maxQueueWaitSec) << label;
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth) << label;
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth) << label;
    EXPECT_EQ(a.meanBudgetFraction, b.meanBudgetFraction) << label;
    EXPECT_EQ(a.energy.total().j(), b.energy.total().j()) << label;
    EXPECT_EQ(a.energy.refresh.j(), b.energy.refresh.j()) << label;
    EXPECT_EQ(a.energyPerToken, b.energyPerToken) << label;
}

void
expectReportsBitIdentical(const serving::ServingReport &a,
                          const serving::ServingReport &b,
                          const std::string &label)
{
    expectSummariesBitIdentical(a.summary, b.summary, label);
    EXPECT_EQ(a.engineSteps, b.engineSteps) << label;
    EXPECT_EQ(a.decodeSteps, b.decodeSteps) << label;
    EXPECT_EQ(a.prefillChunks, b.prefillChunks) << label;
    EXPECT_EQ(a.prefills, b.prefills) << label;
    EXPECT_EQ(a.poolTokens, b.poolTokens) << label;
    EXPECT_EQ(a.poolCapacityBytes, b.poolCapacityBytes) << label;
    EXPECT_EQ(a.poolPeakBytes, b.poolPeakBytes) << label;
    EXPECT_EQ(a.shrunkGrants, b.shrunkGrants) << label;
    EXPECT_EQ(a.deferrals, b.deferrals) << label;
    EXPECT_EQ(a.peakLogicalTokens, b.peakLogicalTokens) << label;
    EXPECT_EQ(a.paged.enabled, b.paged.enabled) << label;
    EXPECT_EQ(a.paged.totalPages, b.paged.totalPages) << label;
    EXPECT_EQ(a.paged.peakUsedPages, b.paged.peakUsedPages) << label;
    EXPECT_EQ(a.paged.peakSharedPages, b.paged.peakSharedPages)
        << label;
    EXPECT_EQ(a.paged.prefixHitTokens, b.paged.prefixHitTokens)
        << label;
    EXPECT_EQ(a.paged.cowCopies, b.paged.cowCopies) << label;
    EXPECT_EQ(a.paged.cachedReclaims, b.paged.cachedReclaims) << label;
    EXPECT_EQ(a.paged.budgetClips, b.paged.budgetClips) << label;
    EXPECT_EQ(a.drained, b.drained) << label;
}

/** The whole fleet report, device-by-device, bit for bit. */
void
expectClustersBitIdentical(const cluster::ClusterReport &a,
                           const cluster::ClusterReport &b,
                           const std::string &label)
{
    expectReportsBitIdentical(a.aggregate, b.aggregate, label);
    EXPECT_EQ(a.loadImbalanceCv, b.loadImbalanceCv) << label;
    EXPECT_EQ(a.meanKvPeakUtilization, b.meanKvPeakUtilization)
        << label;
    EXPECT_EQ(a.refreshEnergyJ, b.refreshEnergyJ) << label;
    ASSERT_EQ(a.devices.size(), b.devices.size()) << label;
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        const std::string dev = label + " dev" + std::to_string(i);
        EXPECT_EQ(a.devices[i].name, b.devices[i].name) << dev;
        EXPECT_EQ(a.devices[i].dispatched, b.devices[i].dispatched)
            << dev;
        EXPECT_EQ(a.devices[i].busySec, b.devices[i].busySec) << dev;
        EXPECT_EQ(a.devices[i].kvPeakUtilization,
                  b.devices[i].kvPeakUtilization)
            << dev;
        expectReportsBitIdentical(a.devices[i].report,
                                  b.devices[i].report, dev);
    }
}

/** Run the cell serially, then assert every thread count matches. */
void
expectThreadInvariant(cluster::ClusterConfig cfg,
                      const std::string &label)
{
    cfg.threads = 1;
    const auto serial = cluster::ClusterEngine(cfg).run();
    for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
        cfg.threads = threads;
        const auto par = cluster::ClusterEngine(cfg).run();
        expectClustersBitIdentical(
            serial, par, label + "/t" + std::to_string(threads));
    }
}

// ---- The full sweep -----------------------------------------------------

TEST(ParallelSweep, HomogeneousFleetMatchesSerialBitExactly)
{
    for (auto policy : serving::allSchedulePolicies()) {
        for (auto dispatch : cluster::allDispatchPolicies()) {
            for (std::uint64_t seed : {3u, 17u, 99u}) {
                auto cfg = tinyClusterConfig(4, dispatch, policy,
                                             300.0, seed, 24);
                cfg.engine.chunkTokens = 16;
                expectThreadInvariant(
                    cfg, toString(policy) + "/" + toString(dispatch) +
                             "/s" + std::to_string(seed));
            }
        }
    }
}

TEST(ParallelSweep, HeterogeneousFleetMatchesSerialBitExactly)
{
    for (auto policy : serving::allSchedulePolicies()) {
        for (auto dispatch : cluster::allDispatchPolicies()) {
            for (std::uint64_t seed : {7u, 21u, 42u}) {
                auto cfg = tinyClusterConfig(4, dispatch, policy,
                                             500.0, seed, 24);
                cfg.engine.chunkTokens = 16;
                cfg.devices = cluster::heteroEdramSramFleet(
                    4, 2048, 512, 128, 4);
                expectThreadInvariant(
                    cfg, "hetero/" + toString(policy) + "/" +
                             toString(dispatch) + "/s" +
                             std::to_string(seed));
            }
        }
    }
}

TEST(ParallelSweep, ThreadCountBeyondFleetSizeClampsSafely)
{
    // 8 lanes over a 2-device fleet: the clamp must leave the outcome
    // untouched, and threads = 0 (auto) must also be bit-identical.
    auto cfg = tinyClusterConfig(2, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 200.0,
                                 5, 16);
    cfg.threads = 1;
    const auto serial = cluster::ClusterEngine(cfg).run();
    cfg.threads = 8;
    expectClustersBitIdentical(serial,
                               cluster::ClusterEngine(cfg).run(),
                               "clamp/t8");
    cfg.threads = 0;
    expectClustersBitIdentical(serial,
                               cluster::ClusterEngine(cfg).run(),
                               "clamp/auto");
}

TEST(ParallelSweep, SingleDeviceFleetStaysSerial)
{
    // threads > 1 on a 1-device fleet clamps to one lane, so a
    // single-device session is the same run at any setting.
    auto cfg = tinyClusterConfig(1, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::EdfChunked,
                                 100.0, 11, 16);
    cfg.engine.chunkTokens = 16;
    cfg.threads = 1;
    const auto serial = cluster::ClusterEngine(cfg).run();
    cfg.threads = 4;
    expectClustersBitIdentical(serial,
                               cluster::ClusterEngine(cfg).run(),
                               "one-device");
}

// ---- Preempt-and-requeue across partitions ------------------------------

TEST(ParallelPreempt, RequeueMergeMatchesSerialOrder)
{
    // Doomed decodes force cross-device requeues: the serialized
    // rounds must dispatch them in (emitting device, emission order)
    // at every lane count, or victims land on different devices and
    // the reports diverge.
    for (auto dispatch : cluster::allDispatchPolicies()) {
        for (std::uint64_t seed : {13u, 29u, 57u}) {
            auto cfg = tinyClusterConfig(
                4, dispatch,
                serving::SchedulePolicy::ContinuousBatching, 2000.0,
                seed, 24);
            cfg.engine.traffic.slo.tpotSec = 2e-6;
            cfg.engine.preempt.enabled = true;
            expectThreadInvariant(cfg,
                                  "preempt/" + toString(dispatch) +
                                      "/s" + std::to_string(seed));
        }
    }
}

TEST(ParallelPreempt, PreemptionsActuallyFireInTheSweep)
{
    // Guard the guard: at least one preempt cell really exercises the
    // requeue path (otherwise RequeueMergeMatchesSerialOrder would
    // pass vacuously).
    auto cfg = tinyClusterConfig(
        4, cluster::DispatchKind::JoinShortestKv,
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    cfg.engine.traffic.slo.tpotSec = 2e-6;
    cfg.engine.preempt.enabled = true;
    cfg.threads = 4;
    const auto rep = cluster::ClusterEngine(cfg).run();
    EXPECT_GT(rep.aggregate.summary.preemptions, 0u);
    EXPECT_TRUE(rep.aggregate.drained);
}

TEST(ParallelPreempt, HeteroPreemptSweepMatchesSerial)
{
    auto cfg = tinyClusterConfig(
        4, cluster::DispatchKind::JoinShortestKv,
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    cfg.devices = cluster::heteroEdramSramFleet(4, 2048, 512, 128, 4);
    cfg.engine.traffic.slo.tpotSec = 2e-6;
    cfg.engine.preempt.enabled = true;
    expectThreadInvariant(cfg, "hetero-preempt");
}

// ---- Fast-forward inside windows ----------------------------------------

TEST(ParallelFastForward, KvBlockedSkipPoliciesFastForwardAndMatch)
{
    // A cramped pool under sjf/edf (skipBlocked admission): devices go
    // idle while KV-blocked and must fast-forward through the gap to
    // the window horizon — the deferral-replay path the parallel
    // engine relies on. The run must both exercise that path and stay
    // bit-identical to serial.
    for (auto policy : {serving::SchedulePolicy::SjfWithinDeadline,
                        serving::SchedulePolicy::EdfChunked}) {
        for (std::uint64_t seed : {13u, 23u}) {
            auto cfg = tinyClusterConfig(
                2, cluster::DispatchKind::RoundRobin, policy, 2000.0,
                seed, 16);
            cfg.engine.chunkTokens = 16;
            for (auto &d : cfg.devices)
                d.poolTokens = 96; // tight: forces deferrals
            cfg.engine.poolTokens = 96;
            const std::string label = "kvblock/" + toString(policy) +
                                      "/s" + std::to_string(seed);
            expectThreadInvariant(cfg, label);

            cfg.threads = 2;
            cluster::ClusterEngine engine(cfg);
            const auto rep = engine.run();
            EXPECT_TRUE(rep.aggregate.drained) << label;
            EXPECT_GT(rep.aggregate.deferrals, 0u) << label;
            std::uint64_t ffwd = 0;
            for (std::size_t i = 0; i < engine.deviceCount(); ++i)
                ffwd += engine.device(i).fastForwardedSteps();
            EXPECT_GT(ffwd, 0u) << label;
        }
    }
}

TEST(ParallelFastForward, IdleGapsAreSkippedNotStepped)
{
    // A trickle trace on a 4-device fleet: devices sit idle between
    // arrivals, so almost every window is a fast-forward. The cheap
    // structural check that lookahead actually engages.
    auto cfg = tinyClusterConfig(4, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 2.0,
                                 3, 12);
    cfg.threads = 1;
    const auto serial = cluster::ClusterEngine(cfg).run();
    cfg.threads = 4;
    cluster::ClusterEngine engine(cfg);
    const auto par = engine.run();
    expectClustersBitIdentical(serial, par, "trickle");
    std::uint64_t ffwd = 0;
    for (std::size_t i = 0; i < engine.deviceCount(); ++i)
        ffwd += engine.device(i).fastForwardedSteps();
    EXPECT_GT(ffwd, 0u);
}

// ---- Event-path oracle --------------------------------------------------

TEST(ParallelOracle, SlowPathAgreesUnderPreemption)
{
    // fastSim = false forces the step-at-a-time event loop (no
    // fast-forward, no memoized costs). Any divergence between that
    // oracle and the fast path — serial or threaded — means the doom
    // bounds or the deferral replay changed the schedule.
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::JoinShortestKv,
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    cfg.engine.traffic.slo.tpotSec = 2e-6;
    cfg.engine.preempt.enabled = true;

    cfg.engine.fastSim = false;
    cfg.threads = 1;
    const auto oracle = cluster::ClusterEngine(cfg).run();
    ASSERT_GT(oracle.aggregate.summary.preemptions, 0u);

    cfg.engine.fastSim = true;
    const auto fast = cluster::ClusterEngine(cfg).run();
    expectClustersBitIdentical(oracle, fast, "oracle/serial-fast");
    cfg.threads = 2;
    const auto par = cluster::ClusterEngine(cfg).run();
    expectClustersBitIdentical(oracle, par, "oracle/threaded-fast");
}

TEST(ParallelOracle, SlowPathAgreesUnderDeferralReplay)
{
    // Same oracle over the KV-blocked sjf cell: the relaxed
    // fast-forward guard (reorder policies with every-candidate
    // deferral) must reproduce the slow path's admission decisions.
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::RoundRobin,
        serving::SchedulePolicy::SjfWithinDeadline, 2000.0, 13, 16);
    cfg.engine.chunkTokens = 16;
    for (auto &d : cfg.devices)
        d.poolTokens = 96;
    cfg.engine.poolTokens = 96;

    cfg.engine.fastSim = false;
    cfg.threads = 1;
    const auto oracle = cluster::ClusterEngine(cfg).run();
    ASSERT_GT(oracle.aggregate.deferrals, 0u);

    cfg.engine.fastSim = true;
    const auto fast = cluster::ClusterEngine(cfg).run();
    expectClustersBitIdentical(oracle, fast, "defer/serial-fast");
    cfg.threads = 2;
    const auto par = cluster::ClusterEngine(cfg).run();
    expectClustersBitIdentical(oracle, par, "defer/threaded-fast");
}

// ---- Shared decode memos ------------------------------------------------

void
expectEnergyBitIdentical(const accel::EnergyBreakdown &a,
                         const accel::EnergyBreakdown &b,
                         const std::string &label)
{
    const auto bits = [](Energy e) {
        return std::bit_cast<std::uint64_t>(e.j());
    };
    EXPECT_EQ(bits(a.rsa), bits(b.rsa)) << label << " rsa";
    EXPECT_EQ(bits(a.sfu), bits(b.sfu)) << label << " sfu";
    EXPECT_EQ(bits(a.weightSram), bits(b.weightSram))
        << label << " weightSram";
    EXPECT_EQ(bits(a.kvMem), bits(b.kvMem)) << label << " kvMem";
    EXPECT_EQ(bits(a.refresh), bits(b.refresh)) << label << " refresh";
    EXPECT_EQ(bits(a.dram), bits(b.dram)) << label << " dram";
    EXPECT_EQ(bits(a.leakage), bits(b.leakage)) << label << " leakage";
}

/** Every request field the engines write, bit for bit. */
void
expectRequestsBitIdentical(const std::vector<serving::Request> &a,
                           const std::vector<serving::Request> &b,
                           const std::string &label)
{
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string req = label + " request " + std::to_string(i);
        EXPECT_EQ(a[i].state, b[i].state) << req;
        EXPECT_EQ(a[i].generated, b[i].generated) << req;
        EXPECT_EQ(a[i].prefilled, b[i].prefilled) << req;
        EXPECT_EQ(a[i].budgetGranted, b[i].budgetGranted) << req;
        EXPECT_EQ(a[i].firstToken.ns(), b[i].firstToken.ns()) << req;
        EXPECT_EQ(a[i].lastToken.ns(), b[i].lastToken.ns()) << req;
        EXPECT_EQ(a[i].completed.ns(), b[i].completed.ns()) << req;
        EXPECT_EQ(bits(a[i].maxTokenGapSec), bits(b[i].maxTokenGapSec))
            << req;
        EXPECT_EQ(a[i].preemptions, b[i].preemptions) << req;
    }
}

/** Each device's step-cost cache counts. */
std::vector<accel::StepCostCache::Stats>
cacheStats(const cluster::ClusterEngine &engine)
{
    std::vector<accel::StepCostCache::Stats> out;
    for (std::size_t i = 0; i < engine.deviceCount(); ++i)
        out.push_back(engine.device(i).costCacheStats());
    return out;
}

accel::StepCostCache::Stats
fleetStats(const cluster::ClusterEngine &engine)
{
    accel::StepCostCache::Stats total;
    for (const auto &s : cacheStats(engine))
        total += s;
    return total;
}

TEST(ParallelMemoGroup, GroupedFleetsMatchTheOracleAtEveryLaneCount)
{
    // Devices of a group buffer the reports they compute in multi-lane
    // windows and the loop publishes them after the join, so each
    // lookup's outcome, and with it every count, is the same at any
    // lane count; the reports are a pure function of the key, so the
    // outputs equal the uncached step-at-a-time oracle's.
    struct Fleet
    {
        std::string label;
        std::vector<cluster::DeviceSpec> devices;
        /** sessions_paged's shape: 64-token pages, shared session
         *  prefixes, edf-chunked. */
        bool paged = false;
    };
    const auto edram = accel::kelleEdramSystem(2048);
    const Fleet fleets[] = {
        {"homog4", cluster::homogeneousFleet(4, edram, 512, 4)},
        {"homog8", cluster::homogeneousFleet(8, edram, 512, 4)},
        {"hetero2+2", cluster::heteroEdramSramFleet(4, 2048, 512, 128, 4)},
        {"paged2", cluster::homogeneousFleet(2, edram, 512, 4), true},
    };
    for (const Fleet &fleet : fleets) {
        for (auto dispatch : cluster::allDispatchPolicies()) {
            const std::string label = fleet.label + "/" + toString(dispatch);
            auto cfg = tinyClusterConfig(
                fleet.devices.size(), dispatch,
                fleet.paged ? serving::SchedulePolicy::EdfChunked
                            : serving::SchedulePolicy::ContinuousBatching,
                600.0, 9, 40);
            cfg.devices = fleet.devices;
            cfg.engine.chunkTokens = 16;
            if (fleet.paged) {
                cfg.engine.paged.enabled = true;
                cfg.engine.paged.blockTokens = 64;
                cfg.engine.paged.sharePrefixes = true;
                cfg.engine.traffic.sessions = 4;
            }

            cfg.engine.fastSim = false;
            cfg.threads = 1;
            cluster::ClusterEngine oracle(cfg);
            const auto want = oracle.run();

            cfg.engine.fastSim = true;
            std::vector<accel::StepCostCache::Stats> one_lane;
            for (std::size_t threads : {1, 2, 4}) {
                const std::string cell =
                    label + "/t" + std::to_string(threads);
                cfg.threads = threads;
                cluster::ClusterEngine engine(cfg);
                const auto got = engine.run();
                expectClustersBitIdentical(want, got, cell);
                expectRequestsBitIdentical(oracle.requests(),
                                           engine.requests(), cell);
                expectEnergyBitIdentical(want.aggregate.summary.energy,
                                         got.aggregate.summary.energy,
                                         cell);
                for (std::size_t i = 0; i < got.devices.size(); ++i)
                    expectEnergyBitIdentical(
                        want.devices[i].report.summary.energy,
                        got.devices[i].report.summary.energy,
                        cell + " dev" + std::to_string(i));
                const auto stats = cacheStats(engine);
                if (threads == 1) {
                    one_lane = stats;
                    EXPECT_GT(fleetStats(engine).hits, 0u) << cell;
                    continue;
                }
                for (std::size_t i = 0; i < stats.size(); ++i) {
                    const std::string dev = cell + " dev" + std::to_string(i);
                    EXPECT_EQ(stats[i].hits, one_lane[i].hits) << dev;
                    EXPECT_EQ(stats[i].misses, one_lane[i].misses) << dev;
                    EXPECT_EQ(stats[i].bypasses, one_lane[i].bypasses)
                        << dev;
                }
            }
        }
    }
}

TEST(ParallelMemoGroup, EqualSystemsShareOneMemo)
{
    // Systems that differ only in their name cost every step alike,
    // but compare unequal, so each device keeps a memo of its own:
    // the same reports and lookups, with more misses. A fleet that
    // stopped sharing memos would miss as often as the renamed one.
    for (std::size_t threads : {1, 4}) {
        const std::string label = std::to_string(threads) + " lanes";
        auto shared = tinyClusterConfig(
            8, cluster::DispatchKind::JoinShortestKv,
            serving::SchedulePolicy::ContinuousBatching, 600.0, 5, 48);
        shared.threads = threads;
        auto apart = shared;
        for (std::size_t i = 0; i < apart.devices.size(); ++i)
            apart.devices[i].system.name += std::to_string(i);
        cluster::ClusterEngine shared_engine(shared);
        cluster::ClusterEngine apart_engine(apart);
        expectClustersBitIdentical(shared_engine.run(), apart_engine.run(),
                                   label);
        const auto s = fleetStats(shared_engine);
        const auto a = fleetStats(apart_engine);
        EXPECT_EQ(s.lookups(), a.lookups()) << label;
        EXPECT_LT(s.misses, a.misses) << label;
    }
}

TEST(ParallelMemoGroup, WindowMissesStayPrivateUntilTheJoin)
{
    // Eight identical requests land on eight identical devices within
    // microseconds, so one multi-lane window runs them all and every
    // device looks up the same decode shapes in it. A report computed
    // inside the window is visible only to its device until the
    // join, so all eight miss alike; a device that read another's
    // in-window report would hit instead.
    auto cfg = tinyClusterConfig(8, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 1e6, 3, 8);
    cfg.engine.traffic.mix = {
        {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
    for (std::size_t threads : {1, 2, 4}) {
        const std::string label = std::to_string(threads) + " lanes";
        cfg.threads = threads;
        cluster::ClusterEngine engine(cfg);
        engine.run();
        const auto stats = cacheStats(engine);
        EXPECT_GT(stats[0].misses, 0u) << label;
        for (std::size_t i = 1; i < stats.size(); ++i) {
            const std::string dev = label + " dev" + std::to_string(i);
            EXPECT_EQ(engine.device(i).decodeSteps(),
                      engine.device(0).decodeSteps())
                << dev;
            EXPECT_EQ(stats[i].misses, stats[0].misses) << dev;
            EXPECT_EQ(stats[i].hits, stats[0].hits) << dev;
        }
    }
}

} // namespace
} // namespace kelle
