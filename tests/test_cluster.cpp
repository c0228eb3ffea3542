/**
 * @file
 * Deterministic tests of the layer-6 cluster engine, organised into
 * several suites on purpose: with per-suite ctest registration
 * (cmake/KelleGtestSuites.cmake) each suite is one ctest entry, so the
 * sim-scale cluster runs shard across ctest jobs.
 *
 *  - ClusterEquivalence: a 1-device cluster gives the same report
 *    under every dispatch policy, with and without preemption.
 *  - ClusterDeterminism: every (devices x dispatch x fleet) cell is a
 *    pure function of its seed.
 *  - ClusterDispatch: parse round-trips, routing behaviour, and the
 *    join-shortest-kv > round-robin p95-TTFT win on an asymmetric
 *    fleet.
 *  - ClusterPreempt: preempt-and-requeue accounting (victim re-enters
 *    the queue, budget reclaimed, SLO miss stays charged).
 *  - ClusterHetero: mixed eDRAM/SRAM fleets.
 *  - ClusterMetricsSuite: roll-up arithmetic.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "accel/capacity.hpp"
#include "cluster/cluster_engine.hpp"
#include "obs/trace.hpp"

namespace kelle {
namespace {

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

/** `cfg` on n identical tiny devices: Kelle+eDRAM at batch cap 4,
 *  each pool a handful of concurrent tiny budgets. */
cluster::ClusterConfig
onTinyFleet(const serving::ServingConfig &cfg, std::size_t n_devices,
            cluster::DispatchKind dispatch)
{
    cluster::ClusterConfig c;
    c.engine = cfg;
    c.dispatch = dispatch;
    c.devices = cluster::homogeneousFleet(
        n_devices, accel::kelleEdramSystem(2048), 512, 4);
    return c;
}

/** A tiny n-device homogeneous cluster over the same traffic. */
cluster::ClusterConfig
tinyClusterConfig(std::size_t n_devices, cluster::DispatchKind dispatch,
                  serving::SchedulePolicy policy, double rate,
                  std::uint64_t seed, std::size_t requests)
{
    return onTinyFleet(tinyServingConfig(policy, rate, seed, requests),
                       n_devices, dispatch);
}

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
    EXPECT_EQ(a.drained, b.drained) << label;
}

/** A single-device session: a 1-device round-robin cluster. */
serving::ServingReport
runOneDevice(const serving::ServingConfig &cfg)
{
    return cluster::ClusterEngine(
               onTinyFleet(cfg, 1, cluster::DispatchKind::RoundRobin))
        .run()
        .aggregate;
}

// ---- 1-device equivalence ----------------------------------------------

TEST(ClusterEquivalence, OneDeviceReportIsTheSameUnderEveryDispatch)
{
    // With one device there is nothing to route: every dispatch policy
    // must give the round-robin report field for field, and the
    // device's own report must equal the aggregate.
    for (auto policy : serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{16}}) {
            auto scfg = tinyServingConfig(policy, 50.0, 11, 24);
            scfg.chunkTokens = chunk;
            const auto ref = runOneDevice(scfg);
            for (auto dispatch : cluster::allDispatchPolicies()) {
                cluster::ClusterEngine engine(
                    onTinyFleet(scfg, 1, dispatch));
                const auto clus = engine.run();
                const std::string label =
                    toString(policy) + "/" + toString(dispatch) +
                    "/chunk" + std::to_string(chunk);
                expectReportsBitIdentical(ref, clus.aggregate, label);
                ASSERT_EQ(clus.devices.size(), 1u) << label;
                expectReportsBitIdentical(ref, clus.devices[0].report,
                                          label);
                EXPECT_EQ(clus.loadImbalanceCv, 0.0) << label;
            }
        }
    }
}

TEST(ClusterEquivalence, OneDeviceTinyTpotTargetPreempts)
{
    // TPOT targets far below the achievable rate make preemptions
    // fire on a single device; the victim re-enters the same device,
    // so every dispatch policy still gives the same report.
    auto scfg = tinyServingConfig(
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    scfg.traffic.slo.tpotSec = 2e-6;
    scfg.preempt.enabled = true;
    const auto ref = runOneDevice(scfg);
    ASSERT_GT(ref.summary.preemptions, 0u);
    for (auto dispatch : cluster::allDispatchPolicies()) {
        cluster::ClusterEngine engine(onTinyFleet(scfg, 1, dispatch));
        expectReportsBitIdentical(ref, engine.run().aggregate,
                                  "preempt/" + toString(dispatch));
    }
}

TEST(ClusterEquivalence, SlackAwareAlternationOffIsBitExact)
{
    // chunkSlackFrac = 0 must preserve the unconditional alternation:
    // two edf-chunked runs, knob absent vs explicitly 0, are the same
    // run.
    auto cfg = tinyServingConfig(serving::SchedulePolicy::EdfChunked,
                                 80.0, 19, 24);
    cfg.chunkTokens = 16;
    const auto a = runOneDevice(cfg);
    cfg.chunkSlackFrac = 0.0;
    const auto b = runOneDevice(cfg);
    expectReportsBitIdentical(a, b, "slack-off");
}

TEST(ClusterEquivalence, SlackAwareAlternationChangesTheSchedule)
{
    // With a saturating trace and short TTFT slack the rule must
    // actually fire: the engine-step sequence (and so the decode-stall
    // tail) differs from unconditional alternation, while the trace
    // still drains completely.
    auto cfg = tinyServingConfig(serving::SchedulePolicy::EdfChunked,
                                 500.0, 19, 24);
    cfg.chunkTokens = 8;
    cfg.traffic.slo.ttftBaseSec = 1e-4;
    cfg.traffic.slo.ttftPerCtxTokenSec = 0.0;
    const auto plain = runOneDevice(cfg);
    cfg.chunkSlackFrac = 1.0; // any positive slack counts as pressed
    const auto slack = runOneDevice(cfg);
    EXPECT_TRUE(slack.drained);
    EXPECT_EQ(slack.summary.completed + slack.summary.rejected,
              cfg.traffic.numRequests);
    // The alternation was suppressed at least once somewhere.
    EXPECT_NE(plain.summary.tokenGapP95, slack.summary.tokenGapP95);
}

// ---- Determinism --------------------------------------------------------

TEST(ClusterDeterminism, RerunsAreBitIdenticalForEveryDispatchPolicy)
{
    for (auto dispatch : cluster::allDispatchPolicies()) {
        for (std::size_t n :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            auto cfg = tinyClusterConfig(
                n, dispatch, serving::SchedulePolicy::EdfChunked,
                200.0, 99, 24);
            cfg.engine.chunkTokens = 16;
            const auto a = cluster::ClusterEngine(cfg).run();
            const auto b = cluster::ClusterEngine(cfg).run();
            const std::string label =
                toString(dispatch) + "/n" + std::to_string(n);
            expectReportsBitIdentical(a.aggregate, b.aggregate, label);
            EXPECT_EQ(a.loadImbalanceCv, b.loadImbalanceCv) << label;
            ASSERT_EQ(a.devices.size(), b.devices.size()) << label;
            for (std::size_t i = 0; i < a.devices.size(); ++i) {
                EXPECT_EQ(a.devices[i].dispatched,
                          b.devices[i].dispatched)
                    << label << " dev" << i;
                EXPECT_EQ(a.devices[i].busySec, b.devices[i].busySec)
                    << label << " dev" << i;
            }
        }
    }
}

TEST(ClusterDeterminism, HeteroFleetRerunsAreBitIdentical)
{
    for (auto dispatch : cluster::allDispatchPolicies()) {
        auto cfg = tinyClusterConfig(
            2, dispatch, serving::SchedulePolicy::ContinuousBatching,
            500.0, 7, 24);
        cfg.devices = cluster::heteroEdramSramFleet(2, 2048, 512, 128,
                                                    4);
        const auto a = cluster::ClusterEngine(cfg).run();
        const auto b = cluster::ClusterEngine(cfg).run();
        expectReportsBitIdentical(a.aggregate, b.aggregate,
                                  toString(dispatch));
    }
}

TEST(ClusterDeterminism, DifferentSeedsDiffer)
{
    auto cfg = tinyClusterConfig(2, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 200.0,
                                 1, 24);
    const auto a = cluster::ClusterEngine(cfg).run();
    cfg.engine.traffic.seed = 2;
    const auto b = cluster::ClusterEngine(cfg).run();
    EXPECT_NE(a.aggregate.summary.makespan.sec(),
              b.aggregate.summary.makespan.sec());
}

// ---- Dispatch policies --------------------------------------------------

TEST(ClusterDispatch, ToStringParseRoundTripAndErrorEnumeration)
{
    const auto all = cluster::allDispatchPolicies();
    EXPECT_EQ(all.size(), 3u);
    for (auto k : all) {
        cluster::DispatchKind parsed;
        ASSERT_TRUE(
            cluster::parseDispatchPolicy(toString(k), &parsed))
            << toString(k);
        EXPECT_EQ(parsed, k);
        // The CLI error string must name every valid policy.
        EXPECT_NE(
            cluster::dispatchPolicyNames().find(toString(k)),
            std::string::npos)
            << toString(k);
    }
    cluster::DispatchKind k;
    EXPECT_FALSE(cluster::parseDispatchPolicy("bogus", &k));
    EXPECT_FALSE(cluster::parseDispatchPolicy("", &k));
    EXPECT_TRUE(cluster::parseDispatchPolicy("rr", &k));
    EXPECT_EQ(k, cluster::DispatchKind::RoundRobin);
    EXPECT_TRUE(cluster::parseDispatchPolicy("jsk", &k));
    EXPECT_EQ(k, cluster::DispatchKind::JoinShortestKv);
    EXPECT_TRUE(cluster::parseDispatchPolicy("deadline", &k));
    EXPECT_EQ(k, cluster::DispatchKind::DeadlineAware);
}

TEST(ClusterDispatch, RoundRobinSpreadsArrivalsEvenly)
{
    auto cfg = tinyClusterConfig(4, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 100.0,
                                 3, 32);
    cluster::ClusterEngine engine(cfg);
    const auto rep = engine.run();
    ASSERT_EQ(rep.devices.size(), 4u);
    for (const auto &d : rep.devices)
        EXPECT_EQ(d.dispatched, 8u) << d.name;
    EXPECT_TRUE(rep.aggregate.drained);
    EXPECT_EQ(rep.aggregate.summary.completed +
                  rep.aggregate.summary.rejected,
              cfg.engine.traffic.numRequests);
}

TEST(ClusterDispatch, EveryPolicyServesTheWholeTrace)
{
    for (auto dispatch : cluster::allDispatchPolicies()) {
        for (std::size_t n :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            auto cfg = tinyClusterConfig(
                n, dispatch, serving::SchedulePolicy::EdfChunked,
                300.0, 23, 24);
            cfg.engine.chunkTokens = 16;
            cluster::ClusterEngine engine(cfg);
            const auto rep = engine.run();
            const std::string label =
                toString(dispatch) + "/n" + std::to_string(n);
            EXPECT_TRUE(rep.aggregate.drained) << label;
            EXPECT_EQ(rep.aggregate.summary.completed +
                          rep.aggregate.summary.rejected,
                      cfg.engine.traffic.numRequests)
                << label;
            // Per-device pools are never oversubscribed.
            for (const auto &d : rep.devices) {
                EXPECT_LE(d.report.poolPeakBytes,
                          d.report.poolCapacityBytes)
                    << label << " " << d.name;
            }
            // Beyond one device, no device may serve everything at a
            // rate this saturating.
            if (n > 1) {
                for (const auto &d : rep.devices)
                    EXPECT_LT(d.dispatched, cfg.engine.traffic.numRequests)
                        << label << " " << d.name;
            }
        }
    }
}

TEST(ClusterDispatch, JoinShortestKvBeatsRoundRobinOnAsymmetricFleet)
{
    // An asymmetric fleet at a saturating rate: round-robin pushes
    // half the load onto the cramped device and its queue backs up;
    // join-shortest-kv routes by free pool bytes, so the big device
    // absorbs the surplus. The p95 TTFT (and the aggregate SLO story)
    // must favour join-shortest-kv — the acceptance gate of the
    // cluster bench's knee regime.
    auto base = tinyClusterConfig(
        2, cluster::DispatchKind::RoundRobin,
        serving::SchedulePolicy::ContinuousBatching, 1000.0, 21, 32);
    base.devices = cluster::heteroEdramSramFleet(2, 2048, 512, 128, 4);

    cluster::ClusterEngine rr_engine(base);
    const auto rr = rr_engine.run();
    base.dispatch = cluster::DispatchKind::JoinShortestKv;
    cluster::ClusterEngine jsk_engine(base);
    const auto jsk = jsk_engine.run();

    ASSERT_GT(rr.aggregate.summary.completed, 0u);
    ASSERT_GT(jsk.aggregate.summary.completed, 0u);
    EXPECT_LT(jsk.aggregate.summary.ttftP95,
              rr.aggregate.summary.ttftP95);
    // Routing by free budget sends more work to the roomy device.
    EXPECT_GT(jsk.devices[0].dispatched, jsk.devices[1].dispatched);
}

TEST(ClusterDispatch, InfeasibleDeviceIsAvoidedWhenAnotherFits)
{
    // One device's whole pool is below every task's protected floor:
    // blind rotation would reject half the trace outright, but the
    // dispatcher must re-route to a device that can ever hold the
    // floor. Rejection stays reserved for requests no device can fit.
    auto cfg = tinyClusterConfig(2, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::Fcfs, 100.0,
                                 5, 16);
    cfg.devices[1].poolTokens = 16; // below the tiny tasks' floors
    cluster::ClusterEngine engine(cfg);
    const auto rep = engine.run();

    EXPECT_TRUE(rep.aggregate.drained);
    EXPECT_EQ(rep.aggregate.summary.rejected, 0u);
    EXPECT_EQ(rep.aggregate.summary.completed,
              cfg.engine.traffic.numRequests);
    EXPECT_EQ(rep.devices[0].dispatched, cfg.engine.traffic.numRequests);
    EXPECT_EQ(rep.devices[1].dispatched, 0u);
}

// ---- Preempt-and-requeue ------------------------------------------------

TEST(ClusterPreempt, DoomedDecodesAreRequeuedAndAccounted)
{
    // TPOT targets far below what a saturated tiny engine can deliver:
    // decodes become provably doomed mid-flight, and with waiting
    // demand the knob must reclaim their grants.
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::JoinShortestKv,
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    cfg.engine.traffic.slo.tpotSec = 2e-6;
    cfg.engine.preempt.enabled = true;

    cluster::ClusterEngine engine(cfg);
    const auto rep = engine.run();

    EXPECT_TRUE(rep.aggregate.drained);
    EXPECT_GT(rep.aggregate.summary.preemptions, 0u);
    // Every request still reaches a terminal state (preemption is
    // bounded to once per request, so the trace drains).
    EXPECT_EQ(rep.aggregate.summary.completed +
                  rep.aggregate.summary.rejected,
              cfg.engine.traffic.numRequests);
    // Budgets were reclaimed, never oversubscribed.
    for (const auto &d : rep.devices)
        EXPECT_LE(d.report.poolPeakBytes, d.report.poolCapacityBytes);

    // The victims completed (elsewhere or re-admitted), each at most
    // once preempted, and their TPOT miss stays on the books: the
    // first token of the first life anchors the measurement.
    std::uint64_t victims = 0;
    for (std::size_t i = 0; i < engine.deviceCount(); ++i) {
        for (const auto &r :
             engine.device(i).metrics().completedRequests()) {
            if (r.preemptions == 0)
                continue;
            ++victims;
            EXPECT_EQ(r.preemptions, 1u) << r.id;
            EXPECT_EQ(r.generated, r.task.decLen) << r.id;
            EXPECT_FALSE(serving::ServingMetrics::metTpot(r)) << r.id;
        }
    }
    EXPECT_EQ(victims, rep.aggregate.summary.preemptions);
}

TEST(ClusterPreempt, OffByDefaultAndBitExactWhenDisabled)
{
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::RoundRobin,
        serving::SchedulePolicy::ContinuousBatching, 2000.0, 13, 24);
    cfg.engine.traffic.slo.tpotSec = 2e-6; // doomed decodes exist...
    const auto rep = cluster::ClusterEngine(cfg).run();
    // ...but the knob is off, so nothing is reclaimed.
    EXPECT_EQ(rep.aggregate.summary.preemptions, 0u);
    for (std::size_t i = 0; i < rep.devices.size(); ++i)
        EXPECT_EQ(rep.devices[i].report.summary.preemptions, 0u);
}

TEST(ClusterPreempt, ReclamationNeedsDemand)
{
    // A trickle arrival rate: nobody waits, so even doomed decodes
    // keep their grants (preempting them would buy nothing).
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::RoundRobin,
        serving::SchedulePolicy::ContinuousBatching, 0.5, 13, 6);
    cfg.engine.traffic.slo.tpotSec = 2e-6;
    cfg.engine.preempt.enabled = true;
    const auto rep = cluster::ClusterEngine(cfg).run();
    EXPECT_TRUE(rep.aggregate.drained);
    EXPECT_EQ(rep.aggregate.summary.preemptions, 0u);
}

// ---- Heterogeneous fleets ----------------------------------------------

TEST(ClusterHetero, MixedFleetServesAndRollsUpPoolsPerDevice)
{
    // Round-robin so every device type demonstrably serves work
    // (join-shortest-kv legitimately keeps the trace on the roomy
    // eDRAM pools at this load; its routing is covered in
    // ClusterDispatch).
    auto cfg = tinyClusterConfig(
        2, cluster::DispatchKind::RoundRobin,
        serving::SchedulePolicy::ContinuousBatching, 500.0, 31, 24);
    cfg.devices = cluster::heteroEdramSramFleet(4, 2048, 512, 256, 4);
    cluster::ClusterEngine engine(cfg);
    const auto rep = engine.run();

    ASSERT_EQ(rep.devices.size(), 4u);
    EXPECT_EQ(rep.devices[0].name, "edram0");
    EXPECT_EQ(rep.devices[1].name, "sram1");
    EXPECT_EQ(rep.devices[0].report.poolTokens, 512u);
    EXPECT_EQ(rep.devices[1].report.poolTokens, 256u);
    EXPECT_EQ(rep.aggregate.poolTokens, 2u * 512u + 2u * 256u);
    EXPECT_TRUE(rep.aggregate.drained);
    EXPECT_EQ(rep.aggregate.summary.completed +
                  rep.aggregate.summary.rejected,
              cfg.engine.traffic.numRequests);
    // Both memory technologies served work.
    EXPECT_GT(rep.devices[0].dispatched + rep.devices[2].dispatched,
              0u);
    EXPECT_GT(rep.devices[1].dispatched + rep.devices[3].dispatched,
              0u);
    // Only the eDRAM-backed devices burn refresh energy.
    const double edram_refresh =
        rep.devices[0].report.summary.energy.refresh.j() +
        rep.devices[2].report.summary.energy.refresh.j();
    const double sram_refresh =
        rep.devices[1].report.summary.energy.refresh.j() +
        rep.devices[3].report.summary.energy.refresh.j();
    EXPECT_GT(edram_refresh, 0.0);
    EXPECT_EQ(sram_refresh, 0.0);
    EXPECT_NEAR(rep.refreshEnergyJ, edram_refresh + sram_refresh,
                1e-12 * std::max(1.0, edram_refresh));
}

TEST(ClusterHetero, DerivedPoolsAndBatchCapsResolvePerDevice)
{
    // Two devices whose specs differ in KV precision and batch cap,
    // both with a derived pool (poolTokens = 0): each device's pool is
    // the §8.4.1 pool of its own system, and no decode step of a
    // device batches more than its own cap. Saturating arrivals of
    // tiny requests keep both batches at their caps.
    serving::DeviceSpec int8;
    int8.name = "int8";
    int8.system.kv.kvBits = 8;
    int8.maxBatch = 3;
    serving::DeviceSpec fp16;
    fp16.name = "fp16";
    fp16.maxBatch = 5;
    obs::TraceRecorder rec;
    cluster::ClusterConfig cfg;
    cfg.engine.traffic.ratePerSec = 2000.0;
    cfg.engine.traffic.numRequests = 32;
    cfg.engine.traffic.seed = 5;
    cfg.engine.traffic.mix = tinyMix();
    cfg.engine.trace = &rec;
    cfg.devices = {int8, fp16};
    cluster::ClusterEngine engine(cfg);
    const auto rep = engine.run();
    ASSERT_TRUE(rep.aggregate.drained);

    const model::ModelConfig &m = cfg.engine.model;
    std::size_t pools[2] = {};
    for (std::size_t i = 0; i < 2; ++i) {
        const serving::DeviceSpec &spec = cfg.devices[i];
        SCOPED_TRACE(spec.name);
        pools[i] = engine.device(i).allocator().capacityTokens();
        EXPECT_EQ(pools[i],
                  accel::maxSupportedTokens(
                      m, accel::capacitySpecOf(spec.system))
                      .maxTokens);
        std::size_t widest = 0;
        for (const obs::TraceEvent &e : rec.deviceTracks()[i]->events())
            if (e.kind == obs::TraceEventKind::DecodeStep)
                widest = std::max(widest, static_cast<std::size_t>(e.v0));
        EXPECT_EQ(widest, spec.maxBatch);
    }
    // Half-width KV fits twice the tokens in the same DRAM.
    EXPECT_GT(pools[0], pools[1] * 19 / 10);
}

// ---- Roll-up arithmetic -------------------------------------------------

TEST(ClusterMetricsSuite, CoefficientOfVariationHandChecked)
{
    EXPECT_DOUBLE_EQ(cluster::coefficientOfVariation({}), 0.0);
    EXPECT_DOUBLE_EQ(cluster::coefficientOfVariation({5.0, 5.0}), 0.0);
    // mean 3, population stddev sqrt(((2-3)^2 + (4-3)^2)/2) = 1.
    EXPECT_DOUBLE_EQ(cluster::coefficientOfVariation({2.0, 4.0}),
                     1.0 / 3.0);
    EXPECT_DOUBLE_EQ(cluster::coefficientOfVariation({0.0, 0.0}), 0.0);
}

TEST(ClusterMetricsSuite, AggregateCountersAreDeviceSums)
{
    auto cfg = tinyClusterConfig(3, cluster::DispatchKind::RoundRobin,
                                 serving::SchedulePolicy::EdfChunked,
                                 300.0, 17, 24);
    cfg.engine.chunkTokens = 16;
    const auto rep = cluster::ClusterEngine(cfg).run();

    std::uint64_t steps = 0, decodes = 0, chunks = 0, prefills = 0;
    std::size_t completed = 0, dispatched = 0, pool = 0;
    double energy = 0.0;
    for (const auto &d : rep.devices) {
        steps += d.report.engineSteps;
        decodes += d.report.decodeSteps;
        chunks += d.report.prefillChunks;
        prefills += d.report.prefills;
        completed += d.report.summary.completed;
        dispatched += d.dispatched;
        pool += d.report.poolTokens;
        energy += d.report.summary.energy.total().j();
    }
    EXPECT_EQ(rep.aggregate.engineSteps, steps);
    EXPECT_EQ(rep.aggregate.decodeSteps, decodes);
    EXPECT_EQ(rep.aggregate.prefillChunks, chunks);
    EXPECT_EQ(rep.aggregate.prefills, prefills);
    EXPECT_EQ(rep.aggregate.summary.completed, completed);
    EXPECT_EQ(dispatched, cfg.engine.traffic.numRequests);
    EXPECT_EQ(rep.aggregate.poolTokens, pool);
    EXPECT_NEAR(rep.aggregate.summary.energy.total().j(), energy,
                1e-9 * std::max(1.0, energy));
    EXPECT_GE(rep.loadImbalanceCv, 0.0);
    EXPECT_GE(rep.meanKvPeakUtilization, 0.0);
    EXPECT_LE(rep.meanKvPeakUtilization, 1.0);
}

TEST(ClusterMetricsSuite, MergeMatchesManualCombination)
{
    serving::ServingMetrics a;
    serving::ServingMetrics b;
    auto mkreq = [](std::uint64_t id, double ttft, double e2e) {
        serving::Request r;
        r.id = id;
        r.task = sim::lambada();
        r.task.decLen = 10;
        r.arrival = sim::SimTime::fromSec(0.0);
        r.firstToken = sim::SimTime::fromSec(ttft);
        r.completed = sim::SimTime::fromSec(e2e);
        r.generated = 10;
        r.state = serving::RequestState::Completed;
        return r;
    };
    a.onCompleted(mkreq(1, 1.0, 11.0));
    a.onBypass(2);
    b.onCompleted(mkreq(2, 3.0, 13.0));
    b.onCompleted(mkreq(3, 2.0, 12.0));
    b.onPreempted();

    serving::ServingMetrics merged;
    merged.merge(a);
    merged.merge(b);
    const auto s = merged.summarize(Time::seconds(13.0));
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.admissionBypasses, 2u);
    EXPECT_EQ(s.preemptions, 1u);
    EXPECT_DOUBLE_EQ(s.ttftMean, 2.0);
    EXPECT_DOUBLE_EQ(s.ttftP50, 2.0);
    EXPECT_DOUBLE_EQ(s.ttftP95, 3.0);
}

} // namespace
} // namespace kelle
