/**
 * @file
 * The fault-injection determinism and recovery contract (src/faults +
 * cluster engine integration):
 *
 *  - FaultInjector: the merged per-device renewal stream is a pure
 *    function of (seed, device index, config) — identical across
 *    constructions and independent of fleet size.
 *  - FaultNull: a disabled config is a null test — no injector, empty
 *    fault report, no device crashed (the byte-level half of this
 *    contract is pinned by the unchanged pre-fault golden digests).
 *  - FaultDeterminism: a fixed fault seed produces bit-identical
 *    ClusterReports and trace bytes across threads {1,2,4} x fastSim
 *    on/off x preempt on/off.
 *  - FaultCrash: crash-eviction invariants — every request terminal,
 *    lost work accounted, the retry budget respected, permanent
 *    failures marked, crashed devices fully released.
 *  - FaultTrace: the offline reader parses fault traces with zero
 *    unknown events and zero decode-batch mismatches, and replays the
 *    device_fault miss cause.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.hpp"
#include "fault_fixtures.hpp"
#include "faults/fault_injector.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace kelle {
namespace {

void
expectFaultReportsEqual(const cluster::ClusterFaultReport &a,
                        const cluster::ClusterFaultReport &b,
                        const std::string &label)
{
    EXPECT_EQ(a.enabled, b.enabled) << label;
    EXPECT_EQ(a.totalDowntimeSec, b.totalDowntimeSec) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.slowdowns, b.slowdowns) << label;
    EXPECT_EQ(a.shrinks, b.shrinks) << label;
    EXPECT_EQ(a.lostTokens, b.lostTokens) << label;
    EXPECT_EQ(a.retries, b.retries) << label;
    EXPECT_EQ(a.retrySuccesses, b.retrySuccesses) << label;
    EXPECT_EQ(a.shedRequests, b.shedRequests) << label;
    EXPECT_EQ(a.permanentFailures, b.permanentFailures) << label;
    ASSERT_EQ(a.devices.size(), b.devices.size()) << label;
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_EQ(a.devices[i].crashes, b.devices[i].crashes)
            << label << " dev" << i;
        EXPECT_EQ(a.devices[i].downtimeSec, b.devices[i].downtimeSec)
            << label << " dev" << i;
    }
}

struct FaultRun
{
    cluster::ClusterReport report;
    std::vector<serving::Request> requests;
    std::string traceJson;
    std::vector<bool> crashed;
    std::vector<double> allocatorInUseBytes;
};

FaultRun
runFaultCell(cluster::ClusterConfig cfg, std::size_t threads,
             bool fast_sim)
{
    obs::TraceRecorder rec;
    cfg.threads = threads;
    cfg.engine.fastSim = fast_sim;
    cfg.engine.trace = &rec;
    cluster::ClusterEngine engine(cfg);
    FaultRun out;
    out.report = engine.run();
    out.requests = engine.requests();
    out.traceJson = rec.toJson();
    for (std::size_t i = 0; i < engine.deviceCount(); ++i) {
        out.crashed.push_back(engine.device(i).crashed());
        out.allocatorInUseBytes.push_back(
            engine.device(i).allocator().inUseBytes());
    }
    return out;
}

// ---- FaultInjector ------------------------------------------------------

TEST(FaultInjector, StreamIsDeterministic)
{
    const faults::FaultConfig cfg = tinyFaults(7);
    faults::FaultInjector a(cfg, 3);
    faults::FaultInjector b(cfg, 3);
    for (int i = 0; i < 500; ++i) {
        const faults::FaultEvent ea = a.pop();
        const faults::FaultEvent eb = b.pop();
        EXPECT_EQ(ea.at.sec(), eb.at.sec()) << i;
        EXPECT_EQ(ea.device, eb.device) << i;
        EXPECT_EQ(ea.kind, eb.kind) << i;
        EXPECT_EQ(ea.cause, eb.cause) << i;
        // The merged stream is chronological.
        EXPECT_LE(ea.at.sec(), a.nextEventTime().sec()) << i;
    }
}

TEST(FaultInjector, StreamDigestIsPinned)
{
    // The first 500 disruptions and recoveries of a 4-device stream
    // at the default rates and a 5 s crash warm-up, hashed (FNV-1a
    // over device, kind, cause and tick). Only those four kinds are
    // hashed: an instant that changes no device is not part of the
    // contract.
    faults::FaultConfig cfg;
    cfg.enabled = true;
    cfg.recoverWarmupSec = 5.0;
    faults::FaultInjector inj(cfg, 4);
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (int seen = 0; seen < 500;) {
        const faults::FaultEvent ev = inj.pop();
        if (ev.kind != faults::FaultKind::Crash &&
            ev.kind != faults::FaultKind::Slowdown &&
            ev.kind != faults::FaultKind::PoolShrink &&
            ev.kind != faults::FaultKind::Recover)
            continue;
        mix(ev.device);
        mix(static_cast<std::uint64_t>(ev.kind));
        mix(static_cast<std::uint64_t>(ev.cause));
        mix(static_cast<std::uint64_t>(ev.at.ns()));
        ++seen;
    }
    EXPECT_EQ(h, 0xe9ca398ee975a3c2ull) << std::hex << h;
}

TEST(FaultInjector, StreamIndependentOfFleetSize)
{
    const faults::FaultConfig cfg = tinyFaults(11);
    faults::FaultInjector small(cfg, 1);
    faults::FaultInjector large(cfg, 4);
    // Device 0's history must not depend on how many peers exist.
    for (int seen = 0; seen < 100;) {
        const faults::FaultEvent el = large.pop();
        if (el.device != 0)
            continue;
        const faults::FaultEvent es = small.pop();
        EXPECT_EQ(es.at.sec(), el.at.sec()) << seen;
        EXPECT_EQ(es.kind, el.kind) << seen;
        EXPECT_EQ(es.cause, el.cause) << seen;
        ++seen;
    }
}

TEST(FaultInjector, KindWeightsAreRespected)
{
    faults::FaultConfig cfg = tinyFaults(3);
    cfg.slowdownWeight = 0.0;
    cfg.shrinkWeight = 0.0;
    faults::FaultInjector inj(cfg, 2);
    for (int i = 0; i < 200; ++i) {
        const faults::FaultEvent ev = inj.pop();
        EXPECT_TRUE(ev.kind == faults::FaultKind::Crash ||
                    ev.kind == faults::FaultKind::Recover)
            << toString(ev.kind);
        if (ev.kind != faults::FaultKind::Crash) {
            EXPECT_EQ(ev.cause, faults::FaultKind::Crash);
        }
    }
}

// ---- FaultNull ----------------------------------------------------------

TEST(FaultNull, DisabledConfigKeepsReportEmptyAndFleetHealthy)
{
    cluster::ClusterConfig cfg = tinyFaultCluster(2);
    cfg.faults = faults::FaultConfig{}; // disabled
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport rep = engine.run();
    EXPECT_FALSE(rep.faults.enabled);
    EXPECT_EQ(rep.faults.crashes, 0u);
    EXPECT_EQ(rep.faults.retries, 0u);
    EXPECT_EQ(rep.faults.lostTokens, 0u);
    EXPECT_EQ(rep.faults.totalDowntimeSec, 0.0);
    EXPECT_TRUE(rep.faults.devices.empty());
    for (std::size_t i = 0; i < engine.deviceCount(); ++i)
        EXPECT_FALSE(engine.device(i).crashed());
    for (const serving::Request &r : engine.requests()) {
        EXPECT_EQ(r.faultRetries, 0u);
        EXPECT_EQ(r.lostTokens, 0u);
        EXPECT_FALSE(r.faulted);
        EXPECT_FALSE(r.faultFailed);
    }
}

// ---- FaultDeterminism ---------------------------------------------------

TEST(FaultDeterminism, ThreadsAndFastSimBitIdentical)
{
    for (std::uint64_t seed : {5u, 42u}) {
        const cluster::ClusterConfig cfg = tinyFaultCluster(3, seed);
        const FaultRun serial = runFaultCell(cfg, 1, true);
        // The fault stream must actually do something in this cell or
        // the invariance below is vacuous.
        ASSERT_GT(serial.report.faults.crashes +
                      serial.report.faults.slowdowns +
                      serial.report.faults.shrinks,
                  0u);
        for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
            for (bool fast : {true, false}) {
                std::string label = "s";
                label += std::to_string(seed);
                label += "/t";
                label += std::to_string(threads);
                label += fast ? "/fast" : "/slow";
                const FaultRun par = runFaultCell(cfg, threads, fast);
                EXPECT_EQ(serial.traceJson, par.traceJson) << label;
                expectFaultReportsEqual(serial.report.faults,
                                        par.report.faults, label);
                EXPECT_EQ(serial.report.aggregate.summary.completed,
                          par.report.aggregate.summary.completed)
                    << label;
                EXPECT_EQ(serial.report.aggregate.summary.rejected,
                          par.report.aggregate.summary.rejected)
                    << label;
                EXPECT_EQ(
                    serial.report.aggregate.summary.goodputTokensPerSec,
                    par.report.aggregate.summary.goodputTokensPerSec)
                    << label;
                EXPECT_EQ(serial.crashed, par.crashed) << label;
            }
        }
    }
}

TEST(FaultDeterminism, PreemptionComposesBitIdentically)
{
    cluster::ClusterConfig cfg = tinyFaultCluster(3, 42);
    cfg.engine.preempt.enabled = true;
    cfg.engine.traffic.ratePerSec = 500.0;
    const FaultRun serial = runFaultCell(cfg, 1, true);
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        for (bool fast : {true, false}) {
            const FaultRun par = runFaultCell(cfg, threads, fast);
            EXPECT_EQ(serial.traceJson, par.traceJson)
                << "t" << threads << (fast ? "/fast" : "/slow");
            expectFaultReportsEqual(serial.report.faults,
                                    par.report.faults,
                                    "preempt/t" +
                                        std::to_string(threads));
        }
    }
}

TEST(FaultDeterminism, RetriedDecodeKeepsItsDoomClock)
{
    // A crash-evicted request that already emitted its first token
    // keeps that timestamp when it is retried, so its doom clock runs
    // from its first life, not from its re-dispatch. The lookahead
    // bound must start it there too, or a window on another device can
    // run past the retried request's preemption.
    for (std::uint64_t seed : {3u, 42u}) {
        cluster::ClusterConfig cfg = crashyCluster(seed);
        cfg.faults.mtbfSec = 0.003;
        cfg.engine.preempt.enabled = true;
        cfg.engine.traffic.ratePerSec = 2000.0;
        cfg.engine.traffic.slo.tpotSec = 2e-6;
        const FaultRun one = runFaultCell(cfg, 1, true);
        const std::string label = "seed " + std::to_string(seed);
        ASSERT_GT(one.report.faults.crashes, 0u) << label;
        ASSERT_GT(one.report.aggregate.summary.preemptions, 0u) << label;
        for (bool fast : {true, false}) {
            const FaultRun two = runFaultCell(cfg, 2, fast);
            EXPECT_EQ(one.traceJson, two.traceJson)
                << label << (fast ? "/fast" : "/slow");
        }
    }
}

// ---- FaultCrash ---------------------------------------------------------

TEST(FaultCrash, EveryRequestTerminalAndLostWorkAccounted)
{
    cluster::ClusterEngine engine(crashyCluster());
    const cluster::ClusterReport rep = engine.run();
    ASSERT_GT(rep.faults.crashes, 0u);
    EXPECT_GT(rep.faults.totalDowntimeSec, 0.0);

    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_successes = 0;
    std::uint64_t permanent = 0;
    for (const serving::Request &r : engine.requests()) {
        EXPECT_TRUE(r.state == serving::RequestState::Completed ||
                    r.state == serving::RequestState::Rejected)
            << "request " << r.id << " not terminal: "
            << toString(r.state);
        if (r.state == serving::RequestState::Completed) {
            ++completed;
            if (r.faultRetries > 0)
                ++retry_successes;
            EXPECT_FALSE(r.faultFailed);
        } else {
            ++rejected;
        }
        if (r.faultFailed) {
            ++permanent;
            EXPECT_EQ(r.state, serving::RequestState::Rejected);
            // A permanent failure means the budget was exhausted.
            EXPECT_EQ(r.faultRetries, 3u);
        }
        retries += r.faultRetries;
        EXPECT_LE(r.faultRetries, 3u);
    }
    EXPECT_EQ(completed, rep.aggregate.summary.completed);
    EXPECT_EQ(rejected, rep.aggregate.summary.rejected);
    EXPECT_EQ(completed + rejected, engine.requests().size());
    EXPECT_EQ(retries, rep.faults.retries);
    EXPECT_EQ(retry_successes, rep.faults.retrySuccesses);
    EXPECT_EQ(permanent, rep.faults.permanentFailures);

    // Crash evictions drop resident KV: lost work is visible whenever
    // a decode-phase victim existed.
    std::uint64_t lost = 0;
    for (const serving::Request &r : engine.requests())
        lost += r.lostTokens;
    EXPECT_EQ(lost, rep.faults.lostTokens);

    // Per-device crash counts sum to the fleet total.
    std::uint64_t dev_crashes = 0;
    double dev_down = 0.0;
    for (const auto &d : rep.faults.devices) {
        dev_crashes += d.crashes;
        dev_down += d.downtimeSec;
    }
    EXPECT_EQ(dev_crashes, rep.faults.crashes);
    EXPECT_DOUBLE_EQ(dev_down, rep.faults.totalDowntimeSec);
}

TEST(FaultCrash, RetryBudgetRespected)
{
    cluster::ClusterConfig cfg = crashyCluster();
    cfg.faults.maxRetries = 1;
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport rep = engine.run();
    ASSERT_GT(rep.faults.crashes, 0u);
    for (const serving::Request &r : engine.requests()) {
        EXPECT_LE(r.faultRetries, 1u);
        if (r.faultFailed) {
            EXPECT_EQ(r.faultRetries, 1u);
        }
    }
}

TEST(FaultCrash, DownDevicesHoldNoKv)
{
    // Any device that ends the run crashed must have released every
    // grant (crashAt drops the full resident set).
    for (std::uint64_t seed : {1u, 9u, 42u, 77u}) {
        const FaultRun run =
            runFaultCell(crashyCluster(seed), 1, true);
        for (std::size_t i = 0; i < run.crashed.size(); ++i) {
            if (run.crashed[i]) {
                EXPECT_EQ(run.allocatorInUseBytes[i], 0.0)
                    << "seed " << seed << " dev" << i;
            }
        }
    }
}

// ---- FaultTrace ---------------------------------------------------------

TEST(FaultTrace, ReaderParsesFaultTaxonomyAndMissCause)
{
    const FaultRun run = runFaultCell(crashyCluster(), 1, true);
    obs::TraceReader reader;
    ASSERT_TRUE(reader.parse(run.traceJson));
    EXPECT_EQ(reader.stats().unknown, 0u);
    EXPECT_EQ(reader.stats().malformed, 0u);
    EXPECT_EQ(reader.stats().batchMismatches, 0u);
    EXPECT_GT(reader.deviceFaults, 0u);
    EXPECT_GT(reader.deviceRecovers, 0u);
    EXPECT_EQ(reader.faultFailures,
              static_cast<std::size_t>(
                  run.report.faults.permanentFailures));

    // The replayed lifecycles agree with the engine's outcome counts,
    // and fault-failed requests classify as device_fault.
    const obs::AttributionReport rep = reader.report();
    EXPECT_EQ(rep.completed, run.report.aggregate.summary.completed);
    EXPECT_EQ(rep.rejected, run.report.aggregate.summary.rejected);
    if (run.report.faults.permanentFailures > 0) {
        EXPECT_GE(rep.missCounts[static_cast<std::size_t>(
                      obs::MissCause::DeviceFault)],
                  1u);
        std::size_t faulted = 0;
        for (const obs::WaterfallEntry &e : reader.waterfall().entries())
            if (e.faulted)
                ++faulted;
        EXPECT_GT(faulted, 0u);
    }

    // Preempting crash runs where a resumed request is preempted again
    // at the instant of its first token: the replay must take the pair
    // in emission order and leave no phantom batch member.
    for (std::uint64_t seed : {16u, 20u, 37u}) {
        cluster::ClusterConfig cfg = crashyCluster(seed);
        cfg.engine.preempt.enabled = true;
        cfg.engine.traffic.slo.tpotSec = 2e-5;
        const FaultRun pre = runFaultCell(cfg, 1, true);
        obs::TraceReader r;
        ASSERT_TRUE(r.parse(pre.traceJson)) << "seed " << seed;
        EXPECT_GT(pre.report.aggregate.summary.preemptions, 0u)
            << "seed " << seed;
        EXPECT_EQ(r.stats().batchMismatches, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace kelle
