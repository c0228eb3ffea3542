/**
 * @file
 * The SLO root-cause attribution layer's contracts (obs/attribution,
 * obs/trace_reader):
 *
 *  - AttributionMath: a decode step's fair share and interference
 *    split it exactly, and `classifyMiss` implements the bucket
 *    mapping and tie-break order the docs promise.
 *  - WaterfallInvariants: for EVERY terminal request across policy x
 *    chunking x paged x dispatch x preempt sweeps and crash-fault runs,
 *    the first four components sum in ticks exactly to the measured
 *    TTFT and all eight to the measured E2E; no component is
 *    negative; rejects are pure queue wait; report roll-ups agree with
 *    the per-entry table.
 *  - AttributionDeterminism: the full waterfall table (every stamp,
 *    component and cause) is bit-identical across ClusterConfig::
 *    threads {1, 2, 4}, and across fastSim on/off over every config
 *    the WaterfallInvariants sweeps run; the trace recorded with
 *    attribution on keeps the same byte-identity.
 *  - TraceReaderRoundTrip: every trace the engines emit parses with
 *    zero unknown/malformed events and zero batch mismatches (the
 *    C++ replacement for the CI jq checks); the offline replay gives
 *    every online terminal request an entry with the same flags, miss
 *    cause and tick-exact components, crash-fault runs included;
 *    corrupted and hostile documents (hostile timestamps too) end in
 *    a tally, never a crash, an overflow or a huge allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "fault_fixtures.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

using namespace kelle;

namespace {

/** A single-device session: a 1-device round-robin cluster of the
 *  edge_server device (6144-token pool, batch cap 8). */
cluster::ClusterConfig
oneDevice(const serving::ServingConfig &cfg)
{
    cluster::ClusterConfig c;
    c.engine = cfg;
    c.devices = cluster::homogeneousFleet(
        1, accel::kelleEdramSystem(2048), 6144, 8);
    return c;
}

// ---- AttributionMath -----------------------------------------------

TEST(AttributionMath, DecodeSharesSplitEveryStepExactly)
{
    // A step of `step` ticks shared by `batch` members charges
    // step / batch (integer division) to decode_compute and the rest
    // to batch_interference, so the pair always sums to the steps.
    obs::LatencyWaterfall wf;
    wf.beginRun(1);
    std::int64_t steps = 0;
    for (std::int64_t step : {10, 7, 1, 0, 999999937}) {
        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{16}}) {
            wf.onDecodeBoundary(0, sim::SimTime::nanos(step), batch);
            steps += step;
        }
    }
    const obs::WaterfallEntry &e = wf.entries()[0];
    EXPECT_EQ(e.components[4] + e.components[5], steps);
    // 10 ns over 3 members: 3 fair, 7 interference.
    obs::LatencyWaterfall one;
    one.onDecodeBoundary(0, sim::SimTime::nanos(10), 3);
    EXPECT_EQ(one.entries()[0].components[4], 3);
    EXPECT_EQ(one.entries()[0].components[5], 7);
}

TEST(AttributionMath, ClassifyMissBucketsAndTieBreaks)
{
    using obs::MissCause;
    std::int64_t c[obs::kLatencyComponentCount] = {};
    // Rejected wins over everything.
    c[0] = 100;
    EXPECT_EQ(obs::classifyMiss(true, true, true, c),
              MissCause::OverloadReject);
    // No miss -> None even with big components.
    EXPECT_EQ(obs::classifyMiss(false, false, false, c),
              MissCause::None);

    const auto only = [&](std::size_t i, std::int64_t v) {
        std::memset(c, 0, sizeof c);
        c[i] = v;
    };
    // TTFT miss: queue_wait -> Queue, kv_stall -> KvPressure,
    // chunk_interleave -> Interference, prefill_compute -> Compute.
    only(0, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, true, false, c),
              MissCause::Queue);
    only(1, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, true, false, c),
              MissCause::KvPressure);
    only(3, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, true, false, c),
              MissCause::Interference);
    only(2, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, true, false, c),
              MissCause::Compute);
    // TPOT miss: preempt_loss -> Preempt, decode_compute -> Compute,
    // batch_interference + decode_stall -> Interference.
    only(6, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, false, true, c),
              MissCause::Preempt);
    only(4, 5.0);
    EXPECT_EQ(obs::classifyMiss(false, false, true, c),
              MissCause::Compute);
    std::memset(c, 0, sizeof c);
    c[5] = 20;
    c[7] = 20;
    c[6] = 39; // loses to 20 + 20 interference
    EXPECT_EQ(obs::classifyMiss(false, false, true, c),
              MissCause::Interference);
    // A TPOT-only miss must not be blamed on pre-first-token time.
    std::memset(c, 0, sizeof c);
    c[0] = 100; // enormous queue wait, but TTFT was met
    c[4] = 1;
    EXPECT_EQ(obs::classifyMiss(false, false, true, c),
              MissCause::Compute);
    // Exact tie -> earliest in (queue, kv, interference, preempt,
    // compute) order.
    std::memset(c, 0, sizeof c);
    c[0] = 2;
    c[1] = 2;
    EXPECT_EQ(obs::classifyMiss(false, true, false, c),
              MissCause::Queue);
}

// ---- Shared run helpers --------------------------------------------

/** Single-device serving run with attribution attached; the small
 *  pool forces deferrals so c2 is exercised. */
serving::ServingReport
runServing(obs::LatencyWaterfall &wf, serving::SchedulePolicy policy,
           std::size_t chunk_tokens, bool paged, std::size_t sessions,
           bool fast_sim = true)
{
    serving::ServingConfig cfg;
    cfg.traffic.ratePerSec = 0.05;
    cfg.traffic.numRequests = 16;
    cfg.traffic.seed = 42;
    cfg.traffic.sessions = sessions;
    cfg.policy = policy;
    cfg.chunkTokens = chunk_tokens;
    cfg.paged.enabled = paged;
    cfg.fastSim = fast_sim;
    cfg.waterfall = &wf;
    return cluster::ClusterEngine(oneDevice(cfg)).run().aggregate;
}

/** 2-device hetero cluster run with attribution attached. The
 *  preempt variant mirrors the bench preemption study: a TPOT target
 *  near the achievable mean plus quartered KV pools, so decodes
 *  actually become doomed and reclamation fires. */
cluster::ClusterReport
runCluster(obs::LatencyWaterfall &wf, cluster::DispatchKind dispatch,
           bool preempt, std::size_t threads, bool fast_sim,
           obs::TraceRecorder *rec = nullptr)
{
    cluster::ClusterConfig cfg;
    cfg.engine.traffic.ratePerSec = preempt ? 0.08 : 0.05;
    cfg.engine.traffic.numRequests = 14;
    cfg.engine.traffic.seed = 42;
    cfg.engine.fastSim = fast_sim;
    cfg.engine.preempt.enabled = preempt;
    cfg.engine.waterfall = &wf;
    cfg.engine.trace = rec;
    cfg.dispatch = dispatch;
    cfg.devices = cluster::heteroEdramSramFleet(2, 2048, 8192, 4096, 8);
    if (preempt) {
        cfg.engine.traffic.slo.tpotSec = 0.15;
        for (auto &d : cfg.devices)
            d.poolTokens = std::max<std::size_t>(1, d.poolTokens / 4);
    }
    cfg.threads = threads;
    cluster::ClusterEngine engine(cfg);
    return engine.run();
}

/** The 2-device crash-only fault run with attribution attached. The
 *  preempt variant's TPOT target dooms decodes, so crash-evicted
 *  requests are preempted too and the two losses compose. */
cluster::ClusterReport
runCrashy(obs::LatencyWaterfall &wf, std::uint64_t seed, bool preempt,
          obs::TraceRecorder *rec = nullptr, bool fast_sim = true)
{
    cluster::ClusterConfig cfg = crashyCluster(seed);
    cfg.engine.fastSim = fast_sim;
    cfg.engine.preempt.enabled = preempt;
    if (preempt)
        cfg.engine.traffic.slo.tpotSec = 2e-5;
    cfg.engine.waterfall = &wf;
    cfg.engine.trace = rec;
    cluster::ClusterEngine engine(cfg);
    return engine.run();
}

/** The tick-exact sum identities plus structural sanity, per entry. */
void
checkEntries(const obs::LatencyWaterfall &wf, const char *what)
{
    std::size_t terminal = 0;
    for (const obs::WaterfallEntry &e : wf.entries()) {
        if (!e.terminal)
            continue;
        ++terminal;
        const std::int64_t *c = e.components;
        EXPECT_EQ(c[0] + c[1] + c[2] + c[3], e.ttftNs)
            << what << " req " << e.reqId;
        EXPECT_EQ(c[0] + c[1] + c[2] + c[3] + c[4] + c[5] + c[6] + c[7],
                  e.e2eNs)
            << what << " req " << e.reqId;
        EXPECT_EQ(e.ttftNs, e.rejected
                                ? (e.finished - e.arrival).ns()
                                : (e.firstToken - e.arrival).ns())
            << what << " req " << e.reqId;
        EXPECT_EQ(e.e2eNs, (e.finished - e.arrival).ns())
            << what << " req " << e.reqId;
        for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i)
            EXPECT_GE(c[i], 0)
                << what << " req " << e.reqId << " "
                << obs::toString(static_cast<obs::LatencyComponent>(i));
        if (e.rejected) {
            EXPECT_EQ(e.cause, e.faulted ? obs::MissCause::DeviceFault
                                         : obs::MissCause::OverloadReject);
            for (std::size_t i = 1; i < obs::kLatencyComponentCount;
                 ++i)
                EXPECT_EQ(c[i], 0) << what << " req " << e.reqId;
        } else {
            EXPECT_GE(e.e2eNs, e.ttftNs) << what << " req " << e.reqId;
            EXPECT_EQ(e.cause == obs::MissCause::None,
                      !e.missedTtft && !e.missedTpot)
                << what << " req " << e.reqId;
        }
        if (!e.deferred) {
            EXPECT_EQ(c[1], 0);
        }
        if (!e.preempted) {
            EXPECT_EQ(c[6], 0);
        }
    }
    EXPECT_GT(terminal, 0u) << what;
}

/** Report roll-up must agree with an index-order re-accumulation. */
void
checkReportAgainstEntries(const obs::LatencyWaterfall &wf,
                          const obs::AttributionReport &rep)
{
    obs::AttributionReport want;
    std::int64_t totals[obs::kLatencyComponentCount] = {};
    std::size_t misses = 0;
    for (const obs::WaterfallEntry &e : wf.entries()) {
        if (!e.terminal)
            continue;
        ++want.terminal;
        for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i)
            totals[i] += e.components[i];
        ++want.missCounts[static_cast<std::size_t>(e.cause)];
        if (e.cause != obs::MissCause::None)
            ++misses;
    }
    EXPECT_EQ(rep.terminal, want.terminal);
    EXPECT_EQ(rep.misses, misses);
    EXPECT_EQ(rep.completed + rep.rejected, rep.terminal);
    for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i)
        EXPECT_EQ(rep.componentTotals[i],
                  sim::SimTime::nanos(totals[i]).sec());
    for (std::size_t i = 0; i < obs::kMissCauseCount; ++i)
        EXPECT_EQ(rep.missCounts[i], want.missCounts[i]);
    // Per-device slices partition the aggregate exactly.
    std::size_t dev_terminal = 0;
    for (const auto &d : rep.devices)
        dev_terminal += d.terminal;
    EXPECT_EQ(dev_terminal, rep.terminal);
}

// ---- WaterfallInvariants -------------------------------------------

TEST(WaterfallInvariants, EveryPolicySumsBitwise)
{
    for (serving::SchedulePolicy policy :
         serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{256}}) {
            obs::LatencyWaterfall wf;
            const serving::ServingReport rep =
                runServing(wf, policy, chunk, false, 0);
            const std::string what = toString(policy) + "/chunk" +
                                     std::to_string(chunk);
            checkEntries(wf, what.c_str());
            checkReportAgainstEntries(wf, rep.attribution);
        }
    }
}

TEST(WaterfallInvariants, PagedSessionsSumBitwise)
{
    obs::LatencyWaterfall wf;
    const serving::ServingReport rep = runServing(
        wf, serving::SchedulePolicy::ContinuousBatching, 0, true, 4);
    checkEntries(wf, "paged+sessions");
    checkReportAgainstEntries(wf, rep.attribution);
    EXPECT_TRUE(rep.paged.enabled);
}

TEST(WaterfallInvariants, ClusterDispatchAndPreemptSumBitwise)
{
    for (cluster::DispatchKind dispatch :
         {cluster::DispatchKind::RoundRobin,
          cluster::DispatchKind::JoinShortestKv,
          cluster::DispatchKind::DeadlineAware}) {
        for (bool preempt : {false, true}) {
            obs::LatencyWaterfall wf;
            const cluster::ClusterReport rep =
                runCluster(wf, dispatch, preempt, 1, true);
            const std::string what =
                toString(dispatch) + (preempt ? "/preempt" : "");
            checkEntries(wf, what.c_str());
            checkReportAgainstEntries(
                wf, rep.aggregate.attribution);
        }
    }
}

TEST(WaterfallInvariants, CrashFaultRunsSumBitwiseAndStayNonNegative)
{
    // Crash evictions and doom preemptions compose here: a request can
    // lose its KV more than once after its first token, and c7 must
    // absorb every lost life without pushing decode_stall below zero.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (bool preempt : {false, true}) {
            obs::LatencyWaterfall wf;
            const cluster::ClusterReport rep =
                runCrashy(wf, seed, preempt);
            const std::string what = "seed " + std::to_string(seed) +
                                     (preempt ? "/preempt" : "");
            checkEntries(wf, what.c_str());
            checkReportAgainstEntries(wf, rep.aggregate.attribution);
        }
    }
}

TEST(WaterfallInvariants, PreemptedVictimChargesPreemptLoss)
{
    // The preempt config really preempts (otherwise the sweep above
    // never exercises c7): at least one terminal entry must carry a
    // positive preempt_loss that still folds exactly. RoundRobin is
    // the dispatch that actually overloads a device at this rate
    // (JoinShortestKv balances its way out of preempting).
    obs::LatencyWaterfall wf;
    const cluster::ClusterReport rep = runCluster(
        wf, cluster::DispatchKind::RoundRobin, true, 1, true);
    EXPECT_GT(rep.aggregate.summary.preemptions, 0u);
    bool saw_preempted = false;
    for (const obs::WaterfallEntry &e : wf.entries()) {
        if (!e.terminal || !e.preempted || e.rejected)
            continue;
        saw_preempted = true;
        EXPECT_GT(e.components[6], 0);
    }
    EXPECT_TRUE(saw_preempted);
}

TEST(WaterfallInvariants, DeferralsChargeKvStall)
{
    // The tight pool defers admissions; every deferred completion
    // charges a positive kv_stall.
    obs::LatencyWaterfall wf;
    const serving::ServingReport rep = runServing(
        wf, serving::SchedulePolicy::ContinuousBatching, 0, false, 0);
    EXPECT_GT(rep.deferrals, 0u);
    bool saw_stall = false;
    for (const obs::WaterfallEntry &e : wf.entries()) {
        if (e.terminal && e.deferred && !e.rejected) {
            EXPECT_GE(e.components[1], 0);
            saw_stall = saw_stall || e.components[1] > 0;
        }
    }
    EXPECT_TRUE(saw_stall);
}

// ---- AttributionDeterminism ----------------------------------------

/** Every stamp/component/cause of every terminal entry, in ticks. */
std::string
dumpEntries(const obs::LatencyWaterfall &wf)
{
    std::string out;
    char buf[512];
    for (const obs::WaterfallEntry &e : wf.entries()) {
        std::snprintf(
            buf, sizeof buf,
            "req %llu dev %u t%d r%d d%d p%d mt%d mp%d cause %s "
            "ttft %lld e2e %lld |",
            static_cast<unsigned long long>(e.reqId), e.device,
            e.terminal, e.rejected, e.deferred, e.preempted,
            e.missedTtft, e.missedTpot, obs::toString(e.cause),
            static_cast<long long>(e.ttftNs),
            static_cast<long long>(e.e2eNs));
        out += buf;
        for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i) {
            std::snprintf(buf, sizeof buf, " %lld",
                          static_cast<long long>(e.components[i]));
            out += buf;
        }
        out += '\n';
    }
    return out;
}

TEST(AttributionDeterminism, WaterfallBitIdenticalAcrossThreads)
{
    obs::LatencyWaterfall serial;
    runCluster(serial, cluster::DispatchKind::RoundRobin, true, 1,
               true);
    const std::string want = dumpEntries(serial);
    EXPECT_FALSE(want.empty());
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        obs::LatencyWaterfall wf;
        runCluster(wf, cluster::DispatchKind::RoundRobin, true,
                   threads, true);
        EXPECT_EQ(dumpEntries(wf), want) << threads << " threads";
    }
}

TEST(AttributionDeterminism, WaterfallBitIdenticalAcrossFastSim)
{
    // Every config the WaterfallInvariants sweeps run: the fast-forward
    // window charges each member's decode shares at its syncs and at
    // its end, and must land on the step-at-a-time oracle's ticks.
    const auto expect_equal = [](const auto &run, const std::string &what) {
        obs::LatencyWaterfall fast;
        run(fast, true);
        obs::LatencyWaterfall slow;
        run(slow, false);
        const std::string want = dumpEntries(slow);
        EXPECT_FALSE(want.empty()) << what;
        EXPECT_EQ(dumpEntries(fast), want) << what;
    };
    for (serving::SchedulePolicy policy :
         serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{256}}) {
            expect_equal(
                [&](obs::LatencyWaterfall &wf, bool fast_sim) {
                    runServing(wf, policy, chunk, false, 0, fast_sim);
                },
                toString(policy) + "/chunk" + std::to_string(chunk));
        }
    }
    expect_equal(
        [](obs::LatencyWaterfall &wf, bool fast_sim) {
            runServing(wf, serving::SchedulePolicy::ContinuousBatching,
                       0, true, 4, fast_sim);
        },
        "paged+sessions");
    for (cluster::DispatchKind dispatch :
         {cluster::DispatchKind::RoundRobin,
          cluster::DispatchKind::JoinShortestKv,
          cluster::DispatchKind::DeadlineAware}) {
        for (bool preempt : {false, true}) {
            expect_equal(
                [&](obs::LatencyWaterfall &wf, bool fast_sim) {
                    runCluster(wf, dispatch, preempt, 1, fast_sim);
                },
                toString(dispatch) + (preempt ? "/preempt" : ""));
        }
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (bool preempt : {false, true}) {
            expect_equal(
                [&](obs::LatencyWaterfall &wf, bool fast_sim) {
                    runCrashy(wf, seed, preempt, nullptr, fast_sim);
                },
                "crash seed " + std::to_string(seed) +
                    (preempt ? "/preempt" : ""));
        }
    }
}

TEST(AttributionDeterminism, TracedRunStaysByteIdentical)
{
    // Attribution adds slo instants to the trace; the enriched trace
    // must ride the same byte-identity contract as the bare one.
    obs::TraceRecorder serial_rec;
    obs::LatencyWaterfall serial_wf;
    runCluster(serial_wf, cluster::DispatchKind::RoundRobin, true,
               1, true, &serial_rec);
    const std::string want = serial_rec.toJson();
    EXPECT_NE(want.find("\"slo\""), std::string::npos);
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        obs::TraceRecorder rec;
        obs::LatencyWaterfall wf;
        runCluster(wf, cluster::DispatchKind::RoundRobin, true,
                   threads, true, &rec);
        EXPECT_EQ(rec.toJson(), want) << threads << " threads";
    }
    obs::TraceRecorder slow_rec;
    obs::LatencyWaterfall slow_wf;
    runCluster(slow_wf, cluster::DispatchKind::RoundRobin, true, 1,
               false, &slow_rec);
    EXPECT_EQ(slow_rec.toJson(), want) << "fastSim off";
}

// ---- TraceReaderRoundTrip ------------------------------------------

void
expectCleanParse(const std::string &json, const char *what)
{
    obs::TraceReader reader;
    ASSERT_TRUE(reader.parse(json)) << what;
    EXPECT_GT(reader.stats().events, 0u) << what;
    EXPECT_EQ(reader.stats().unknown, 0u) << what;
    EXPECT_EQ(reader.stats().malformed, 0u) << what;
    EXPECT_EQ(reader.stats().batchMismatches, 0u) << what;
}

TEST(TraceReaderRoundTrip, EveryRecordedTraceParsesClean)
{
    // Cluster with preemption + attribution (slo instants included).
    {
        obs::TraceRecorder rec;
        obs::LatencyWaterfall wf;
        runCluster(wf, cluster::DispatchKind::RoundRobin, true, 1,
                   true, &rec);
        expectCleanParse(rec.toJson(), "cluster preempt");
    }
    // Chunked single-device serving (prefill slices interleave).
    {
        serving::ServingConfig cfg;
        cfg.traffic.ratePerSec = 0.05;
        cfg.traffic.numRequests = 16;
        cfg.traffic.seed = 42;
        cfg.policy = serving::SchedulePolicy::EdfChunked;
        cfg.chunkTokens = 256;
        obs::TraceRecorder rec;
        obs::LatencyWaterfall wf;
        cfg.trace = &rec;
        cfg.waterfall = &wf;
        cluster::ClusterEngine engine(oneDevice(cfg));
        engine.run();
        expectCleanParse(rec.toJson(), "edf-chunked");
    }
    // Paged + sessions (paged counter tracks in the stream).
    {
        serving::ServingConfig cfg;
        cfg.traffic.ratePerSec = 0.05;
        cfg.traffic.numRequests = 16;
        cfg.traffic.seed = 42;
        cfg.traffic.sessions = 4;
        cfg.paged.enabled = true;
        obs::TraceRecorder rec;
        cfg.trace = &rec;
        cluster::ClusterEngine engine(oneDevice(cfg));
        engine.run();
        expectCleanParse(rec.toJson(), "paged sessions");
    }
}

/** Replay `json` offline: every online terminal request must get an
 *  entry with the same flags, cause, stamps and components. */
void
expectOfflineMatchesOnline(const obs::LatencyWaterfall &online,
                           const std::string &json,
                           const std::string &what)
{
    obs::TraceReader reader;
    ASSERT_TRUE(reader.parse(json)) << what;
    EXPECT_EQ(reader.stats().unknown, 0u) << what;
    EXPECT_EQ(reader.stats().malformed, 0u) << what;
    EXPECT_EQ(reader.stats().batchMismatches, 0u) << what;
    std::map<std::uint64_t, const obs::WaterfallEntry *> offline;
    for (const obs::WaterfallEntry &e : reader.waterfall().entries())
        if (e.terminal)
            offline[e.reqId] = &e;
    std::size_t terminal = 0;
    for (const obs::WaterfallEntry &e : online.entries()) {
        if (!e.terminal)
            continue;
        ++terminal;
        const std::string at = what + " req " + std::to_string(e.reqId);
        const auto it = offline.find(e.reqId);
        ASSERT_NE(it, offline.end()) << at;
        const obs::WaterfallEntry &o = *it->second;
        EXPECT_EQ(o.rejected, e.rejected) << at;
        EXPECT_EQ(o.deferred, e.deferred) << at;
        EXPECT_EQ(o.preempted, e.preempted) << at;
        EXPECT_EQ(o.faulted, e.faulted) << at;
        EXPECT_EQ(o.cause, e.cause) << at;
        EXPECT_EQ(o.arrival, e.arrival) << at;
        EXPECT_EQ(o.finished, e.finished) << at;
        EXPECT_EQ(o.ttftNs, e.ttftNs) << at;
        EXPECT_EQ(o.e2eNs, e.e2eNs) << at;
        for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i)
            EXPECT_EQ(o.components[i], e.components[i])
                << at << " "
                << obs::toString(static_cast<obs::LatencyComponent>(i));
    }
    EXPECT_EQ(offline.size(), terminal) << what;
}

TEST(TraceReaderRoundTrip, OfflineWaterfallsMatchOnline)
{
    {
        obs::TraceRecorder rec;
        obs::LatencyWaterfall wf;
        runCluster(wf, cluster::DispatchKind::RoundRobin, true, 1, true,
                   &rec);
        expectOfflineMatchesOnline(wf, rec.toJson(), "cluster preempt");
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (bool preempt : {false, true}) {
            obs::TraceRecorder rec;
            obs::LatencyWaterfall wf;
            runCrashy(wf, seed, preempt, &rec);
            expectOfflineMatchesOnline(
                wf, rec.toJson(),
                "crashy seed " + std::to_string(seed) +
                    (preempt ? "/preempt" : ""));
        }
    }
}

TEST(TraceReaderRoundTrip, CorruptionIsDetected)
{
    obs::TraceRecorder rec;
    obs::LatencyWaterfall wf;
    runCluster(wf, cluster::DispatchKind::JoinShortestKv, false, 1,
               true, &rec);
    const std::string json = rec.toJson();

    // A mangled event line is malformed, not silently dropped.
    std::string broken = json;
    const std::size_t ev = broken.find("\"ph\":");
    ASSERT_NE(ev, std::string::npos);
    broken[ev] = '#';
    obs::TraceReader reader;
    ASSERT_TRUE(reader.parse(broken));
    EXPECT_GT(reader.stats().malformed, 0u);

    // An off-taxonomy (name, ph) pair counts as unknown.
    std::string renamed = json;
    const std::size_t admit = renamed.find("\"admit\"");
    ASSERT_NE(admit, std::string::npos);
    renamed.replace(admit, 7, "\"zdmit\"");
    obs::TraceReader reader2;
    ASSERT_TRUE(reader2.parse(renamed));
    EXPECT_GT(reader2.stats().unknown, 0u);

    // A document without the trace header fails the parse outright.
    obs::TraceReader reader3;
    EXPECT_FALSE(reader3.parse("{\"not\":\"a trace\"}\n"));
}

TEST(TraceReaderRoundTrip, HostileEventsEndInATally)
{
    obs::LatencyWaterfall wf;
    obs::TraceRecorder rec;
    runCrashy(wf, 42, true, &rec);
    const std::string json = rec.toJson();
    obs::TraceReader clean;
    ASSERT_TRUE(clean.parse(json));
    ASSERT_EQ(clean.stats().unknown, 0u);
    ASSERT_EQ(clean.stats().batchMismatches, 0u);
    const std::size_t requests = clean.waterfall().entries().size();

    // Event lines spliced in right after the line holding `anchor`.
    const auto splice = [&json](const std::string &anchor,
                                const std::string &lines) {
        const std::size_t at = json.find(anchor);
        EXPECT_NE(at, std::string::npos) << anchor;
        const std::size_t eol = json.find('\n', at);
        return json.substr(0, eol + 1) + lines + json.substr(eol + 1);
    };
    const auto replay = [](const std::string &doc,
                           obs::TraceReader &reader) {
        ASSERT_TRUE(reader.parse(doc));
        // The roll-up and the tool's lookups stay in bounds.
        const obs::AttributionReport rep = reader.report();
        EXPECT_GE(rep.devices.size(), reader.devices().size());
        EXPECT_EQ(reader.tasks().size(),
                  reader.waterfall().entries().size());
    };

    // A request id of 2^60 is one more dense entry, not a 2^60 table.
    {
        obs::TraceReader reader;
        replay(splice("\"ph\":\"b\"",
                      "{\"name\":\"x\",\"cat\":\"request\",\"ph\":\"b\","
                      "\"id\":1152921504606846976,\"pid\":0,\"tid\":0,"
                      "\"ts\":1.000},\n"
                      "{\"name\":\"x\",\"cat\":\"request\",\"ph\":\"e\","
                      "\"id\":1152921504606846976,\"pid\":0,\"tid\":0,"
                      "\"ts\":2.000,\"args\":{\"tokens\":1}},\n"),
               reader);
        EXPECT_EQ(reader.stats().unknown, 0u);
        EXPECT_EQ(reader.waterfall().entries().size(), requests + 1);
    }
    // A first_token and a span end for a request that never arrived.
    {
        obs::TraceReader reader;
        replay(splice("\"name\":\"first_token\"",
                      "{\"name\":\"first_token\",\"ph\":\"i\",\"s\":\"t\","
                      "\"pid\":1,\"tid\":0,\"ts\":1.000,"
                      "\"args\":{\"req\":1152921504606846976}},\n"
                      "{\"name\":\"x\",\"cat\":\"request\",\"ph\":\"e\","
                      "\"id\":999999,\"pid\":0,\"tid\":0,"
                      "\"ts\":2.000,\"args\":{\"tokens\":1}},\n"),
               reader);
        EXPECT_EQ(reader.stats().unknown, 2u);
        EXPECT_EQ(reader.waterfall().entries().size(), requests);
    }
    // A pid no process_name declared is unknown, not a table size; a
    // pid beyond int or a non-finite number is malformed.
    {
        obs::TraceReader reader;
        replay(splice("\"name\":\"first_token\"",
                      "{\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\","
                      "\"pid\":2147483647,\"tid\":0,\"ts\":1.000,"
                      "\"args\":{\"req\":0}},\n"
                      "{\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\","
                      "\"pid\":1e300,\"tid\":0,\"ts\":1.000,"
                      "\"args\":{\"req\":0}},\n"
                      "{\"name\":\"decode\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":0,\"ts\":nan,\"dur\":1.000,"
                      "\"args\":{\"batch\":1}},\n"),
               reader);
        EXPECT_EQ(reader.stats().unknown, 1u);
        EXPECT_EQ(reader.stats().malformed, 2u);
        EXPECT_EQ(reader.devices().size(), clean.devices().size());
    }
    // A decode slice with batch 0, right behind a real slice so the
    // batch it claims is wrong.
    {
        const std::size_t slice = json.find("\"name\":\"decode\"");
        ASSERT_NE(slice, std::string::npos);
        const std::size_t bol = json.rfind('\n', slice) + 1;
        const std::string line =
            json.substr(bol, json.find('\n', slice) - bol);
        const std::string ts =
            line.substr(line.find("\"ts\":"),
                        line.find(",\"dur\"") - line.find("\"ts\":"));
        const std::string pid =
            line.substr(line.find("\"pid\":"),
                        line.find(",\"tid\"") - line.find("\"pid\":"));
        obs::TraceReader reader;
        replay(splice(line,
                      "{\"name\":\"decode\",\"ph\":\"X\"," + pid +
                          ",\"tid\":0," + ts +
                          ",\"dur\":0.000,\"args\":{\"batch\":0}},\n"),
               reader);
        EXPECT_EQ(reader.stats().batchMismatches, 1u);
        EXPECT_EQ(reader.stats().malformed, 0u);

        // Hostile timestamps: a ts or dur that is negative,
        // non-finite, in exponent form, finer than a tick or beyond
        // the int64-ns range is malformed, never wrapped.
        const char *bad[] = {
            "\"ts\":-1.000,\"dur\":1.000",
            "\"ts\":1.000,\"dur\":-3.000",
            "\"ts\":inf,\"dur\":1.000",
            "\"ts\":1.000,\"dur\":nan",
            "\"ts\":1e300,\"dur\":1.000",
            "\"ts\":1.0005,\"dur\":1.000",
            "\"ts\":9223372036854775.808,\"dur\":1.000",
            "\"ts\":1.000,\"dur\":99999999999999999999.000",
        };
        std::string lines;
        for (const char *field : bad)
            lines += "{\"name\":\"decode\",\"ph\":\"X\"," + pid +
                     ",\"tid\":0," + field +
                     ",\"args\":{\"batch\":1}},\n";
        obs::TraceReader hostile;
        replay(splice(line, lines), hostile);
        EXPECT_EQ(hostile.stats().malformed, std::size(bad));

        // The largest in-range duration parses; two of them charged
        // to the same batch saturate the sums instead of overflowing.
        const std::size_t dur_at = line.find("\"dur\":");
        const std::string huge =
            line.substr(0, dur_at) + "\"dur\":9223372036854775.807" +
            line.substr(line.find(',', dur_at)) + "\n";
        obs::TraceReader saturated;
        replay(splice(line, huge + huge), saturated);
        EXPECT_EQ(saturated.stats().malformed, 0u);
        EXPECT_EQ(saturated.stats().batchMismatches, 0u);
        bool clamped = false;
        for (const obs::WaterfallEntry &e : saturated.waterfall().entries())
            clamped = clamped || e.components[4] == INT64_MAX ||
                      e.components[5] == INT64_MAX;
        EXPECT_TRUE(clamped);
    }
    // A line cut mid-object is malformed; a document cut mid-object
    // loses its footer and fails the parse.
    {
        const std::size_t admit = json.find("\"name\":\"admit\"");
        ASSERT_NE(admit, std::string::npos);
        const std::size_t eol = json.find('\n', admit);
        obs::TraceReader reader;
        replay(json.substr(0, admit + 10) + json.substr(eol), reader);
        EXPECT_EQ(reader.stats().malformed, 1u);
        obs::TraceReader cut;
        EXPECT_FALSE(cut.parse(json.substr(0, admit + 10)));
    }
}

} // namespace
