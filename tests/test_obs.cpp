/**
 * @file
 * The observability layer's contracts (src/obs):
 *
 *  - TraceDeterminism: the exported Chrome trace-event JSON is
 *    byte-identical across ClusterConfig::threads = {1, 2, 4} and
 *    fastSim on/off on the same seed — the trace rides the same
 *    bit-reproducibility guarantee as the simulation outputs, down to
 *    the order of the defer events a fast-forward window replays
 *    while a time-dependent admission order changes.
 *  - TraceInvariants: structural properties of any recorded trace —
 *    per-track monotone non-decreasing sim time, every request span
 *    opens before it closes (arrival precedes completion/rejection),
 *    and slices carry non-negative durations.
 *  - DisabledRecorder: a null trace/profiler hook costs nothing — the
 *    engine's steady-state decode loop stays allocation-free (global
 *    operator-new counter, same technique as test_simcore) and the
 *    run's report is bit-identical with recording on or off.
 *  - MetricsRoundTrip: `toCsv` -> `parseCsv` reproduces the sampled
 *    table exactly (%.17g survives the double round-trip), and the
 *    last-value-hold resampling semantics are pinned.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

using namespace kelle;

// ---- global allocation counter (DisabledRecorder suite) ------------
// Counts every scalar/array non-aligned heap allocation in the
// process; only the allocation-free test reads the deltas.

namespace {
std::atomic<std::uint64_t> g_heapAllocs{0};
}

// GCC cannot see that these replacements pair malloc with free
// consistently across new/delete; the heuristic warning is spurious.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

/** A small hetero cluster config that exercises admission pressure,
 *  deferral and (with preempt) requeues — every event kind matters. */
cluster::ClusterConfig
traceConfig(std::size_t threads, bool fast_sim, bool preempt = false)
{
    cluster::ClusterConfig cfg;
    cfg.engine.traffic.ratePerSec = preempt ? 0.08 : 0.05;
    cfg.engine.traffic.numRequests = 14;
    cfg.engine.traffic.seed = 42;
    cfg.engine.fastSim = fast_sim;
    cfg.engine.preempt.enabled = preempt;
    cfg.devices = cluster::heteroEdramSramFleet(2, 2048, 8192, 4096, 8);
    cfg.threads = threads;
    return cfg;
}

std::string
runTraced(std::size_t threads, bool fast_sim, bool preempt = false)
{
    obs::TraceRecorder rec;
    cluster::ClusterConfig cfg = traceConfig(threads, fast_sim, preempt);
    cfg.engine.trace = &rec;
    cluster::ClusterEngine engine(cfg);
    engine.run();
    return rec.toJson();
}

// ---- TraceDeterminism ----------------------------------------------

TEST(TraceDeterminism, JsonByteIdenticalAcrossThreadCounts)
{
    const std::string serial = runTraced(1, true);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, runTraced(2, true));
    EXPECT_EQ(serial, runTraced(4, true));
}

TEST(TraceDeterminism, JsonByteIdenticalAcrossFastSimModes)
{
    // The fast-forward path must replay per-boundary defer/decode
    // events exactly as the step-at-a-time path emits them.
    const std::string fast = runTraced(1, true);
    EXPECT_EQ(fast, runTraced(1, false));
    EXPECT_EQ(fast, runTraced(4, false));
}

TEST(TraceDeterminism, PreemptRequeueTraceIsThreadInvariant)
{
    const std::string serial = runTraced(1, true, true);
    EXPECT_EQ(serial, runTraced(4, true, true));
    EXPECT_EQ(serial, runTraced(1, false, true));
}

/** A KV-blocked sjf-deadline device: blocked waiters turn urgent (the
 *  policy's time-dependent admission order changes) while the batch
 *  decodes, so a fast-forward window that replays the recorded
 *  deferral round past that instant emits its defer events in a stale
 *  order. */
std::string
runSjfDeadlineTraced(bool fast_sim, bool paged)
{
    obs::TraceRecorder rec;
    obs::LatencyWaterfall wf;
    serving::ServingConfig cfg;
    cfg.policy = serving::SchedulePolicy::SjfWithinDeadline;
    cfg.traffic.ratePerSec = 0.05;
    cfg.traffic.numRequests = 8;
    cfg.traffic.seed = 1;
    cfg.paged.enabled = paged;
    cfg.fastSim = fast_sim;
    cfg.trace = &rec;
    cfg.waterfall = &wf;
    cluster::ClusterConfig c;
    c.engine = cfg;
    c.devices = cluster::homogeneousFleet(
        1, accel::kelleEdramSystem(2048), 3000, 8);
    cluster::ClusterEngine(c).run();
    return rec.toJson();
}

TEST(TraceDeterminism, SjfDeadlineDeferOrderMatchesAcrossFastSim)
{
    for (bool paged : {false, true}) {
        const std::string fast = runSjfDeadlineTraced(true, paged);
        EXPECT_NE(fast.find("\"defer\""), std::string::npos);
        // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print two
        // traces of about 5 MB each.
        EXPECT_TRUE(fast == runSjfDeadlineTraced(false, paged))
            << (paged ? "paged" : "contiguous")
            << " trace differs between fastSim on and off";
    }
}

TEST(TraceDeterminism, RerunIsBitIdentical)
{
    EXPECT_EQ(runTraced(2, true), runTraced(2, true));
}

// ---- TraceInvariants -----------------------------------------------

/** Collect every track of a recorder (requests + devices). */
std::vector<const obs::TraceTrack *>
allTracks(const obs::TraceRecorder &rec)
{
    std::vector<const obs::TraceTrack *> tracks;
    for (const auto &t : rec.deviceTracks())
        tracks.push_back(t.get());
    return tracks;
}

TEST(TraceInvariants, PerTrackSimTimeIsMonotoneAndSpansWellFormed)
{
    obs::TraceRecorder rec;
    cluster::ClusterConfig cfg = traceConfig(1, true, true);
    cfg.engine.trace = &rec;
    cluster::ClusterEngine engine(cfg);
    engine.run();

    std::size_t total_events = 0;
    std::map<std::uint64_t, sim::SimTime> span_open; // req -> arrival
    std::set<std::uint64_t> span_closed;
    for (const obs::TraceTrack *track : allTracks(rec)) {
        sim::SimTime prev;
        for (const obs::TraceEvent &e : track->events()) {
            ++total_events;
            EXPECT_GE(e.ts, prev)
                << "track " << track->name()
                << " emitted out of sim-time order";
            prev = e.ts;
            EXPECT_GE(e.dur, sim::SimTime());
            switch (e.kind) {
              case obs::TraceEventKind::Arrival:
                // First arrival opens the span; a requeued request
                // re-arrives only via Requeue events.
                if (span_open.find(e.req) == span_open.end())
                    span_open[e.req] = e.ts;
                EXPECT_FALSE(track->taskName(e.name).empty());
                break;
              case obs::TraceEventKind::Complete:
              case obs::TraceEventKind::Reject: {
                auto it = span_open.find(e.req);
                ASSERT_NE(it, span_open.end())
                    << "span end for request " << e.req
                    << " without an arrival";
                EXPECT_LE(it->second, e.ts);
                EXPECT_TRUE(span_closed.insert(e.req).second)
                    << "request " << e.req << " ended twice";
                break;
              }
              default:
                break;
            }
        }
    }
    EXPECT_GT(total_events, 0u);
    // Every opened span closed: the run drains.
    EXPECT_EQ(span_open.size(), span_closed.size());
}

TEST(TraceInvariants, JsonIsWellFormedAndCoversEventTypes)
{
    const std::string json = runTraced(1, true);
    // Cheap structural checks (CI additionally runs jq over a real
    // bench artifact): header, one event per line, balanced close.
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.rfind("]}\n"), json.size() - 3);
    for (const char *needle :
         {"\"ph\":\"M\"", "\"ph\":\"b\"", "\"ph\":\"e\"",
          "\"ph\":\"i\"", "\"ph\":\"X\"", "\"ph\":\"C\"",
          "\"name\":\"decode\"", "\"name\":\"prefill\"",
          "\"name\":\"kv_bytes\"", "\"name\":\"dispatch\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

// ---- DisabledRecorder ----------------------------------------------

TEST(DisabledRecorder, SteadyStateDecodeStaysAllocationFree)
{
    // Same setup as test_simcore's allocation-free assert, with the
    // obs hooks explicitly left null: the disabled trace/profiler
    // pointers must not reintroduce heap traffic.
    sim::EventQueue queue;
    queue.reserve(2048);
    std::vector<serving::Request> requests;
    serving::Request r;
    r.id = 0;
    r.task = sim::qasper();
    r.arrival = sim::SimTime::fromSec(0);
    requests.push_back(r);

    serving::DeviceConfig cfg;
    serving::DeviceSpec device;
    device.poolTokens = 4096;
    ASSERT_EQ(cfg.profiler, nullptr);
    serving::DeviceEngine engine(cfg, device, queue, requests);
    for (int i = 1; i <= 1200; ++i)
        queue.schedule(sim::SimTime::fromSec(0.3 * i), [] {});
    engine.enqueue(0);

    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(queue.runNext());
    const std::uint64_t allocs_before =
        g_heapAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE(queue.runNext());
    const std::uint64_t allocs_after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_FALSE(requests[0].done());
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "disabled obs hooks must keep steady-state stepping "
           "allocation-free";
}

TEST(DisabledRecorder, ReportBitIdenticalWithTracingOnAndOff)
{
    // Tracing observes; it must never perturb simulation outputs.
    auto summaryOf = [](bool traced) {
        obs::TraceRecorder rec;
        cluster::ClusterConfig cfg = traceConfig(1, true, true);
        if (traced)
            cfg.engine.trace = &rec;
        cluster::ClusterEngine engine(cfg);
        const cluster::ClusterReport rep = engine.run();
        return std::make_tuple(
            rep.aggregate.summary.completed,
            rep.aggregate.summary.preemptions,
            rep.aggregate.summary.goodputTokensPerSec,
            rep.aggregate.summary.ttftP95, rep.loadImbalanceCv,
            rep.refreshEnergyJ);
    };
    EXPECT_EQ(summaryOf(false), summaryOf(true));
}

TEST(DisabledRecorder, ProfilerObservesWithoutPerturbing)
{
    obs::PhaseProfiler prof;
    cluster::ClusterConfig cfg = traceConfig(2, true);
    cfg.engine.profiler = &prof;
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport with = engine.run();

    cluster::ClusterEngine plain(traceConfig(2, true));
    const cluster::ClusterReport without = plain.run();
    EXPECT_EQ(with.aggregate.summary.completed,
              without.aggregate.summary.completed);
    EXPECT_EQ(with.aggregate.summary.goodputTokensPerSec,
              without.aggregate.summary.goodputTokensPerSec);
    // The run passed through trace generation and roll-up at least.
    EXPECT_GT(prof.count(obs::PhaseProfiler::Phase::TraceGen), 0u);
    EXPECT_GT(prof.count(obs::PhaseProfiler::Phase::RollUp), 0u);
}

// ---- MetricsRoundTrip ----------------------------------------------

TEST(MetricsRoundTrip, CsvSurvivesParseExactly)
{
    obs::MetricsRegistry reg;
    obs::TimeSeries &a = reg.series("a.kv_bytes");
    a.push(0.0, 0.0);
    a.push(10.0, 1.0 / 3.0); // needs all 17 significant digits
    a.push(35.0, 123456789.25);
    obs::TimeSeries &b = reg.series("b.depth");
    b.push(5.0, 2.0);

    const double dt = 10.0;
    const obs::MetricsRegistry::SampledTable want = reg.sample(dt);
    obs::MetricsRegistry::SampledTable got;
    ASSERT_TRUE(obs::MetricsRegistry::parseCsv(reg.toCsv(dt), &got));

    EXPECT_EQ(got.names, want.names);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
        ASSERT_EQ(got.rows[r].size(), want.rows[r].size());
        for (std::size_t c = 0; c < want.rows[r].size(); ++c)
            EXPECT_EQ(got.rows[r][c], want.rows[r][c])
                << "row " << r << " col " << c
                << " did not survive the %.17g round-trip";
    }
    EXPECT_EQ(got.intervalSec, dt);
}

TEST(MetricsRoundTrip, ResamplingIsLastValueHold)
{
    obs::MetricsRegistry reg;
    obs::TimeSeries &s = reg.series("x");
    s.push(2.0, 5.0);
    s.push(12.0, 7.0);

    const obs::MetricsRegistry::SampledTable t = reg.sample(10.0);
    ASSERT_EQ(t.names, std::vector<std::string>{"x"});
    // Grid 0, 10, 20 covers endSec 12.
    ASSERT_EQ(t.rows.size(), 3u);
    EXPECT_EQ(t.rows[0][1], 0.0); // before the first sample
    EXPECT_EQ(t.rows[1][1], 5.0); // last value at t=10 is the t=2 one
    EXPECT_EQ(t.rows[2][1], 7.0);
}

TEST(MetricsRoundTrip, SampleRequiresAFinitePositiveInterval)
{
    obs::MetricsRegistry reg;
    reg.series("x").push(2.0, 5.0);
    // Used to return a header-only table that exported as a CSV with
    // no rows.
    EXPECT_DEATH(reg.sample(0.0), "interval");
    EXPECT_DEATH(reg.sample(-1.0), "interval");
    EXPECT_DEATH(reg.sample(std::nan("")), "interval");
}

TEST(MetricsRoundTrip, WriteFileRefusesAGridOverTheRowLimit)
{
    obs::MetricsRegistry reg;
    reg.series("x").push(1000.0, 5.0);
    EXPECT_EQ(reg.sampleRows(10.0), 101.0);
    // 1e-6 s over 1000 s is 1e9 + 1 rows: refused before any row is
    // built or a file is opened.
    const std::string path =
        std::string(::testing::TempDir()) + "/kelle_row_limit.csv";
    std::remove(path.c_str());
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(reg.writeFile(path, 1e-6));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_NE(err.find("1e-06 s interval"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
}

TEST(MetricsRoundTrip, IngestTraceLiftsCountersAndHistograms)
{
    obs::TraceRecorder rec;
    cluster::ClusterConfig cfg = traceConfig(1, true);
    cfg.engine.trace = &rec;
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport rep = engine.run();

    obs::MetricsRegistry reg;
    reg.ingestTrace(rec);
    EXPECT_FALSE(reg.series("edram0.kv_bytes").samples().empty());
    EXPECT_FALSE(reg.series("sram1.kv_bytes").samples().empty());
    EXPECT_FALSE(reg.series("edram0.refresh_j").samples().empty());
    // One TTFT observation per completed request.
    EXPECT_EQ(reg.histogram("ttft_sec", 0.0, 120.0, 24).count,
              rep.aggregate.summary.completed);
    EXPECT_EQ(reg.histogram("e2e_sec", 0.0, 600.0, 24).count,
              rep.aggregate.summary.completed);
    // The cumulative refresh series ends at the fleet total.
    const obs::TimeSeries &edram = reg.series("edram0.refresh_j");
    const obs::TimeSeries &sram = reg.series("sram1.refresh_j");
    EXPECT_NEAR(edram.samples().back().value +
                    sram.samples().back().value,
                rep.refreshEnergyJ, 1e-6);
}

TEST(MetricsRoundTrip, JsonDumpCarriesSchemaAndSections)
{
    obs::MetricsRegistry reg;
    reg.setGauge("g", 1.5);
    reg.addCounter("c", 2.0);
    reg.histogram("h", 0.0, 1.0, 4).observe(0.3);
    reg.series("s").push(0.0, 1.0);
    const std::string json = reg.toJson(10.0);
    for (const char *needle :
         {"\"schema\":\"kelle.metrics/v2\"", "\"scalars\"",
          "\"histograms\"", "\"series\"", "\"g\"", "\"h\"",
          "\"p50\"", "\"p95\"", "\"p99\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

TEST(MetricsRoundTrip, HistogramQuantilesNearestRankOverBinEdges)
{
    obs::Histogram h;
    h.lo = 0.0;
    h.hi = 10.0;
    h.bins.assign(10, 0);
    EXPECT_EQ(h.quantile(0.5), 0.0); // empty
    for (int i = 0; i < 100; ++i)
        h.observe(0.1 * static_cast<double>(i)); // [0, 9.9]
    // Rank 50 lands in bin [4,5): upper edge 5. Rank 95 → bin [9,10)
    // clamps to max 9.9; p100 = max exactly.
    EXPECT_EQ(h.quantile(0.50), 5.0);
    EXPECT_EQ(h.quantile(0.95), 9.9);
    EXPECT_EQ(h.quantile(1.0), 9.9);
    // A single observation answers every quantile with itself (the
    // [min, max] clamp collapses the bin edge to the value).
    obs::Histogram one;
    one.lo = 0.0;
    one.hi = 100.0;
    one.bins.assign(4, 0);
    one.observe(3.25);
    EXPECT_EQ(one.quantile(0.5), 3.25);
    EXPECT_EQ(one.quantile(0.99), 3.25);
}

} // namespace
