/**
 * @file
 * The paged KV pool, bottom to top:
 *
 *  - KvPagePoolCore: free-list exhaustion/reuse determinism, refcount
 *    and copy-on-write correctness over shared prefixes with frozen
 *    partial tails, cached-prefix retention and oldest-first reclaim,
 *    acquire rollback.
 *  - PagedAllocator: floor-only admission with lazy growth, the
 *    growth-failure budget clamp (never below the floor), quantized
 *    page byte accounting tied to the QuantizedGroups layout.
 *  - PagedServing: paged-vs-contiguous report equality when paging
 *    cannot matter (sharing off, one page covers any grant, generous
 *    pool), INT8/INT4 page capacity scaling, the sessions knob's
 *    byte-identical arrival stream.
 *  - PagedDeterminism: paged + sessions cluster runs are bit-identical
 *    across thread counts and fastSim on/off, reports and trace bytes
 *    alike (the contract that lets paged mode ride the parallel
 *    engine and the fast-forward path).
 *  - PagedFastForward: a KV-blocked paged config (sessions_paged shape)
 *    fast-forwards nearly every decode boundary — the deferral round
 *    replayed to its fixpoint — and stays bit-identical to the event
 *    path under every policy and under preemption: reports, request
 *    lifecycles, trace bytes and attribution waterfalls.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.hpp"
#include "kvcache/kv_page_pool.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"
#include "serving/kv_budget_allocator.hpp"
#include "serving/request_generator.hpp"
#include "tensor/quant.hpp"

namespace kelle {
namespace {

/** A single-device session: a 1-device round-robin cluster. */
serving::ServingReport
runOneDevice(const serving::ServingConfig &cfg)
{
    return cluster::ClusterEngine(
               cluster::clusterConfigFrom(
                   cfg, 1, cluster::DispatchKind::RoundRobin))
        .run()
        .aggregate;
}

kv::KvPagePoolConfig
poolConfig(std::size_t pages, std::size_t block, bool share = true)
{
    kv::KvPagePoolConfig cfg;
    cfg.totalPages = pages;
    cfg.blockTokens = block;
    cfg.bytesPerPage = static_cast<double>(block);
    cfg.sharePrefixes = share;
    return cfg;
}

// ---- KvPagePoolCore ------------------------------------------------

TEST(KvPagePoolCore, ExhaustionReuseAndRepeatDeterminism)
{
    // The same operation sequence must map to the same page/chain ids
    // and counters on every run: drive two pools in lockstep.
    kv::KvPagePool a(poolConfig(8, 4));
    kv::KvPagePool b(poolConfig(8, 4));

    std::vector<std::size_t> chains_a, chains_b;
    for (int i = 0; i < 8; ++i) {
        const auto ra = a.acquire(4);
        const auto rb = b.acquire(4);
        ASSERT_TRUE(ra.ok);
        EXPECT_EQ(ra.chainId, rb.chainId);
        EXPECT_EQ(ra.capacityTokens, 4u);
        chains_a.push_back(ra.chainId);
        chains_b.push_back(rb.chainId);
    }
    EXPECT_EQ(a.freePages(), 0u);
    EXPECT_EQ(a.usedPages(), 8u);

    // Exhausted: the ninth acquire fails and rolls back cleanly.
    EXPECT_FALSE(a.acquire(4).ok);
    EXPECT_FALSE(b.acquire(4).ok);
    EXPECT_EQ(a.freePages(), 0u);

    // Release two chains; the freed pages and chain ids come back in
    // LIFO order, identically in both pools.
    a.release(chains_a[2]);
    a.release(chains_a[5]);
    b.release(chains_b[2]);
    b.release(chains_b[5]);
    EXPECT_EQ(a.freePages(), 2u);
    const auto ra = a.acquire(8);
    const auto rb = b.acquire(8);
    ASSERT_TRUE(ra.ok);
    EXPECT_EQ(ra.chainId, rb.chainId);
    EXPECT_EQ(ra.capacityTokens, 8u);
    EXPECT_EQ(a.freePages(), 0u);
    EXPECT_EQ(a.peakUsedPages(), b.peakUsedPages());
}

TEST(KvPagePoolCore, AcquireRollbackLeavesPoolUntouched)
{
    kv::KvPagePool pool(poolConfig(4, 4));
    const auto big = pool.acquire(32); // 8 pages > 4
    EXPECT_FALSE(big.ok);
    EXPECT_EQ(pool.freePages(), 4u);
    // The pool still serves a fitting request afterwards.
    EXPECT_TRUE(pool.acquire(16).ok);
    EXPECT_EQ(pool.freePages(), 0u);
}

TEST(KvPagePoolCore, PrefixShareFrozenTailAndCow)
{
    kv::KvPagePool pool(poolConfig(16, 4));
    constexpr std::uint64_t kKey = 0xfeedULL;

    // Owner holds 10 tokens over 3 pages and publishes all of them:
    // the third page is partial (tokens 8..9), so sharers freeze at 10.
    const auto owner = pool.acquire(10);
    ASSERT_TRUE(owner.ok);
    EXPECT_EQ(owner.capacityTokens, 12u);
    pool.publishPrefix(owner.chainId, kKey, 10);
    EXPECT_EQ(pool.sharedPages(), 3u);

    const std::size_t used_before = pool.usedPages();
    const auto sharer = pool.acquire(10, kKey, 10);
    ASSERT_TRUE(sharer.ok);
    EXPECT_EQ(sharer.prefixHitTokens, 10u);
    // Copy-free: the sharer's floor is covered entirely by attached
    // pages, frozen at the published token count.
    EXPECT_EQ(sharer.capacityTokens, 10u);
    EXPECT_EQ(pool.usedPages(), used_before);
    EXPECT_EQ(pool.prefixHitTokens(), 10u);

    // First divergent append past the frozen boundary copies the
    // partial tail page; fully covered pages are never copied.
    EXPECT_TRUE(pool.grow(sharer.chainId, 11));
    EXPECT_EQ(pool.cowCopies(), 1u);
    EXPECT_EQ(pool.capacityTokens(sharer.chainId), 12u);
    EXPECT_EQ(pool.usedPages(), used_before + 1);
    EXPECT_EQ(pool.sharedPages(), 3u);
}

TEST(KvPagePoolCore, ReleasedPrefixStaysCachedUntilPressure)
{
    kv::KvPagePool pool(poolConfig(6, 4));
    constexpr std::uint64_t kKey = 77;

    const auto owner = pool.acquire(8); // 2 pages
    ASSERT_TRUE(owner.ok);
    pool.publishPrefix(owner.chainId, kKey, 8);
    pool.release(owner.chainId);

    // The index alone holds the pages: cached, not freed.
    EXPECT_EQ(pool.cachedPages(), 2u);
    EXPECT_EQ(pool.freePages(), 4u);
    EXPECT_EQ(pool.availablePages(), 6u);

    // A later request still hits the cached prefix copy-free.
    const auto hit = pool.acquire(8, kKey, 8);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.prefixHitTokens, 8u);
    EXPECT_EQ(pool.cachedPages(), 0u);
    pool.release(hit.chainId);
    EXPECT_EQ(pool.cachedPages(), 2u);

    // Exhaustion evicts the cached entry (oldest publish first) to
    // refill the free list; the allocation then succeeds.
    const auto big = pool.acquire(24); // 6 pages > 4 free
    ASSERT_TRUE(big.ok);
    EXPECT_EQ(pool.cachedReclaims(), 1u);
    EXPECT_EQ(pool.cachedPages(), 0u);
    EXPECT_EQ(pool.freePages(), 0u);
    // The evicted key no longer hits.
    pool.release(big.chainId);
    EXPECT_EQ(pool.acquire(8, kKey, 8).prefixHitTokens, 0u);
}

// ---- PagedAllocator ------------------------------------------------

serving::AllocatorConfig
pagedAllocatorConfig(std::size_t pages, std::size_t block)
{
    serving::AllocatorConfig cfg;
    cfg.bytesPerToken = 2.0;
    cfg.capacityBytes =
        static_cast<double>(pages * block) * cfg.bytesPerToken;
    cfg.highWatermark = 1.0;
    cfg.pagedTotalPages = pages;
    cfg.pagedBlockTokens = block;
    return cfg;
}

TEST(PagedAllocator, FloorOnlyAdmissionWithLazyGrowth)
{
    serving::KvBudgetAllocator alloc(pagedAllocatorConfig(8, 4));
    auto g = alloc.tryAdmit(/*requested=*/32, /*min=*/4);
    ASSERT_TRUE(g.admitted);
    // The budget is the full request, but only the floor's page is
    // physically held.
    EXPECT_EQ(g.budgetTokens, 32u);
    EXPECT_EQ(g.chainCapacityTokens, 4u);
    EXPECT_EQ(alloc.pagePool()->usedPages(), 1u);

    EXPECT_TRUE(alloc.growChain(g, 12));
    EXPECT_EQ(g.chainCapacityTokens, 12u);
    EXPECT_EQ(alloc.pagePool()->usedPages(), 3u);
    alloc.release(g);
    EXPECT_EQ(alloc.pagePool()->usedPages(), 0u);
}

TEST(PagedAllocator, GrowthFailureClampsBudgetNeverBelowFloor)
{
    serving::KvBudgetAllocator alloc(pagedAllocatorConfig(4, 4));
    auto a = alloc.tryAdmit(64, 4);
    auto b = alloc.tryAdmit(64, 4);
    ASSERT_TRUE(a.admitted && b.admitted);

    // Chain a takes the remaining two pages; b's growth then fails at
    // its best-effort capacity and the caller clamps the budget.
    EXPECT_TRUE(alloc.growChain(a, 12));
    EXPECT_FALSE(alloc.growChain(b, 12));
    EXPECT_EQ(b.chainCapacityTokens, 4u);
    alloc.shrinkBudget(b, b.chainCapacityTokens);
    EXPECT_EQ(b.budgetTokens, 4u);
    EXPECT_GE(b.budgetTokens, 4u); // never below the admitted floor
    EXPECT_EQ(alloc.budgetClips(), 1u);
}

TEST(PagedAllocator, DeferralWhenFloorExceedsAvailablePages)
{
    serving::KvBudgetAllocator alloc(pagedAllocatorConfig(2, 4));
    auto a = alloc.tryAdmit(8, 8);
    ASSERT_TRUE(a.admitted);
    EXPECT_EQ(alloc.availableTokens(), 0u);
    EXPECT_FALSE(alloc.tryAdmit(8, 8).admitted);
    EXPECT_EQ(alloc.deferrals(), 1u);
    alloc.release(a);
    EXPECT_TRUE(alloc.tryAdmit(8, 8).admitted);
}

TEST(PagedAllocator, QuantizedPageBytesMatchGroupLayout)
{
    // The page byte formula must equal the QuantizedGroups storage it
    // models: packed payload plus one fp32 scale and zero per group.
    const std::size_t n = 1024;
    const std::size_t group = 32;
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 0.01f * static_cast<float>(i % 97) - 0.3f;
    for (int bits : {4, 8}) {
        const tensor::QuantizedGroups q =
            tensor::quantizeGroups(x, bits, group);
        const double packed_payload =
            static_cast<double>(q.q.size() * static_cast<std::size_t>(bits)) /
            8.0;
        const double metadata =
            4.0 * static_cast<double>(q.scales.size() + q.zeros.size());
        EXPECT_DOUBLE_EQ(tensor::quantizedStoreBytes(n, bits, group),
                         packed_payload + metadata)
            << "bits " << bits;
    }
    // 16-bit pages are dense with no metadata.
    EXPECT_DOUBLE_EQ(tensor::quantizedStoreBytes(n, 16, group),
                     2.0 * static_cast<double>(n));
}

// ---- PagedServing --------------------------------------------------

std::vector<std::pair<sim::Task, double>>
tinyMix()
{
    return {{sim::scaledForTiny(sim::lambada(), 96), 1.0},
            {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
}

serving::ServingConfig
tinyServingConfig(std::uint64_t seed = 42)
{
    serving::ServingConfig cfg;
    cfg.model = model::tinyLm();
    cfg.system = accel::kelleEdramSystem(2048);
    cfg.policy = serving::SchedulePolicy::ContinuousBatching;
    cfg.maxBatch = 4;
    cfg.poolTokens = 16384;
    cfg.highWatermark = 1.0;
    cfg.traffic.ratePerSec = 0.2;
    cfg.traffic.seed = seed;
    cfg.traffic.numRequests = 12;
    cfg.traffic.mix = tinyMix();
    return cfg;
}

TEST(PagedServing, MatchesContiguousWhenPagingCannotMatter)
{
    // Sharing off, one page covers any grant, pool generous enough
    // that nothing defers, clips or shrinks: the paged run must
    // reproduce the contiguous run's observable results exactly.
    serving::ServingConfig contig = tinyServingConfig();
    serving::ServingConfig paged = contig;
    paged.paged.enabled = true;
    paged.paged.blockTokens = 2048;
    paged.paged.sharePrefixes = false;

    const auto c = runOneDevice(contig);
    const auto p = runOneDevice(paged);

    EXPECT_EQ(c.summary.completed, p.summary.completed);
    EXPECT_EQ(c.summary.rejected, p.summary.rejected);
    EXPECT_EQ(c.summary.makespan.sec(), p.summary.makespan.sec());
    EXPECT_EQ(c.summary.ttftP95, p.summary.ttftP95);
    EXPECT_EQ(c.summary.tpotMean, p.summary.tpotMean);
    EXPECT_EQ(c.summary.goodputTokensPerSec,
              p.summary.goodputTokensPerSec);
    EXPECT_EQ(c.summary.energy.total().j(), p.summary.energy.total().j());
    EXPECT_EQ(c.engineSteps, p.engineSteps);
    EXPECT_EQ(c.decodeSteps, p.decodeSteps);
    EXPECT_EQ(c.prefills, p.prefills);
    EXPECT_EQ(c.deferrals, p.deferrals);
    EXPECT_EQ(c.shrunkGrants, p.shrunkGrants);
    EXPECT_EQ(c.peakLogicalTokens, p.peakLogicalTokens);
    EXPECT_TRUE(p.paged.enabled);
    EXPECT_EQ(p.paged.budgetClips, 0u);
    EXPECT_EQ(p.paged.cowCopies, 0u);
}

TEST(PagedServing, QuantizedPagesMultiplyDerivedTokenCapacity)
{
    // With the pool derived from device DRAM (poolTokens = 0), INT8
    // and INT4 pages fit more pages — and thus more tokens — into the
    // same bytes.
    auto pagesAt = [](int bits) {
        serving::ServingConfig cfg = tinyServingConfig();
        cfg.poolTokens = 0;
        cfg.traffic.numRequests = 2;
        cfg.paged.enabled = true;
        cfg.paged.quantBits = bits;
        return runOneDevice(cfg).paged.totalPages;
    };
    const std::size_t p16 = pagesAt(0);
    const std::size_t p8 = pagesAt(8);
    const std::size_t p4 = pagesAt(4);
    // Group metadata (8 bytes per 32 values) prices INT8 pages at
    // 1.25 B/value and INT4 at 0.75 B/value vs 2 B dense, so the
    // ideal page-count ratios are 1.6x and 2.67x.
    EXPECT_GT(static_cast<double>(p8), 1.55 * static_cast<double>(p16));
    EXPECT_GT(static_cast<double>(p4), 2.6 * static_cast<double>(p16));
}

TEST(PagedServing, SessionsKnobKeepsArrivalStreamByteIdentical)
{
    serving::TrafficConfig traffic;
    traffic.ratePerSec = 0.1;
    traffic.numRequests = 24;
    traffic.mix = tinyMix();
    const auto plain = serving::generateTrace(traffic);
    traffic.sessions = 4;
    const auto with_sessions = serving::generateTrace(traffic);

    ASSERT_EQ(plain.size(), with_sessions.size());
    bool any_key = false;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].arrival.sec(),
                  with_sessions[i].arrival.sec());
        EXPECT_EQ(plain[i].task.name, with_sessions[i].task.name);
        EXPECT_EQ(plain[i].prefixKey, 0u);
        EXPECT_EQ(plain[i].prefixLen, 0u);
        if (with_sessions[i].prefixKey != 0) {
            any_key = true;
            EXPECT_GT(with_sessions[i].prefixLen, 0u);
            EXPECT_LT(with_sessions[i].prefixLen,
                      with_sessions[i].task.ctxLen);
        }
    }
    EXPECT_TRUE(any_key);
    // Same config, same stream: the session assignment is seeded.
    const auto rerun = serving::generateTrace(traffic);
    for (std::size_t i = 0; i < rerun.size(); ++i) {
        EXPECT_EQ(rerun[i].prefixKey, with_sessions[i].prefixKey);
        EXPECT_EQ(rerun[i].prefixLen, with_sessions[i].prefixLen);
    }
}

TEST(PagedServing, SharedPrefixesRaiseResidentTokensOnTightPool)
{
    // The headline claim at test scale: same trace, same tight pool —
    // prefix sharing stores each session's system prompt once, so the
    // pool holds more logical resident tokens at peak.
    serving::ServingConfig cfg = tinyServingConfig();
    cfg.maxBatch = 12;     // batch slots outnumber what the pool holds
    cfg.poolTokens = 256;  // ... so the pool is the binding constraint
    cfg.highWatermark = 0.85;
    cfg.budgetOverride = 48; // N' large enough for multi-page prefixes
    cfg.traffic.ratePerSec = 2000.0; // saturating arrivals
    cfg.traffic.numRequests = 32;
    cfg.traffic.sessions = 1;
    cfg.traffic.sessionPrefixFrac = 0.9;

    serving::ServingConfig paged = cfg;
    paged.paged.enabled = true;
    paged.paged.blockTokens = 8;

    const auto contig = runOneDevice(cfg);
    const auto shared = runOneDevice(paged);
    EXPECT_GT(shared.paged.prefixHitTokens, 0u);
    EXPECT_GT(shared.peakLogicalTokens, contig.peakLogicalTokens);
}

// ---- PagedDeterminism ----------------------------------------------

cluster::ClusterConfig
pagedClusterConfig(std::size_t threads, bool fast_sim)
{
    serving::ServingConfig cfg = tinyServingConfig();
    cfg.maxBatch = 12;
    cfg.poolTokens = 256; // tight: growth and clips fire
    cfg.budgetOverride = 48;
    cfg.traffic.ratePerSec = 5000.0; // split across 2 devices
    cfg.traffic.numRequests = 32;
    cfg.traffic.sessions = 2;
    cfg.traffic.sessionPrefixFrac = 0.9;
    cfg.fastSim = fast_sim;
    cfg.paged.enabled = true;
    cfg.paged.blockTokens = 8;
    cluster::ClusterConfig ccfg = cluster::clusterConfigFrom(
        cfg, 2, cluster::DispatchKind::JoinShortestKv);
    ccfg.threads = threads;
    return ccfg;
}

void
expectPagedReportsEqual(const serving::ServingReport &a,
                        const serving::ServingReport &b,
                        const std::string &label)
{
    EXPECT_EQ(a.summary.completed, b.summary.completed) << label;
    EXPECT_EQ(a.summary.makespan.sec(), b.summary.makespan.sec())
        << label;
    EXPECT_EQ(a.summary.ttftP95, b.summary.ttftP95) << label;
    EXPECT_EQ(a.summary.goodputTokensPerSec,
              b.summary.goodputTokensPerSec)
        << label;
    EXPECT_EQ(a.summary.energy.total().j(), b.summary.energy.total().j())
        << label;
    EXPECT_EQ(a.engineSteps, b.engineSteps) << label;
    EXPECT_EQ(a.decodeSteps, b.decodeSteps) << label;
    EXPECT_EQ(a.deferrals, b.deferrals) << label;
    EXPECT_EQ(a.peakLogicalTokens, b.peakLogicalTokens) << label;
    EXPECT_EQ(a.paged.peakUsedPages, b.paged.peakUsedPages) << label;
    EXPECT_EQ(a.paged.peakSharedPages, b.paged.peakSharedPages)
        << label;
    EXPECT_EQ(a.paged.prefixHitTokens, b.paged.prefixHitTokens)
        << label;
    EXPECT_EQ(a.paged.cowCopies, b.paged.cowCopies) << label;
    EXPECT_EQ(a.paged.cachedReclaims, b.paged.cachedReclaims) << label;
    EXPECT_EQ(a.paged.budgetClips, b.paged.budgetClips) << label;
}

TEST(PagedDeterminism, ReportsBitIdenticalAcrossThreadsAndFastSim)
{
    const auto baseline =
        cluster::ClusterEngine(pagedClusterConfig(1, true)).run();
    // The tight pool must actually exercise the paged machinery, or
    // this test pins nothing.
    EXPECT_GT(baseline.aggregate.paged.prefixHitTokens, 0u);
    EXPECT_GT(baseline.aggregate.paged.budgetClips, 0u);
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        const auto par =
            cluster::ClusterEngine(pagedClusterConfig(threads, true))
                .run();
        expectPagedReportsEqual(
            baseline.aggregate, par.aggregate,
            "threads " + std::to_string(threads));
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto oracle =
            cluster::ClusterEngine(pagedClusterConfig(threads, false))
                .run();
        expectPagedReportsEqual(
            baseline.aggregate, oracle.aggregate,
            "fastSim off, threads " + std::to_string(threads));
    }
}

TEST(PagedDeterminism, TraceBytesIdenticalAcrossThreadsAndFastSim)
{
    const auto traced = [](std::size_t threads, bool fast_sim) {
        obs::TraceRecorder rec;
        cluster::ClusterConfig cfg =
            pagedClusterConfig(threads, fast_sim);
        cfg.engine.trace = &rec;
        cluster::ClusterEngine(cfg).run();
        return rec.toJson();
    };
    const std::string serial = traced(1, true);
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("kv_pages_free"), std::string::npos);
    EXPECT_NE(serial.find("kv_prefix_hit_tokens"), std::string::npos);
    EXPECT_EQ(serial, traced(2, true));
    EXPECT_EQ(serial, traced(4, true));
    EXPECT_EQ(serial, traced(1, false));
    EXPECT_EQ(serial, traced(4, false));
}

// ---- PagedFastForward ----------------------------------------------

/** The benchmark's sessions_paged shape at test scale: bursty
 *  PG19-heavy traffic on two 12000-token paged pools keeps devices
 *  KV-blocked — batch slots free, no waiter's floor fitting — for long
 *  decode stretches. */
cluster::ClusterConfig
kvBlockedPagedConfig(serving::SchedulePolicy policy, bool preempt,
                     bool fast_sim, std::size_t requests)
{
    cluster::ClusterConfig cfg;
    cfg.engine.traffic.numRequests = requests;
    cfg.engine.traffic.sessions = 8;
    cfg.engine.traffic.process = serving::ArrivalProcess::Bursty;
    cfg.engine.traffic.mix = serving::pg19HeavyMix();
    cfg.engine.traffic.ratePerSec = 0.01;
    cfg.engine.policy = policy;
    cfg.engine.chunkTokens = 256;
    cfg.engine.paged.enabled = true;
    cfg.engine.paged.blockTokens = 64;
    cfg.engine.paged.sharePrefixes = true;
    cfg.engine.preempt.enabled = preempt;
    cfg.engine.fastSim = fast_sim;
    cfg.devices = cluster::homogeneousFleet(
        2, accel::kelleEdramSystem(2048), 12000, 16);
    return cfg;
}

/** A full-length run serializes to hundreds of MB of trace JSON (one
 *  slice per decode step, one instant per deferral), so trace bytes
 *  are compared on a shorter run of the same traffic shape. */
constexpr std::size_t kKvBlockedRequests = 300;
constexpr std::size_t kKvBlockedTraceRequests = 40;

struct KvBlockedRun
{
    cluster::ClusterReport report;
    std::vector<serving::Request> requests;
    std::string trace; ///< empty unless traced
    std::vector<obs::WaterfallEntry> waterfall;
    std::uint64_t decodeSteps = 0;
    std::uint64_t fastForwarded = 0;
};

KvBlockedRun
runKvBlocked(serving::SchedulePolicy policy, bool preempt, bool fast_sim,
             std::size_t requests = kKvBlockedRequests, bool traced = false)
{
    obs::TraceRecorder rec;
    obs::LatencyWaterfall wf;
    cluster::ClusterConfig cfg =
        kvBlockedPagedConfig(policy, preempt, fast_sim, requests);
    if (traced)
        cfg.engine.trace = &rec;
    cfg.engine.waterfall = &wf;
    cluster::ClusterEngine engine(cfg);
    KvBlockedRun out;
    out.report = engine.run();
    out.requests = engine.requests();
    if (traced)
        out.trace = rec.toJson();
    out.waterfall = wf.entries();
    for (std::size_t i = 0; i < engine.deviceCount(); ++i) {
        out.decodeSteps += engine.device(i).decodeSteps();
        out.fastForwarded += engine.device(i).fastForwardedSteps();
    }
    return out;
}

void
expectLifecyclesEqual(const std::vector<serving::Request> &a,
                      const std::vector<serving::Request> &b,
                      const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string at = label + " req " + std::to_string(a[i].id);
        EXPECT_EQ(a[i].state, b[i].state) << at;
        EXPECT_EQ(a[i].arrival.sec(), b[i].arrival.sec()) << at;
        EXPECT_EQ(a[i].admitted.sec(), b[i].admitted.sec()) << at;
        EXPECT_EQ(a[i].firstToken.sec(), b[i].firstToken.sec()) << at;
        EXPECT_EQ(a[i].lastToken.sec(), b[i].lastToken.sec()) << at;
        EXPECT_EQ(a[i].completed.sec(), b[i].completed.sec()) << at;
        EXPECT_EQ(a[i].budgetGranted, b[i].budgetGranted) << at;
        EXPECT_EQ(a[i].maxTokenGapSec, b[i].maxTokenGapSec) << at;
    }
}

void
expectWaterfallsEqual(const std::vector<obs::WaterfallEntry> &a,
                      const std::vector<obs::WaterfallEntry> &b,
                      const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string at = label + " req " + std::to_string(a[i].reqId);
        EXPECT_EQ(a[i].terminal, b[i].terminal) << at;
        EXPECT_EQ(a[i].deferred, b[i].deferred) << at;
        EXPECT_EQ(a[i].preempted, b[i].preempted) << at;
        EXPECT_EQ(a[i].cause, b[i].cause) << at;
        EXPECT_EQ(a[i].firstDefer.sec(), b[i].firstDefer.sec()) << at;
        EXPECT_EQ(a[i].ttftSec, b[i].ttftSec) << at;
        EXPECT_EQ(a[i].e2eSec, b[i].e2eSec) << at;
        for (std::size_t c = 0; c < obs::kLatencyComponentCount; ++c)
            EXPECT_EQ(a[i].components[c], b[i].components[c])
                << at << " component " << c;
    }
}

void
expectFastSimInvariant(serving::SchedulePolicy policy, bool preempt)
{
    const std::string label =
        toString(policy) + (preempt ? "/preempt" : "");
    // fcfs admits one request at a time, so it never blocks on KV.
    const bool batches = policy != serving::SchedulePolicy::Fcfs;
    const KvBlockedRun fast = runKvBlocked(policy, preempt, true);
    const KvBlockedRun slow = runKvBlocked(policy, preempt, false);
    if (batches) {
        EXPECT_GT(fast.report.aggregate.deferrals, 0u) << label;
    }
    expectPagedReportsEqual(fast.report.aggregate,
                            slow.report.aggregate, label);
    expectLifecyclesEqual(fast.requests, slow.requests, label);
    expectWaterfallsEqual(fast.waterfall, slow.waterfall, label);
    EXPECT_EQ(slow.fastForwarded, 0u) << label;

    const KvBlockedRun fast_traced = runKvBlocked(
        policy, preempt, true, kKvBlockedTraceRequests, true);
    const KvBlockedRun slow_traced = runKvBlocked(
        policy, preempt, false, kKvBlockedTraceRequests, true);
    if (batches) {
        EXPECT_GT(fast_traced.report.aggregate.deferrals, 0u) << label;
    }
    // Not EXPECT_EQ: a mismatch would print both multi-MB strings.
    EXPECT_TRUE(fast_traced.trace == slow_traced.trace)
        << label << ": trace bytes differ";
}

TEST(PagedFastForward, EveryPolicyMatchesTheEventPath)
{
    for (serving::SchedulePolicy policy :
         serving::allSchedulePolicies())
        expectFastSimInvariant(policy, false);
}

TEST(PagedFastForward, PreemptionMatchesTheEventPath)
{
    expectFastSimInvariant(serving::SchedulePolicy::EdfChunked, true);
}

TEST(PagedFastForward, KvBlockedBoundariesFastForward)
{
    // Paged KV-blocked windows must replay inline: with the deferral
    // round skipped at its fixpoint, 99.8% of this config's decode
    // boundaries fast-forward (91% when paged mode fell back to the
    // event path at every blocked boundary).
    const KvBlockedRun run = runKvBlocked(
        serving::SchedulePolicy::EdfChunked, false, true);
    ASSERT_GT(run.decodeSteps, 0u);
    EXPECT_GT(run.report.aggregate.deferrals, 0u);
    EXPECT_GE(static_cast<double>(run.fastForwarded) /
                  static_cast<double>(run.decodeSteps),
              0.95);
}

} // namespace
} // namespace kelle
