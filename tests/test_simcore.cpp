/**
 * @file
 * The simulation fast path's correctness contract (ISSUE 5): every
 * shortcut — memoized step costing, telescoped accumulation, the
 * serving engines' allocation-free fast-forward stepping — must be
 * *bitwise* invisible. Four suites:
 *
 *  - StepCostCache: cached vs uncached StepReports are equal on every
 *    double across randomized resident multisets, chunk offsets, and
 *    eDRAM/SRAM system configs; batches sharing the (batch size,
 *    total resident) key produce identical reports however the tokens
 *    are distributed; a capacity-capped cache bypasses without
 *    perturbing values; members of a decode-memo group see each
 *    other's published reports, and only their own buffered ones.
 *  - TimingTelescoping: the closed-form (batch size, resident total)
 *    sums in simulateBatchedDecodeStep and the memoized decode loop in
 *    simulate() equal their loop forms (kept as accel::detail
 *    references) bit-for-bit, and simulate()'s decode steps are that
 *    same batched step.
 *  - FastPathEquivalence: whole serving and cluster runs with
 *    ServingConfig::fastSim on vs off produce field-for-field
 *    identical reports — the end-to-end guarantee the golden-digest
 *    test pins against the checked-in outputs.
 *  - AllocationFree: steady-state decode stepping performs zero heap
 *    allocations (global operator new counter; the engine's scratch
 *    buffers, SBO-sized callbacks and reserved queue make the hot
 *    loop allocation-free once warm).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "accel/capacity.hpp"
#include "accel/step_cost_cache.hpp"
#include "accel/timing_model.hpp"
#include "cluster/cluster_engine.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"
#include "sim/sim_time.hpp"
#include "sim/workloads.hpp"

using namespace kelle;

// ---- global allocation counter (AllocationFree suite) --------------
// Counts every scalar/array non-aligned heap allocation in the
// process. Only the AllocationFree test reads it; the other suites
// are unaffected beyond a negligible increment cost.

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

// ---- bitwise comparison helpers ------------------------------------

/** Every component's bit pattern. */
void
expectEnergyEq(const accel::EnergyBreakdown &a,
               const accel::EnergyBreakdown &b)
{
    const auto bits = [](Energy e) {
        return std::bit_cast<std::uint64_t>(e.j());
    };
    EXPECT_EQ(bits(a.rsa), bits(b.rsa)) << "rsa";
    EXPECT_EQ(bits(a.sfu), bits(b.sfu)) << "sfu";
    EXPECT_EQ(bits(a.weightSram), bits(b.weightSram)) << "weightSram";
    EXPECT_EQ(bits(a.kvMem), bits(b.kvMem)) << "kvMem";
    EXPECT_EQ(bits(a.refresh), bits(b.refresh)) << "refresh";
    EXPECT_EQ(bits(a.dram), bits(b.dram)) << "dram";
    EXPECT_EQ(bits(a.leakage), bits(b.leakage)) << "leakage";
}

void
expectStepEq(const accel::StepReport &a, const accel::StepReport &b)
{
    EXPECT_EQ(a.latency.sec(), b.latency.sec());
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.macs, b.macs);
    expectEnergyEq(a.energy, b.energy);
}

void
expectSummaryEq(const serving::ServingSummary &a,
                const serving::ServingSummary &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.makespan.sec(), b.makespan.sec());
    EXPECT_EQ(a.ttftMean, b.ttftMean);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP95, b.ttftP95);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.e2eP50, b.e2eP50);
    EXPECT_EQ(a.e2eP95, b.e2eP95);
    EXPECT_EQ(a.e2eP99, b.e2eP99);
    EXPECT_EQ(a.tpotMean, b.tpotMean);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP95, b.tpotP95);
    EXPECT_EQ(a.tokenGapP95, b.tokenGapP95);
    EXPECT_EQ(a.goodputTokensPerSec, b.goodputTokensPerSec);
    EXPECT_EQ(a.sloTtftAttainment, b.sloTtftAttainment);
    EXPECT_EQ(a.sloTpotAttainment, b.sloTpotAttainment);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.admissionBypasses, b.admissionBypasses);
    EXPECT_EQ(a.maxQueueWaitSec, b.maxQueueWaitSec);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.meanBudgetFraction, b.meanBudgetFraction);
    EXPECT_EQ(a.energyPerToken, b.energyPerToken);
    expectEnergyEq(a.energy, b.energy);
}

void
expectReportEq(const serving::ServingReport &a,
               const serving::ServingReport &b)
{
    expectSummaryEq(a.summary, b.summary);
    EXPECT_EQ(a.engineSteps, b.engineSteps);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.prefillChunks, b.prefillChunks);
    EXPECT_EQ(a.prefills, b.prefills);
    EXPECT_EQ(a.poolTokens, b.poolTokens);
    EXPECT_EQ(a.poolCapacityBytes, b.poolCapacityBytes);
    EXPECT_EQ(a.poolPeakBytes, b.poolPeakBytes);
    EXPECT_EQ(a.shrunkGrants, b.shrunkGrants);
    EXPECT_EQ(a.deferrals, b.deferrals);
    EXPECT_EQ(a.drained, b.drained);
}

/** Every request field the decode fast-forward writes, bitwise. */
void
expectRequestsEq(const std::vector<serving::Request> &a,
                 const std::vector<serving::Request> &b)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(a[i].generated, b[i].generated);
        EXPECT_EQ(a[i].prefilled, b[i].prefilled);
        EXPECT_EQ(a[i].budgetGranted, b[i].budgetGranted);
        EXPECT_EQ(bits(a[i].firstToken.sec()), bits(b[i].firstToken.sec()));
        EXPECT_EQ(bits(a[i].lastToken.sec()), bits(b[i].lastToken.sec()));
        EXPECT_EQ(bits(a[i].maxTokenGapSec), bits(b[i].maxTokenGapSec));
        EXPECT_EQ(bits(a[i].completed.sec()), bits(b[i].completed.sec()));
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    }
}

/** The config axes the cache must be exact over. */
std::vector<accel::SystemConfig>
cacheSystems()
{
    return {accel::kelleEdramSystem(2048), accel::aerpSramSystem(1024),
            accel::aepSramSystem(512), accel::originalEdramSystem()};
}

std::vector<std::size_t>
randomResident(std::mt19937_64 &rng, std::size_t max_batch,
               std::size_t max_tokens)
{
    std::uniform_int_distribution<std::size_t> bdist(1, max_batch);
    std::uniform_int_distribution<std::size_t> ndist(1, max_tokens);
    std::uniform_int_distribution<int> rep(0, 1);
    std::vector<std::size_t> r(bdist(rng));
    for (std::size_t i = 0; i < r.size(); ++i) {
        // Half the members repeat the previous value: decode batches
        // clamp at shared budgets, so runs of equal counts are the
        // common case the grouped closed form telescopes.
        if (i > 0 && rep(rng))
            r[i] = r[i - 1];
        else
            r[i] = ndist(rng);
    }
    return r;
}

/** The cache's decode step for a member vector: its (B, N) key. */
const accel::StepReport &
cachedDecode(accel::StepCostCache &cache,
             const std::vector<std::size_t> &resident)
{
    return cache.decodeStep(
        resident.size(),
        std::accumulate(resident.begin(), resident.end(), std::size_t{0}));
}

// ---- StepCostCache -------------------------------------------------

TEST(StepCostCache, CachedDecodeEqualsUncachedAcrossRandomShapes)
{
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(7);
    for (const auto &sys : cacheSystems()) {
        accel::StepCostCache cache(sys, m);
        for (int i = 0; i < 50; ++i) {
            const auto resident = randomResident(rng, 24, 4096);
            const auto &cached = cachedDecode(cache, resident);
            const auto uncached =
                accel::simulateBatchedDecodeStep(sys, m, resident);
            expectStepEq(cached, uncached);
            // Second query of the same shape must hit and stay exact.
            expectStepEq(cachedDecode(cache, resident), uncached);
        }
        EXPECT_GT(cache.stats().hits, 0u);
    }
}

TEST(StepCostCache, EqualKeyBatchesProduceIdenticalReports)
{
    // The decode key is (batch size, total resident tokens): every
    // per-member accumuland is an integer-valued double, so the sums
    // are exact and any distribution of the same total over the same
    // batch size yields the same bits — also when the member-at-a-time
    // loop sums them.
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(11);
    for (int i = 0; i < 40; ++i) {
        auto a = randomResident(rng, 16, 4096);
        if (a.size() < 2)
            a.push_back(a.front());
        // Redistribute one token between two members: same (B, N).
        auto b = a;
        std::size_t from = 0;
        while (from < b.size() && b[from] <= 1)
            ++from;
        if (from == b.size())
            continue;
        const std::size_t to = (from + 1) % b.size();
        b[from] -= 1;
        b[to] += 1;
        // And a shuffled permutation: same multiset, same key.
        auto c = a;
        std::shuffle(c.begin(), c.end(), rng);
        const auto ra = accel::simulateBatchedDecodeStep(sys, m, a);
        const auto rb = accel::simulateBatchedDecodeStep(sys, m, b);
        const auto rc = accel::simulateBatchedDecodeStep(sys, m, c);
        expectStepEq(ra, rb);
        expectStepEq(ra, rc);
        for (const auto *members : {&a, &b, &c})
            expectStepEq(ra, accel::detail::batchedDecodeStepLoopReference(
                                 sys, m, *members));
    }
}

TEST(StepCostCache, CapacityCapBypassesWithoutPerturbingValues)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m, /*max_entries=*/4);
    for (std::size_t n = 100; n < 120; ++n) {
        const std::vector<std::size_t> resident{n, n + 1};
        expectStepEq(cachedDecode(cache, resident),
                     accel::simulateBatchedDecodeStep(sys, m, resident));
    }
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().bypasses, 16u);
}

/** A B-member resident vector summing to n (requires n >= b). */
std::vector<std::size_t>
spread(std::size_t b, std::size_t n)
{
    std::vector<std::size_t> r(b, n / b);
    r.back() += n % b;
    return r;
}

TEST(StepCostCache, DenseIndexAcrossPageEdges)
{
    // The decode index pages N by 1024: keys on both sides of an
    // edge, for two batch sizes interleaved, must land in their own
    // slots and read back exactly.
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m);
    const std::size_t ns[] = {1023, 1024, 1025, 2047, 2048};
    for (std::size_t n : ns) {
        for (std::size_t b : {std::size_t{1}, std::size_t{16}}) {
            const auto resident = spread(b, n);
            expectStepEq(cachedDecode(cache, resident),
                         accel::simulateBatchedDecodeStep(sys, m,
                                                          resident));
        }
    }
    EXPECT_EQ(cache.stats().misses, 10u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.entries(), 10u);
    for (std::size_t n : ns) {
        for (std::size_t b : {std::size_t{16}, std::size_t{1}}) {
            SCOPED_TRACE("B " + std::to_string(b) + " N " +
                         std::to_string(n));
            expectStepEq(cache.decodeStep(b, n),
                         accel::simulateBatchedDecodeStep(sys, m,
                                                          spread(b, n)));
        }
    }
    EXPECT_EQ(cache.stats().hits, 10u);
    // Neighbours of stored keys, an untouched page and an unseen
    // batch size are misses with reports of their own, never a stored
    // neighbour's slot.
    const std::size_t fresh[][2] = {
        {1, 1022}, {16, 1026}, {1, 5000}, {2, 1024}, {40, 1024}};
    for (const auto &key : fresh)
        expectStepEq(cache.decodeStep(key[0], key[1]),
                     accel::simulateBatchedDecodeStep(sys, m, key[0],
                                                      key[1]));
    EXPECT_EQ(cache.stats().hits, 10u);
    EXPECT_EQ(cache.stats().misses, 15u);
    EXPECT_EQ(cache.stats().lookups(), 25u);
}

TEST(StepCostCache, ReferencesStayStableAcrossLaterInserts)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m);
    const accel::StepReport &ref = cache.decodeStep(2, 1000);
    const accel::StepReport copy = ref;
    for (std::size_t i = 0; i < 1000; ++i)
        cache.decodeStep(1 + i % 16, 2000 + 7 * i);
    EXPECT_EQ(cache.entries(), 1001u);
    EXPECT_EQ(&ref, &cache.decodeStep(2, 1000));
    expectStepEq(ref, copy);
}

TEST(StepCostCache, ProbeMissThenInsertCountsOneMiss)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m);
    EXPECT_EQ(cache.stats().lookups(), 0u);
    const accel::StepReport &rep = cache.decodeStep(4, 4096);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(&cache.decodeStep(4, 4096), &rep);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(StepCostCache, EntriesCountDecodeShapes)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m, /*max_entries=*/3);
    accel::StepCostCache peer = accel::StepCostCache::sharing(cache);
    EXPECT_EQ(cache.entries(), 0u);
    cache.decodeStep(1, 10);
    cache.decodeStep(1, 10); // hit
    peer.decodeStep(2, 10);  // same N, new B, from a group member
    EXPECT_EQ(cache.entries(), 2u);
    cache.decodeStep(1, 11);
    cache.decodeStep(1, 12); // memo full: bypass
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().bypasses, 1u);
    cache.decodeStep(1, 12); // a bypassed shape was never stored
    EXPECT_EQ(cache.stats().bypasses, 2u);
    EXPECT_EQ(cache.entries(), 3u);
    // The cap counts once per group: the member's one store took a
    // slot of the three, and its next new shape bypasses as well.
    expectStepEq(peer.decodeStep(2, 11),
                 accel::simulateBatchedDecodeStep(sys, m, 2, 11));
    EXPECT_EQ(peer.stats().misses, 1u);
    EXPECT_EQ(peer.stats().bypasses, 1u);
    EXPECT_EQ(peer.entries(), 3u);
}

TEST(StepCostCache, GroupMembersShareOneDecodeMemo)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache a(sys, m);
    accel::StepCostCache b = accel::StepCostCache::sharing(a);
    accel::StepCostCache c = accel::StepCostCache::sharing(a);

    // A report another member stored is a hit, at the same address.
    const accel::StepReport &first = a.decodeStep(4, 1000);
    const accel::StepReport first_copy = first;
    EXPECT_EQ(&b.decodeStep(4, 1000), &first);
    EXPECT_EQ(b.stats().hits, 1u);
    EXPECT_EQ(b.stats().misses, 0u);
    EXPECT_EQ(b.entries(), 1u);

    // A member's miss is stored at once: every other member hits it,
    // at the address the first lookup returned.
    const accel::StepReport &second = b.decodeStep(4, 2000);
    expectStepEq(second,
                 accel::simulateBatchedDecodeStep(sys, m, 4, 2000));
    EXPECT_EQ(b.stats().misses, 1u);
    EXPECT_EQ(&c.decodeStep(4, 2000), &second);
    EXPECT_EQ(&a.decodeStep(4, 2000), &second);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 0u);
    EXPECT_EQ(a.stats().hits, 1u);
    EXPECT_EQ(a.stats().misses, 1u);
    EXPECT_EQ(a.entries(), 2u);

    // Stored references survive many later inserts by other members.
    for (std::size_t i = 0; i < 1000; ++i)
        c.decodeStep(1 + i % 16, 3000 + 7 * i);
    EXPECT_EQ(a.entries(), 1002u);
    EXPECT_EQ(&a.decodeStep(4, 1000), &first);
    expectStepEq(first, first_copy);
}

// ---- TimingTelescoping ---------------------------------------------

TEST(TimingTelescoping, GroupedBatchedDecodeEqualsLoopForm)
{
    // The closed form is exact only while every sum is an integer
    // below 2^53: cover MHA and GQA models up to 13B, and quantized KV
    // and weights, whose odd per-token byte counts feed the roofline.
    auto sweep_systems = cacheSystems();
    for (int bits : {8, 4}) {
        auto q = accel::kelleEdramSystem(2048);
        q.kv.kvBits = bits;
        q.tech.weightBits = bits;
        sweep_systems.push_back(q);
        auto a = accel::aerpSramSystem(1024);
        a.kv.kvBits = bits;
        sweep_systems.push_back(a);
    }
    std::mt19937_64 rng(17);
    for (const auto &m : {model::llama2_7b(), model::llama2_13b(),
                          model::llama3_8b(), model::llama32_3b()}) {
        // The widest batch's MAC sum, the largest accumuland.
        EXPECT_LT(32.0 * m.macsPerDecodeToken(8192), 0x1p53) << m.name;
        for (const auto &sys : sweep_systems) {
            for (int i = 0; i < 80; ++i) {
                const auto resident = randomResident(rng, 32, 8192);
                expectStepEq(
                    accel::simulateBatchedDecodeStep(sys, m, resident),
                    accel::detail::batchedDecodeStepLoopReference(
                        sys, m, resident));
            }
        }
    }
}

TEST(TimingTelescoping, SimulateDecodeStepsAreBatchedDecodeSteps)
{
    // simulate()'s uniform batch of B sequences at n resident tokens
    // is the serving layer's (B, B*n) decode step, on every field. An
    // empty prompt's prefill streams the weights once and runs no
    // MACs, so the run's totals are the decode steps' sums on top of
    // one weight stream, accumulated in step order; decLen crosses
    // every budget clamp. A power-of-two B scales every rounding
    // exactly, so B = 3 and 12 are the batches where sizing AERP
    // recomputation per sequence instead of per batch shows.
    const auto m = model::llama2_7b();
    for (const auto &sys : cacheSystems()) {
        for (std::size_t b : {1, 3, 4, 12, 16}) {
            SCOPED_TRACE(sys.name + " B " + std::to_string(b));
            accel::Workload w;
            w.model = m;
            w.ctxLen = 0;
            w.decLen = 2500;
            w.batch = b;
            const auto run = accel::simulate(sys, w);
            Time latency = Time::seconds(0);
            accel::EnergyBreakdown energy;
            double dram = m.weightBytes(sys.tech.weightBits);
            double macs = 0.0;
            for (std::size_t t = 0; t < w.decLen; ++t) {
                std::size_t n = t + 1;
                if (sys.kv.evict)
                    n = std::min(n, sys.kv.budget);
                const auto step =
                    accel::simulateBatchedDecodeStep(sys, m, b, b * n);
                latency += step.latency;
                energy += step.energy;
                dram += step.dramBytes;
                macs += step.macs;
            }
            EXPECT_EQ(run.decodeLatency.sec(), latency.sec());
            expectEnergyEq(run.decodeEnergy, energy);
            EXPECT_EQ(run.dramBytesTotal, dram);
            EXPECT_EQ(run.macsTotal, macs);
        }
    }
}

// ---- FastPathEquivalence -------------------------------------------

serving::ServingConfig
smallServingConfig(std::uint64_t seed, serving::SchedulePolicy policy,
                   std::size_t chunk)
{
    serving::ServingConfig cfg;
    cfg.traffic.ratePerSec = 0.05;
    cfg.traffic.numRequests = 14;
    cfg.traffic.seed = seed;
    cfg.policy = policy;
    cfg.chunkTokens = chunk;
    return cfg;
}

/** A single-device session: a 1-device round-robin cluster of the
 *  default device (Kelle+eDRAM, §8.4.1 pool, batch cap 16). */
serving::ServingReport
runOneDevice(const serving::ServingConfig &cfg)
{
    cluster::ClusterConfig c;
    c.engine = cfg;
    c.devices = cluster::homogeneousFleet(1);
    return cluster::ClusterEngine(c).run().aggregate;
}

TEST(FastPathEquivalence, SchedulerFastVsSlowAcrossPolicies)
{
    for (const auto policy : serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{256}}) {
            for (std::uint64_t seed : {7ull, 42ull}) {
                auto fast = smallServingConfig(seed, policy, chunk);
                auto slow = fast;
                slow.fastSim = false;
                const auto fr = runOneDevice(fast);
                const auto sr = runOneDevice(slow);
                expectReportEq(fr, sr);
            }
        }
    }
}

TEST(FastPathEquivalence, ClusterFastVsSlowHeteroFleet)
{
    for (const auto dispatch : cluster::allDispatchPolicies()) {
        for (bool preempt : {false, true}) {
            cluster::ClusterConfig cfg;
            cfg.engine = smallServingConfig(
                42, serving::SchedulePolicy::ContinuousBatching, 0);
            cfg.engine.traffic.numRequests = 16;
            cfg.engine.traffic.ratePerSec = 0.1;
            cfg.engine.traffic.slo.tpotSec = preempt ? 0.15 : 0.0;
            cfg.engine.preempt.enabled = preempt;
            cfg.dispatch = dispatch;
            cfg.devices = cluster::heteroEdramSramFleet(
                2, 2048, 8192, 4096, 8);
            auto slow_cfg = cfg;
            slow_cfg.engine.fastSim = false;
            cluster::ClusterEngine fast(cfg);
            cluster::ClusterEngine slow(slow_cfg);
            const auto fr = fast.run();
            const auto sr = slow.run();
            expectReportEq(fr.aggregate, sr.aggregate);
            ASSERT_EQ(fr.devices.size(), sr.devices.size());
            for (std::size_t i = 0; i < fr.devices.size(); ++i) {
                expectReportEq(fr.devices[i].report,
                               sr.devices[i].report);
                EXPECT_EQ(fr.devices[i].dispatched,
                          sr.devices[i].dispatched);
                EXPECT_EQ(fr.devices[i].busySec, sr.devices[i].busySec);
                EXPECT_EQ(fr.devices[i].kvPeakUtilization,
                          sr.devices[i].kvPeakUtilization);
            }
            EXPECT_EQ(fr.loadImbalanceCv, sr.loadImbalanceCv);
            EXPECT_EQ(fr.refreshEnergyJ, sr.refreshEnergyJ);
            expectRequestsEq(fast.requests(), slow.requests());
        }
    }
}

TEST(FastPathEquivalence, UntracedClusterEnergyMatchesEventPath)
{
    // Untraced fast-forward windows apply runs of clamped decode steps
    // in one update; the energy must still equal the step-at-a-time
    // sums bit for bit, in the aggregate and on every device. The
    // hetero fleet is the CI clamped-run config (bench_cluster
    // --devices 2 --hetero --rate 0.015 --requests 200); the
    // homogeneous fleet's devices share one decode memo.
    const auto m = model::llama2_7b();
    const auto edram = accel::kelleEdramSystem(2048);
    const std::size_t pool =
        accel::maxSupportedTokens(m, accel::capacitySpecOf(edram))
            .maxTokens;
    struct Fleet
    {
        const char *label;
        double rate;
        std::vector<cluster::DeviceSpec> devices;
    };
    const Fleet fleets[] = {
        {"hetero2", 0.015,
         cluster::heteroEdramSramFleet(2, 2048, pool, pool / 2, 16)},
        {"homog4", 0.03, cluster::homogeneousFleet(4, edram, pool, 16)},
    };
    for (const Fleet &fleet : fleets) {
        for (const auto dispatch : cluster::allDispatchPolicies()) {
            SCOPED_TRACE(std::string(fleet.label) + "/" +
                         toString(dispatch));
            cluster::ClusterConfig cfg;
            cfg.engine.model = m;
            cfg.engine.traffic.ratePerSec = fleet.rate;
            cfg.engine.traffic.numRequests = 200;
            cfg.engine.traffic.seed = 42;
            cfg.dispatch = dispatch;
            cfg.devices = fleet.devices;
            auto slow_cfg = cfg;
            slow_cfg.engine.fastSim = false;
            cluster::ClusterEngine fast(cfg);
            const auto fr = fast.run();
            const auto sr = cluster::ClusterEngine(slow_cfg).run();
            ASSERT_EQ(fr.aggregate.summary.completed, 200u);
            expectEnergyEq(fr.aggregate.summary.energy,
                           sr.aggregate.summary.energy);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(fr.refreshEnergyJ),
                      std::bit_cast<std::uint64_t>(sr.refreshEnergyJ));
            ASSERT_EQ(fr.devices.size(), sr.devices.size());
            for (std::size_t i = 0; i < fr.devices.size(); ++i) {
                SCOPED_TRACE("device " + std::to_string(i));
                expectEnergyEq(fr.devices[i].report.summary.energy,
                               sr.devices[i].report.summary.energy);
            }
            // The fast path did the stepping.
            std::uint64_t ffwd = 0;
            for (std::size_t i = 0; i < fast.deviceCount(); ++i)
                ffwd += fast.device(i).fastForwardedSteps();
            EXPECT_GT(ffwd, fr.aggregate.decodeSteps / 2);
        }
    }
}

/** One DeviceEngine run over hand-built requests, each enqueued at
 *  its arrival, with no-op events at `noops` bounding fast-forward
 *  windows, when `crash_at` > 0 a device crash whose victims are not
 *  re-dispatched, and whatever further events `extra` schedules. A
 *  latency waterfall rides the run when `waterfall` is set, a trace
 *  (returned as its JSON) when `traced` is. */
struct DeviceRun
{
    std::vector<serving::Request> requests;
    std::vector<obs::WaterfallEntry> waterfall;
    std::uint64_t decodeSteps = 0;
    std::uint64_t fastForwarded = 0;
    double busySec = 0.0;
    serving::ServingSummary summary;
    std::uint64_t deferrals = 0;
    std::uint64_t budgetClips = 0;
    accel::StepCostCache::Stats cache;
    std::string trace; ///< the trace's JSON, when traced
};

using ExtraEvents =
    std::function<void(sim::EventQueue &, serving::DeviceEngine &,
                       std::vector<serving::Request> &)>;

DeviceRun
runDevice(serving::DeviceConfig cfg, const serving::DeviceSpec &spec,
          bool fast,
          std::vector<serving::Request> requests,
          const std::vector<double> &noops, double crash_at,
          const ExtraEvents &extra, bool waterfall = true,
          bool traced = false)
{
    cfg.fastSim = fast;
    DeviceRun run;
    run.requests = std::move(requests);
    sim::EventQueue queue;
    serving::DeviceEngine engine(cfg, spec, queue, run.requests);
    obs::LatencyWaterfall wf;
    wf.beginRun(run.requests.size());
    if (waterfall)
        engine.setWaterfall(&wf, 0);
    obs::TraceRecorder rec;
    if (traced)
        engine.setTrace(rec.addDeviceTrack("dev"));
    for (double t : noops)
        queue.schedule(sim::SimTime::fromSec(t), [] {});
    std::vector<std::size_t> victims;
    std::uint64_t lost = 0;
    if (crash_at > 0.0)
        queue.schedule(sim::SimTime::fromSec(crash_at), [&] {
            engine.crashAt(queue.now(), &victims, &lost);
        });
    if (extra)
        extra(queue, engine, run.requests);
    for (std::size_t i = 0; i < run.requests.size(); ++i)
        queue.schedule(run.requests[i].arrival,
                       [&engine, i] { engine.enqueue(i); });
    while (queue.runNext()) {
    }
    EXPECT_TRUE(engine.drained());
    run.decodeSteps = engine.decodeSteps();
    run.fastForwarded = engine.fastForwardedSteps();
    run.busySec = engine.busyTime().sec();
    run.summary = engine.metrics().summarize(
        Time::seconds(engine.lastCompletion().sec()));
    run.deferrals = engine.allocator().deferrals();
    run.budgetClips = engine.allocator().budgetClips();
    run.waterfall = wf.entries();
    run.cache = engine.costCacheStats();
    if (traced)
        run.trace = rec.toJson();
    return run;
}

/** Every stamp, flag and component of two waterfalls, entry by entry
 *  (a crash victim's entry stays open, so non-terminal ones count). */
void
expectWaterfallsEq(const std::vector<obs::WaterfallEntry> &a,
                   const std::vector<obs::WaterfallEntry> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const obs::WaterfallEntry &x = a[i];
        const obs::WaterfallEntry &y = b[i];
        SCOPED_TRACE("waterfall entry " + std::to_string(i));
        EXPECT_EQ(x.reqId, y.reqId);
        EXPECT_EQ(x.device, y.device);
        EXPECT_EQ(x.terminal, y.terminal);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.deferred, y.deferred);
        EXPECT_EQ(x.preempted, y.preempted);
        EXPECT_EQ(x.faulted, y.faulted);
        EXPECT_EQ(x.missedTtft, y.missedTtft);
        EXPECT_EQ(x.missedTpot, y.missedTpot);
        EXPECT_EQ(x.cause, y.cause);
        EXPECT_EQ(x.arrival, y.arrival);
        EXPECT_EQ(x.firstDefer, y.firstDefer);
        EXPECT_EQ(x.admitted, y.admitted);
        EXPECT_EQ(x.firstToken, y.firstToken);
        EXPECT_EQ(x.preemptAt, y.preemptAt);
        EXPECT_EQ(x.resumeAt, y.resumeAt);
        EXPECT_EQ(x.finished, y.finished);
        EXPECT_EQ(x.ttftNs, y.ttftNs);
        EXPECT_EQ(x.e2eNs, y.e2eNs);
        for (std::size_t c = 0; c < obs::kLatencyComponentCount; ++c)
            EXPECT_EQ(x.components[c], y.components[c])
                << "component " << c;
        EXPECT_EQ(x.decodeAtLoss[0], y.decodeAtLoss[0]);
        EXPECT_EQ(x.decodeAtLoss[1], y.decodeAtLoss[1]);
    }
}

serving::Request
decodeRequest(std::uint64_t id, std::size_t ctx, std::size_t dec,
              std::size_t budget, double tpot_target = 0.0,
              double arrival = 0.0)
{
    serving::Request r;
    r.id = id;
    r.task = sim::triviaQa();
    r.task.ctxLen = ctx;
    r.task.decLen = dec;
    r.task.budget = budget;
    r.task.recentWindow = 64; // floor 82 tokens: budgets stay as given
    r.tpotTargetSec = tpot_target;
    r.arrival = sim::SimTime::fromSec(arrival);
    return r;
}

/** A Kelle+eDRAM device with a `pool_tokens`-token KV pool. */
serving::DeviceSpec
deviceWithPool(std::size_t pool_tokens, std::size_t max_batch = 16)
{
    serving::DeviceSpec d;
    d.poolTokens = pool_tokens;
    d.maxBatch = max_batch;
    return d;
}

/** Fast and slow runs of one scenario agree on every request field
 *  and report; returns the fast run for scenario-specific checks. */
DeviceRun
expectDeviceFastEqualsSlow(const serving::DeviceConfig &cfg,
                           const serving::DeviceSpec &spec,
                           const std::vector<serving::Request> &requests,
                           const std::vector<double> &noops = {},
                           double crash_at = 0.0,
                           const ExtraEvents &extra = {},
                           bool waterfall = true)
{
    const DeviceRun fast = runDevice(cfg, spec, true, requests, noops,
                                     crash_at, extra, waterfall);
    const DeviceRun slow = runDevice(cfg, spec, false, requests, noops,
                                     crash_at, extra, waterfall);
    expectRequestsEq(fast.requests, slow.requests);
    expectWaterfallsEq(fast.waterfall, slow.waterfall);
    expectSummaryEq(fast.summary, slow.summary);
    EXPECT_EQ(fast.decodeSteps, slow.decodeSteps);
    EXPECT_EQ(fast.deferrals, slow.deferrals);
    EXPECT_EQ(fast.budgetClips, slow.budgetClips);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.busySec),
              std::bit_cast<std::uint64_t>(slow.busySec));
    EXPECT_EQ(slow.fastForwarded, 0u);
    return fast;
}

TEST(FastPathEquivalence, DeferredMemberBookkeepingMatchesEventPath)
{
    // Inside a fast-forward window the members' token counters and
    // waterfall decode shares are applied at sync boundaries (with a
    // paged pool, page edges; with a replayed round, rounds not at
    // their fixpoint) and when the window ends, where each member's
    // own first gap joins the shared running max.
    serving::DeviceConfig cfg;
    const serving::DeviceSpec roomy = deviceWithPool(16384);
    const double step_sec =
        accel::simulateBatchedDecodeStep(roomy.system, cfg.model,
                                         {513, 513})
            .latency.sec();

    // Members clamping at different boundaries of one window
    // (generated 48, 100 and 200), so the growth count and the
    // resident rebuild on cache misses walk the sorted clamp steps.
    // A second, identical wave replays the same cost keys as cache
    // hits, which only a correct growth count finds.
    {
        SCOPED_TRACE("staggered clamps");
        std::vector<serving::Request> waves;
        for (double at : {0.0, 60.0}) {
            const auto id = static_cast<std::uint64_t>(waves.size());
            waves.push_back(decodeRequest(id, 512, 300, 560, 0.0, at));
            waves.push_back(decodeRequest(id + 1, 600, 300, 700, 0.0, at));
            waves.push_back(decodeRequest(id + 2, 700, 300, 900, 0.0, at));
        }
        const DeviceRun run = expectDeviceFastEqualsSlow(cfg, roomy, waves);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // A crash orphans the step after a window: growing residents
    // make the window's last deferred gap each member's longest, and
    // no event-path boundary follows to re-record it.
    {
        SCOPED_TRACE("crash after window");
        const double crash_at = 5.0 + 150.0 * step_sec;
        const DeviceRun run = expectDeviceFastEqualsSlow(
            cfg, roomy,
            {decodeRequest(0, 512, 400, 1000),
             decodeRequest(1, 512, 400, 1000)},
            {}, crash_at);
        EXPECT_GT(run.fastForwarded, 100u);
        EXPECT_GT(run.requests[1].maxTokenGapSec, step_sec);
    }

    // A preemption doom stop mid-window: request 0 is doomed after
    // ~200 of its 400 steps while request 2 waits on the batch cap,
    // so the window stops there and the event path preempts it
    // (resetting its progress) from the flushed counters.
    {
        SCOPED_TRACE("doom stop");
        auto pcfg = cfg;
        pcfg.preempt.enabled = true;
        const DeviceRun run = expectDeviceFastEqualsSlow(
            pcfg, deviceWithPool(16384, 2),
            {decodeRequest(0, 512, 400, 600, 0.5 * step_sec),
             decodeRequest(1, 512, 400, 600),
             decodeRequest(2, 512, 50, 600)});
        EXPECT_EQ(run.requests[0].preemptions, 1u);
        EXPECT_GT(run.fastForwarded, 300u);
    }

    // Windows cut by pending events after 0, 1, or a few boundaries:
    // no-ops spaced 0.4, 1.7 and 3.5 steps apart, then a free run.
    {
        SCOPED_TRACE("short windows");
        std::vector<double> noops;
        double t = 0.0;
        for (int i = 0; i < 300; ++i) {
            t += step_sec * (i % 3 == 0 ? 0.4 : i % 3 == 1 ? 1.7 : 3.5);
            noops.push_back(t);
        }
        const DeviceRun run = expectDeviceFastEqualsSlow(
            cfg, roomy,
            {decodeRequest(0, 512, 600, 560),
             decodeRequest(1, 512, 600, 900)},
            noops);
        EXPECT_GT(run.fastForwarded, 0u);
        EXPECT_LT(run.fastForwarded + 150, run.decodeSteps);
    }

    // Paged pools sync the members at page edges and at replayed
    // deferral rounds not at their fixpoint, and defer in between.
    serving::DeviceConfig paged = cfg;
    paged.paged.enabled = true;
    paged.paged.blockTokens = 16;

    // 16-token pages put a page edge every 16 boundaries of each
    // member, so one window crosses many of them, while the clamps
    // stay staggered as above.
    {
        SCOPED_TRACE("paged page edges");
        std::vector<serving::Request> waves;
        for (double at : {0.0, 60.0}) {
            const auto id = static_cast<std::uint64_t>(waves.size());
            waves.push_back(decodeRequest(id, 512, 300, 560, 0.0, at));
            waves.push_back(decodeRequest(id + 1, 600, 300, 700, 0.0, at));
            waves.push_back(decodeRequest(id + 2, 700, 300, 900, 0.0, at));
        }
        const DeviceRun run = expectDeviceFastEqualsSlow(paged, roomy, waves);
        EXPECT_GT(run.fastForwarded, 500u);
        EXPECT_EQ(run.budgetClips, 0u);
    }

    // A pool too small for every budget: chain growth fails inside a
    // window and clamps the members' budgets there (at staggered
    // boundaries), moving both their clamp steps and the next page
    // edge. A stale clamp step only skews the cost key, and a miss
    // re-costs from the true residents, so a second, identical wave
    // replays the keys as cache hits, where a skewed key lands on a
    // wrong entry.
    {
        SCOPED_TRACE("paged growth failure");
        std::vector<serving::Request> waves;
        for (double at : {0.0, 60.0}) {
            const auto id = static_cast<std::uint64_t>(waves.size());
            waves.push_back(decodeRequest(id, 512, 300, 900, 0.0, at));
            waves.push_back(decodeRequest(id + 1, 520, 300, 900, 0.0, at));
            waves.push_back(decodeRequest(id + 2, 530, 300, 900, 0.0, at));
        }
        const DeviceRun run = expectDeviceFastEqualsSlow(paged, deviceWithPool(1700), waves);
        EXPECT_GT(run.budgetClips, 0u);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // A KV-blocked waiter whose replayed round, not at its fixpoint,
    // clamps the running budgets: the clamp keeps each member's
    // resident, so the flush must precede the round. A pool-shrink
    // fault defers waiter 2 on the degraded capacity while the free
    // pages still cover its 218-token floor, so the event-path rounds
    // clamp nothing; inside the next window the members' page edges
    // push the free pages below that floor, and the round after such
    // an edge clamps both members to what they hold.
    {
        const serving::DeviceSpec tight = deviceWithPool(1216);
        std::vector<serving::Request> reqs = {
            decodeRequest(0, 32, 600, 700),
            decodeRequest(1, 400, 600, 1200),
            decodeRequest(2, 100, 50, 300, 0.0, 20.0 * step_sec)};
        reqs[2].task.recentWindow = 200;
        const ExtraEvents extra = [step_sec](
                                      sim::EventQueue &q,
                                      serving::DeviceEngine &e,
                                      std::vector<serving::Request> &) {
            q.schedule(sim::SimTime::fromSec(10.0 * step_sec),
                       [&q, &e] {
                           e.disruptAt(q.now(),
                                       faults::FaultKind::PoolShrink, 0.5);
                       });
        };
        {
            SCOPED_TRACE("paged budget clamp");
            const DeviceRun run =
                expectDeviceFastEqualsSlow(paged, tight, reqs, {}, 0.0, extra);
            EXPECT_EQ(run.budgetClips, 2u);
            EXPECT_GT(run.deferrals, 100u);
            EXPECT_GT(run.fastForwarded, 500u);
        }

        // The same run with that page edge on the step that opens a
        // window: a no-op just before the edge's boundary ends the
        // window there, so the event path runs the round (which
        // clamps nothing) and the step's chain growth, which takes
        // the free pages below the floor. The event path's round is
        // the window's first replayed round, and it is not at its
        // fixpoint: the window's first boundary runs a real round,
        // which clamps both members. Taking it for a fixpoint would
        // clamp them a page edge late. The edge is found on the event
        // path, so the scenario holds if step costs change.
        SCOPED_TRACE("paged clamp on a window's first round");
        sim::SimTime edge;
        {
            auto slow = paged;
            slow.fastSim = false;
            std::vector<serving::Request> probe = reqs;
            sim::EventQueue q;
            serving::DeviceEngine e(slow, tight, q, probe);
            extra(q, e, probe);
            for (std::size_t i = 0; i < probe.size(); ++i)
                q.schedule(probe[i].arrival, [&e, i] { e.enqueue(i); });
            const std::size_t floor = 218;
            while (edge == sim::SimTime() && q.runNext()) {
                if (e.allocator().availableTokens() < floor)
                    edge = q.now();
            }
            ASSERT_GT(edge.sec(), reqs[2].arrival.sec());
        }
        const DeviceRun run = expectDeviceFastEqualsSlow(
            paged, tight, reqs, {edge.sec() - 0.5 * step_sec}, 0.0,
            extra);
        EXPECT_EQ(run.budgetClips, 2u);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // A crash right after a paged window: the flush at the window's
    // end, not a later boundary, must leave the counters the crash
    // reads.
    {
        SCOPED_TRACE("paged crash after window");
        const double crash_at = 5.0 + 150.0 * step_sec;
        const DeviceRun run = expectDeviceFastEqualsSlow(
            paged, roomy,
            {decodeRequest(0, 512, 400, 1000),
             decodeRequest(1, 512, 400, 1000)},
            {}, crash_at);
        EXPECT_GT(run.fastForwarded, 100u);
        EXPECT_GT(run.requests[1].maxTokenGapSec, step_sec);
    }

    // Runs of identical steps: once every member is clamped, an
    // untraced window applies the boundaries up to its horizon in one
    // update. Budgets 48 and 40 tokens past the prompts clamp both
    // members early, so most of each decode is such a run.
    for (const bool paged_pool : {false, true}) {
        const serving::DeviceConfig &base = paged_pool ? paged : cfg;
        SCOPED_TRACE(paged_pool ? "paged pool" : "contiguous pool");

        // Runs cut by the horizon: a no-op mid-run, then an arrival
        // that joins the batch at the first boundary after it — one
        // boundary too many inside the run would admit it late. On
        // the paged pool the members cross three page edges before
        // they clamp; no page edge can lie inside a run.
        {
            SCOPED_TRACE("clamped run cut by the horizon");
            const DeviceRun run = expectDeviceFastEqualsSlow(
                base, roomy,
                {decodeRequest(0, 512, 600, 560),
                 decodeRequest(1, 600, 600, 640),
                 decodeRequest(2, 512, 300, 540, 0.0, 150.5 * step_sec)},
                {90.3 * step_sec, 420.7 * step_sec});
            EXPECT_GT(run.fastForwarded, 550u);
            EXPECT_EQ(run.budgetClips, 0u);
        }

        // Runs inside a deferral replay at its fixpoint: the members
        // hold all but 50 tokens of the pool (no watermark shrinks
        // their grants), so the waiter's 82-token floor is deferred
        // at every boundary until member 1 completes; a run adds its
        // deferrals in one update.
        {
            SCOPED_TRACE("clamped run in a fixpoint deferral replay");
            auto tight = base;
            tight.highWatermark = 1.0;
            const DeviceRun run = expectDeviceFastEqualsSlow(
                tight, deviceWithPool(1250),
                {decodeRequest(0, 512, 600, 560),
                 decodeRequest(1, 600, 400, 640),
                 decodeRequest(2, 100, 50, 300, 0.0, 100.5 * step_sec)});
            EXPECT_GT(run.deferrals, 250u);
            EXPECT_GT(run.fastForwarded, 550u);
        }
    }
}

TEST(FastPathEquivalence, StridedRunsMatchEventPath)
{
    // Between syncs of an untraced window, while some member still
    // grows, a boundary only moves the clock and adds the growing
    // members to the resident total, so it re-costs the step at
    // N + stride. Such boundaries run in one loop across clamp steps
    // up to the next page edge or horizon, or the end of the window's
    // budget, in traced and untraced windows alike. Every scenario
    // must match the event path (fastSim off) field for field, look
    // the memo up exactly as the traced run does, and trace the same
    // bytes as a traced event-path run.
    serving::DeviceConfig cfg;
    const serving::DeviceSpec roomy = deviceWithPool(16384);
    const double step_sec =
        accel::simulateBatchedDecodeStep(roomy.system, cfg.model,
                                         {513, 513})
            .latency.sec();
    serving::DeviceConfig paged = cfg;
    paged.paged.enabled = true;
    paged.paged.blockTokens = 16;

    const auto check = [](const serving::DeviceConfig &c,
                          const serving::DeviceSpec &spec,
                          const std::vector<serving::Request> &reqs,
                          const std::vector<double> &noops = {},
                          const ExtraEvents &extra = {},
                          bool waterfall = true) {
        const DeviceRun fast = expectDeviceFastEqualsSlow(
            c, spec, reqs, noops, 0.0, extra, waterfall);
        const DeviceRun traced = runDevice(c, spec, true, reqs, noops, 0.0,
                                           extra, waterfall, true);
        expectRequestsEq(fast.requests, traced.requests);
        EXPECT_EQ(fast.cache.hits, traced.cache.hits);
        EXPECT_EQ(fast.cache.misses, traced.cache.misses);
        EXPECT_EQ(fast.cache.bypasses, traced.cache.bypasses);
        EXPECT_EQ(fast.fastForwarded, traced.fastForwarded);
        const DeviceRun traced_slow = runDevice(
            c, spec, false, reqs, noops, 0.0, extra, waterfall, true);
        EXPECT_FALSE(traced.trace.empty());
        EXPECT_TRUE(traced.trace == traced_slow.trace)
            << "fast and event-path traces differ";
        return fast;
    };
    // Two identical waves of three members; the second replays the
    // first's cost keys as memo hits, which only a correct stride
    // finds. `budget_past` tokens past each member's own end.
    const auto waves = [](std::size_t budget_past0,
                          std::size_t budget_past1,
                          std::size_t budget_past2) {
        std::vector<serving::Request> reqs;
        for (double at : {0.0, 60.0}) {
            const auto id = static_cast<std::uint64_t>(reqs.size());
            reqs.push_back(decodeRequest(id, 512, 300, 512 + budget_past0,
                                         0.0, at));
            reqs.push_back(decodeRequest(id + 1, 600, 300,
                                         600 + budget_past1, 0.0, at));
            reqs.push_back(decodeRequest(id + 2, 700, 300,
                                         700 + budget_past2, 0.0, at));
        }
        return reqs;
    };

    // Runs cut by each member's clamp step (after 48, 100 and 200 of
    // 300 boundaries), with and without a waterfall to charge.
    for (const bool waterfall : {true, false}) {
        SCOPED_TRACE(waterfall ? "clamp steps, waterfall"
                               : "clamp steps, no waterfall");
        const DeviceRun run =
            check(cfg, roomy, waves(48, 100, 200), {}, {}, waterfall);
        EXPECT_GT(run.fastForwarded, 500u);
        EXPECT_GT(run.cache.hits, 150u);
    }

    // Runs cut by the horizon mid-run: no-ops 7.3, 23.6 and 41.5 steps
    // apart while every member grows to its end.
    {
        SCOPED_TRACE("horizon");
        std::vector<double> noops;
        double t = 0.0;
        for (int i = 0; i < 60; ++i) {
            t += step_sec * (i % 3 == 0 ? 7.3 : i % 3 == 1 ? 23.6 : 41.5);
            noops.push_back(t);
        }
        const DeviceRun run = check(cfg, roomy, waves(400, 400, 400), noops);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // Runs cut by page edges: 16-token pages put one every 16
    // boundaries of each member, staggered by the prompts.
    {
        SCOPED_TRACE("page edges");
        const DeviceRun run = check(paged, roomy, waves(48, 100, 400));
        EXPECT_GT(run.fastForwarded, 500u);
        EXPECT_EQ(run.budgetClips, 0u);
    }

    // A pool too small for every budget: chain growth fails at page
    // edges and clamps the members there. A run past an edge would
    // miss that clamp and keep growing the resident total.
    {
        SCOPED_TRACE("page edges, growth failure");
        const DeviceRun run =
            check(paged, deviceWithPool(1700), waves(400, 400, 400));
        EXPECT_GT(run.budgetClips, 0u);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // Runs under a slowdown fault: every re-cost scales the latency
    // by 1.37 over most of the first wave, where runs end at no-ops
    // and at two members' clamp steps.
    {
        SCOPED_TRACE("slowdown");
        const ExtraEvents extra = [step_sec](
                                      sim::EventQueue &q,
                                      serving::DeviceEngine &e,
                                      std::vector<serving::Request> &) {
            q.schedule(sim::SimTime::fromSec(20.5 * step_sec),
                       [&q, &e] {
                           e.disruptAt(q.now(),
                                       faults::FaultKind::Slowdown, 1.37);
                       });
            q.schedule(sim::SimTime::fromSec(400.5 * step_sec),
                       [&q, &e] {
                           e.recoverAt(q.now(),
                                       faults::FaultKind::Slowdown);
                       });
        };
        const DeviceRun run =
            check(cfg, roomy, waves(48, 100, 400),
                  {150.3 * step_sec, 260.7 * step_sec}, extra);
        EXPECT_GT(run.fastForwarded, 500u);
    }

    // Runs inside a replayed deferral round at its fixpoint: the
    // growing members' grants hold all but 50 tokens of the pool, so
    // the waiter's 82-token floor is deferred at every boundary until
    // member 1 completes, and a run adds its deferrals in one update.
    {
        SCOPED_TRACE("fixpoint round");
        auto tight = cfg;
        tight.highWatermark = 1.0;
        const DeviceRun run =
            check(tight, deviceWithPool(1250),
                  {decodeRequest(0, 300, 600, 560),
                   decodeRequest(1, 400, 400, 640),
                   decodeRequest(2, 100, 50, 300, 0.0, 50.5 * step_sec)});
        EXPECT_GT(run.deferrals, 250u);
        EXPECT_GT(run.fastForwarded, 550u);
    }
}

// ---- DoomClock -----------------------------------------------------

TEST(DoomClock, DoomOnAStepBoundaryPreemptsAtThatBoundary)
{
    // On the integer clock the doom test `now - firstToken >
    // doomAfter()` is exact. Place request 0's doom instant — the
    // first tick past firstToken + doomAfter() — exactly on one of
    // its decode step boundaries: the preemption scan must fire at
    // that boundary with fastSim on (the fast-forward window stops
    // there) and off, and the cluster's requeue bound must never lie
    // past it. Request 1 waits on the batch cap, so the scan runs at
    // every boundary.
    serving::DeviceConfig cfg;
    const serving::DeviceSpec single = deviceWithPool(16384, 1);
    struct Run
    {
        std::vector<serving::Request> requests;
        std::vector<sim::SimTime> boundaries; ///< decode step starts
        sim::SimTime preemptAt;
        sim::SimTime latestBound; ///< max requeue bound before it
        std::uint64_t fastForwarded = 0;
    };
    const auto run = [&cfg, &single](std::vector<serving::Request> reqs,
                                     bool fast) {
        serving::DeviceConfig c = cfg;
        c.fastSim = fast;
        c.preempt.enabled = reqs[0].tpotTargetSec > 0.0;
        Run out;
        out.requests = std::move(reqs);
        sim::EventQueue queue;
        obs::TraceRecorder rec;
        serving::DeviceEngine engine(c, single, queue, out.requests);
        engine.setTrace(rec.addDeviceTrack("dev"));
        engine.enqueue(0);
        engine.enqueue(1);
        while (queue.runNext()) {
            if (out.requests[0].preemptions == 0)
                out.latestBound =
                    std::max(out.latestBound,
                             engine.nextPossibleRequeueTime(queue.now()));
        }
        EXPECT_TRUE(engine.drained());
        for (const obs::TraceEvent &e : rec.deviceTracks()[0]->events()) {
            if (e.kind == obs::TraceEventKind::DecodeStep)
                out.boundaries.push_back(e.ts);
            else if (e.kind == obs::TraceEventKind::Preempt)
                out.preemptAt = e.ts;
        }
        out.fastForwarded = engine.fastForwardedSteps();
        return out;
    };

    std::vector<serving::Request> reqs = {
        decodeRequest(0, 512, 400, 600), decodeRequest(1, 512, 400, 600)};
    const Run plain = run(reqs, true);
    ASSERT_GT(plain.boundaries.size(), 300u);
    const sim::SimTime boundary = plain.boundaries[200];
    const std::int64_t doom_ns =
        (boundary - plain.requests[0].firstToken).ns() - 1;
    reqs[0].tpotTargetSec = static_cast<double>(doom_ns) * 1e-9 / 400.0;
    ASSERT_EQ(reqs[0].doomAfter().ns(), doom_ns);

    const Run fast = run(reqs, true);
    const Run slow = run(reqs, false);
    expectRequestsEq(fast.requests, slow.requests);
    for (const Run *r : {&fast, &slow}) {
        SCOPED_TRACE(r == &fast ? "fastSim on" : "fastSim off");
        EXPECT_EQ(r->requests[0].preemptions, 1u);
        EXPECT_EQ(r->preemptAt.ns(), boundary.ns());
        EXPECT_EQ(r->latestBound.ns(), boundary.ns());
    }
    EXPECT_GT(fast.fastForwarded, 150u);
    EXPECT_EQ(slow.fastForwarded, 0u);
}

TEST(DoomClock, NeverAdmittableArrivalPreemptsNothing)
{
    // Request 0 is doomed from its first decode step (a 1 ns TPOT
    // target) and preemption is on. Request 1 arrives mid-decode with
    // a floor above the whole pool: it is rejected on arrival, so it
    // is never waiting demand and the doomed decode keeps its grant.
    serving::DeviceConfig cfg;
    const serving::DeviceSpec device = deviceWithPool(4096);
    cfg.preempt.enabled = true;
    std::vector<serving::Request> base = {
        decodeRequest(0, 512, 400, 600, 1e-9),
        decodeRequest(1, 512, 400, 600)};
    base[1].task.recentWindow = 8192; // floor 8210 > 4096
    // Request 0 alone finds its decode span; request 1 arrives halfway
    // through it.
    sim::SimTime arrive;
    {
        std::vector<serving::Request> dry = base;
        sim::EventQueue queue;
        serving::DeviceEngine engine(cfg, device, queue, dry);
        engine.enqueue(0);
        queue.runAll();
        arrive = dry[0].firstToken +
                 sim::SimTime::nanos(
                     (dry[0].completed - dry[0].firstToken).ns() / 2);
    }
    for (const bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "fastSim on" : "fastSim off");
        cfg.fastSim = fast;
        std::vector<serving::Request> requests = base;
        sim::EventQueue queue;
        serving::DeviceEngine engine(cfg, device, queue, requests);
        ASSERT_FALSE(engine.canEverAdmit(requests[1]));
        engine.enqueue(0);
        queue.schedule(arrive, [&] {
            EXPECT_EQ(requests[0].state, serving::RequestState::Decoding);
            engine.enqueue(1);
            EXPECT_EQ(engine.waitingCount(), 0u);
        });
        queue.runAll();
        EXPECT_EQ(requests[0].preemptions, 0u);
        EXPECT_EQ(requests[0].state, serving::RequestState::Completed);
        EXPECT_EQ(requests[1].state, serving::RequestState::Rejected);
        const serving::ServingSummary s = engine.metrics().summarize(
            Time::seconds(queue.now().sec()));
        EXPECT_EQ(s.preemptions, 0u);
        EXPECT_EQ(s.rejected, 1u);
    }
}

// ---- AllocationFree ------------------------------------------------

TEST(AllocationFree, SteadyStateDecodeSteppingAllocatesNothing)
{
    // One long-decode request whose context already exceeds its AERP
    // budget (QP: ctx 1024, budget 1024), so the resident multiset is
    // pinned from the first decode step and the cost cache hits from
    // step two on. Dummy events pace the queue so both real and
    // fast-forwarded boundaries are exercised. In the paged run the
    // member is clamped inside its chain (prefill grew it to the
    // budget), so its windows have no sync boundary at all.
    for (const bool paged : {false, true}) {
        SCOPED_TRACE(paged ? "paged" : "contiguous");
        sim::EventQueue queue;
        queue.reserve(2048);
        std::vector<serving::Request> requests;
        serving::Request r;
        r.id = 0;
        r.task = sim::qasper();
        r.arrival = sim::SimTime::fromSec(0);
        requests.push_back(r);

        serving::DeviceConfig cfg;
        cfg.paged.enabled = paged;
        serving::DeviceEngine engine(cfg, deviceWithPool(4096), queue,
                                     requests);
        for (int i = 1; i <= 1200; ++i)
            queue.schedule(sim::SimTime::fromSec(0.3 * i), [] {});
        engine.enqueue(0);

        // Warm-up: prefill, first decode steps, scratch/cache
        // population.
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(queue.runNext());
        const std::uint64_t decode_steps_before = engine.decodeSteps();
        const std::uint64_t ff_before = engine.fastForwardedSteps();
        const std::uint64_t allocs_before =
            g_heapAllocs.load(std::memory_order_relaxed);
        for (int i = 0; i < 300; ++i)
            ASSERT_TRUE(queue.runNext());
        const std::uint64_t allocs_after =
            g_heapAllocs.load(std::memory_order_relaxed);
        EXPECT_GT(engine.decodeSteps(), decode_steps_before + 100);
        EXPECT_GT(engine.fastForwardedSteps(), ff_before + 100);
        EXPECT_FALSE(requests[0].done()); // still mid-decode
        EXPECT_EQ(allocs_after - allocs_before, 0u)
            << "steady-state stepping must not touch the heap";
        if (paged) {
            // Clamped at its budget, which its pages already hold.
            EXPECT_EQ(requests[0].residentTokens(),
                      requests[0].budgetGranted);
            EXPECT_GE(engine.allocator().pagePool()->usedPages() *
                          cfg.paged.blockTokens,
                      requests[0].budgetGranted);
        }
    }
}

// ---- EventQueueWindow ----------------------------------------------
// The window primitives the cluster drive loop leans on: the
// empty-queue sentinel, strict-horizon draining, and clock alignment.

TEST(EventQueueWindow, NextEventTimeIsInfinityWhenEmptyOrDrained)
{
    // The clock's infinity is SimTime::never().
    sim::EventQueue q;
    EXPECT_EQ(q.nextEventTime(), sim::SimTime::never());
    q.schedule(sim::SimTime::nanos(3000), [] {});
    EXPECT_EQ(q.nextEventTime().ns(), 3000);
    q.runAll();
    // Draining restores the sentinel; it still compares greater than
    // any finite horizon (the coordinator's min() relies on that).
    EXPECT_EQ(q.nextEventTime(), sim::SimTime::never());
    EXPECT_GT(q.nextEventTime(), sim::SimTime::fromSec(1e9));
}

TEST(EventQueueWindow, RunBeforeIsStrictAndLeavesNowAtLastExecuted)
{
    sim::EventQueue q;
    int ran = 0;
    q.schedule(sim::SimTime::nanos(1000), [&] { ++ran; });
    q.schedule(sim::SimTime::nanos(2000), [&] { ++ran; });
    q.schedule(sim::SimTime::nanos(3000), [&] { ++ran; });
    // Events at exactly the horizon must wait for the global events
    // that sort before them, so only t=1 runs...
    EXPECT_EQ(q.runBefore(sim::SimTime::nanos(2000)), 1u);
    EXPECT_EQ(ran, 1);
    // ...and the clock stays at the last executed event, not the
    // horizon, so a later global injection at t=2 is not "the past".
    EXPECT_EQ(q.now().ns(), 1000);
    EXPECT_EQ(q.nextEventTime().ns(), 2000);
    EXPECT_EQ(q.runBefore(sim::SimTime::nanos(10000)), 2u);
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(q.now().ns(), 3000);
    // Empty queue: a no-op, not an advance.
    EXPECT_EQ(q.runBefore(sim::SimTime::nanos(20000)), 0u);
    EXPECT_EQ(q.now().ns(), 3000);
}

TEST(EventQueueWindow, AdvanceToMovesTheClockWithoutRunning)
{
    sim::EventQueue q;
    int ran = 0;
    q.schedule(sim::SimTime::nanos(5000), [&] { ++ran; });
    q.advanceTo(sim::SimTime::nanos(4000));
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(q.now().ns(), 4000);
    // The aligned clock accepts an injection at the new now (the
    // arrival-dispatch pattern) and never re-runs anything early.
    q.schedule(sim::SimTime::nanos(4000), [&] { ++ran; });
    q.runAll();
    EXPECT_EQ(ran, 2);
    // Backwards alignment is a no-op, not a rewind.
    q.advanceTo(sim::SimTime::nanos(1000));
    EXPECT_EQ(q.now().ns(), 5000);
}

TEST(EventQueueWindow, AdvanceToPastPendingEventPanics)
{
    sim::EventQueue q;
    q.schedule(sim::SimTime::nanos(2000), [] {});
    EXPECT_DEATH(q.advanceTo(sim::SimTime::nanos(3000)), "pending");
}

TEST(EventQueueWindow, InfiniteExternalEventHookUnboundsFastForward)
{
    // The no-arrival case of Hooks::nextExternalEvent: a hook
    // returning never() promises nothing external can ever affect the
    // engine, so the decode fast-forward replays every remaining
    // boundary in one window — and the run must still match the
    // unhooked (conservative global bound) run bit-for-bit.
    auto run = [](bool with_hook, std::uint64_t *ffwd) {
        sim::EventQueue queue;
        std::vector<serving::Request> requests;
        serving::Request r;
        r.id = 0;
        r.task = sim::scaledForTiny(sim::lambada(), 96);
        r.arrival = sim::SimTime::fromSec(0);
        requests.push_back(r);
        serving::DeviceEngine engine(serving::DeviceConfig{},
                                     deviceWithPool(512), queue, requests);
        if (with_hook) {
            serving::DeviceEngine::Hooks hooks;
            hooks.nextExternalEvent = [] {
                return sim::SimTime::never();
            };
            engine.setHooks(std::move(hooks));
        }
        engine.enqueue(0);
        queue.runAll();
        EXPECT_TRUE(requests[0].done());
        if (ffwd)
            *ffwd = engine.fastForwardedSteps();
        return std::tuple{engine.engineSteps(), engine.decodeSteps(),
                          queue.now().sec(),
                          requests[0].completed.sec()};
    };
    std::uint64_t ffwd = 0;
    const auto hooked = run(true, &ffwd);
    const auto plain = run(false, nullptr);
    EXPECT_EQ(hooked, plain);
    EXPECT_GT(ffwd, 0u);
}


// ---- SimClock ------------------------------------------------------
// `SimTime::fromSec` rounds without libm: truncation, then a step on
// the exact fractional part.

/** The rounding `fromSec` replaced: `std::round` of the nanoseconds,
 *  `never()` from 2^63 up and for NaN, INT64_MIN below -2^63. */
std::int64_t
roundedTicks(double s)
{
    const double ns = std::round(s * 1e9);
    if (!(ns < 0x1p63))
        return INT64_MAX;
    if (ns < -0x1p63)
        return INT64_MIN;
    return static_cast<std::int64_t>(ns);
}

TEST(SimClock, FromSecMatchesStdRoundAndSaturates)
{
    const auto ticks = [](double s) {
        return sim::SimTime::fromSec(s).ns();
    };
    // Halves and their neighbours on both sides of zero: each
    // candidate x.5 ns, the doubles next to it, and the seconds
    // value next to x.5 / 1e9 on either side.
    std::size_t exact_halves = 0;
    for (std::int64_t k = -5000; k <= 5000; ++k) {
        for (const double scale : {1.0, 1024.0, 1048576.0, 0x1p40}) {
            const double ns = (static_cast<double>(k) + 0.5) * scale;
            for (const double x :
                 {ns, std::nextafter(ns, -INFINITY),
                  std::nextafter(ns, INFINITY)}) {
                const double s = x / 1e9;
                for (const double v :
                     {s, std::nextafter(s, -INFINITY),
                      std::nextafter(s, INFINITY)}) {
                    const double p = v * 1e9;
                    if (std::fabs(p - std::trunc(p)) == 0.5)
                        ++exact_halves;
                    ASSERT_EQ(ticks(v), roundedTicks(v)) << v;
                }
            }
        }
    }
    EXPECT_GT(exact_halves, 1000u);
    // Random magnitudes from 1e-12 s to 1e10 s, either sign.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> exp10(-12.0, 10.0);
    for (int i = 0; i < 200000; ++i) {
        const double s =
            std::pow(10.0, exp10(rng)) * (i % 2 ? -1.0 : 1.0);
        ASSERT_EQ(ticks(s), roundedTicks(s)) << s;
    }
    // Around 2^52 ns, where doubles stop having a fractional part.
    for (int i = -16; i <= 16; ++i) {
        const double ns = 0x1p52 + 0.5 * i;
        ASSERT_EQ(ticks(ns / 1e9), roundedTicks(ns / 1e9)) << ns;
        ASSERT_EQ(ticks(-ns / 1e9), roundedTicks(-ns / 1e9)) << ns;
    }

    // The int64 edges: NaN, +inf and 2^63 ns up are never(), below
    // -2^63 ns is INT64_MIN (as addTicks saturates), and the doubles
    // between convert exactly.
    const sim::SimTime never = sim::SimTime::never();
    EXPECT_EQ(sim::SimTime::fromSec(std::nan("")), never);
    EXPECT_EQ(sim::SimTime::fromSec(INFINITY), never);
    EXPECT_EQ(sim::SimTime::fromSec(1e10), never);
    EXPECT_EQ(ticks(-INFINITY), INT64_MIN);
    EXPECT_EQ(ticks(-1e10), INT64_MIN);
    std::size_t saturated = 0;
    std::size_t exact = 0;
    for (const double edge : {0x1p63 / 1e9, -0x1p63 / 1e9}) {
        double up = edge;
        double down = edge;
        for (int i = 0; i < 64; ++i) {
            for (const double s : {up, down}) {
                const double ns = s * 1e9;
                const std::int64_t t = ticks(s);
                ASSERT_EQ(t, roundedTicks(s)) << s;
                if (ns < 0x1p63 && ns >= -0x1p63) {
                    EXPECT_EQ(t, static_cast<std::int64_t>(ns)) << s;
                    ++exact;
                } else {
                    EXPECT_EQ(t, ns > 0 ? INT64_MAX : INT64_MIN) << s;
                    ++saturated;
                }
            }
            up = std::nextafter(up, INFINITY);
            down = std::nextafter(down, -INFINITY);
        }
    }
    EXPECT_GT(saturated, 100u);
    EXPECT_GT(exact, 100u);
    // Exact ticks and halves away from zero.
    EXPECT_EQ(ticks(0.0), 0);
    EXPECT_EQ(ticks(-0.0), 0);
    EXPECT_EQ(ticks(1.0), 1000000000);
    EXPECT_EQ(ticks(2.5e-9), 3);
    EXPECT_EQ(ticks(-2.5e-9), -3);
    EXPECT_EQ(ticks(0.5e-9), 1);
    EXPECT_EQ(ticks(-0.5e-9), -1);
}

} // namespace
