/**
 * @file
 * Tests for the accelerator library: cycle-true systolic array,
 * systolic evictor, SFU (Softermax + LUTs), scheduler lifetimes and
 * the analytic timing model.
 */

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "accel/area_model.hpp"
#include "accel/capacity.hpp"
#include "accel/comparators.hpp"
#include "accel/energy_model.hpp"
#include "accel/scheduler.hpp"
#include "accel/sfu.hpp"
#include "accel/systolic_array.hpp"
#include "accel/systolic_evictor.hpp"
#include "accel/timing_model.hpp"
#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace kelle {
namespace accel {
namespace {

Int8Matrix
randomI8(std::size_t r, std::size_t c, Rng &rng)
{
    Int8Matrix m(r, c);
    for (auto &v : m.data)
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.below(255)) - 127);
    return m;
}

TEST(SystolicArray, SingleTileMatchesReference)
{
    Rng rng(1);
    SystolicArray rsa(8, 8);
    const auto a = randomI8(5, 8, rng);
    const auto w = randomI8(8, 8, rng);
    rsa.loadWeights(w);
    const auto out = rsa.stream(a);
    const auto ref = referenceMatmul(a, w);
    ASSERT_EQ(out.rows, ref.rows);
    for (std::size_t i = 0; i < out.rows; ++i)
        for (std::size_t j = 0; j < out.cols; ++j)
            EXPECT_EQ(out.at(i, j), ref.at(i, j)) << i << "," << j;
}

TEST(SystolicArray, PartialTile)
{
    Rng rng(2);
    SystolicArray rsa(8, 8);
    const auto a = randomI8(3, 5, rng); // K=5 < rows
    const auto w = randomI8(5, 6, rng); // N=6 < cols
    rsa.loadWeights(w);
    const auto out = rsa.stream(a);
    const auto ref = referenceMatmul(a, w);
    for (std::size_t i = 0; i < out.rows; ++i)
        for (std::size_t j = 0; j < out.cols; ++j)
            EXPECT_EQ(out.at(i, j), ref.at(i, j));
}

TEST(SystolicArray, TiledMatmulLargerThanArray)
{
    Rng rng(3);
    SystolicArray rsa(8, 8);
    const auto a = randomI8(13, 37, rng);
    const auto b = randomI8(37, 21, rng);
    const auto out = rsa.matmul(a, b);
    const auto ref = referenceMatmul(a, b);
    for (std::size_t i = 0; i < out.rows; ++i)
        for (std::size_t j = 0; j < out.cols; ++j)
            EXPECT_EQ(out.at(i, j), ref.at(i, j));
}

TEST(SystolicArray, TransposedLoadComputesABt)
{
    Rng rng(4);
    SystolicArray rsa(8, 8);
    const auto a = randomI8(4, 8, rng);
    const auto b = randomI8(6, 8, rng); // want a * b^T
    rsa.loadWeights(b, /*transposed=*/true);
    const auto out = rsa.stream(a);

    Int8Matrix bt(b.cols, b.rows);
    for (std::size_t i = 0; i < b.rows; ++i)
        for (std::size_t j = 0; j < b.cols; ++j)
            bt.at(j, i) = b.at(i, j);
    const auto ref = referenceMatmul(a, bt);
    for (std::size_t i = 0; i < out.rows; ++i)
        for (std::size_t j = 0; j < out.cols; ++j)
            EXPECT_EQ(out.at(i, j), ref.at(i, j));
}

TEST(SystolicArray, CycleCountMatchesPipelineModel)
{
    SystolicArray rsa(8, 8);
    Rng rng(5);
    const auto w = randomI8(8, 8, rng);
    const auto a = randomI8(10, 8, rng);
    rsa.loadWeights(w);
    const auto load_cycles = rsa.stats().cycles;
    EXPECT_EQ(load_cycles, 8u); // K rows shift in
    rsa.stream(a);
    // M + K + N - 1 streaming cycles.
    EXPECT_EQ(rsa.stats().cycles - load_cycles, 10u + 8u + 8u - 1u);
}

TEST(SystolicArray, UtilizationReasonable)
{
    SystolicArray rsa(16, 16);
    Rng rng(6);
    const auto a = randomI8(256, 16, rng);
    const auto w = randomI8(16, 16, rng);
    rsa.loadWeights(w);
    rsa.stream(a);
    // Long streams amortize fill/drain: utilization approaches 1.
    EXPECT_GT(rsa.stats().utilization(), 0.8);
}

TEST(SystolicArray, StatsAccumulateMacs)
{
    SystolicArray rsa(4, 4);
    Rng rng(7);
    const auto a = randomI8(6, 4, rng);
    const auto w = randomI8(4, 4, rng);
    rsa.loadWeights(w);
    rsa.stream(a);
    EXPECT_EQ(rsa.stats().macs, 6u * 4u * 4u);
}

// ---- Systolic evictor --------------------------------------------

TEST(SystolicEvictor, FindsMinAfterAccumulation)
{
    SystolicEvictor se(5);
    se.loadScores({5.0f, 1.0f, 3.0f, 0.5f, 2.0f});
    se.beginPass();
    // Attention scores drain from the RSA one row per cycle.
    const float add[5] = {0.1f, 0.2f, 0.3f, 4.0f, 0.5f};
    for (std::size_t i = 0; i < 5; ++i)
        se.onOutput(i, 0, static_cast<std::int32_t>(add[i] * 0), 0);
    // With zero integer adds the min is slot 3 (0.5).
    EXPECT_EQ(se.finalize(), 3u);
}

TEST(SystolicEvictor, AccumulatesDrainedScores)
{
    SystolicEvictor se(4);
    se.loadScores({10.0f, 10.0f, 10.0f, 10.0f});
    se.beginPass();
    se.onOutput(0, 0, 5, 0);
    se.onOutput(1, 0, -8, 0); // slot 1 becomes 2: the minimum
    se.onOutput(2, 0, 0, 0);
    se.onOutput(3, 0, 3, 0);
    EXPECT_EQ(se.finalize(), 1u);
    EXPECT_FLOAT_EQ(se.scores()[1], 2.0f);
}

TEST(SystolicEvictor, ProtectionMasksSlots)
{
    SystolicEvictor se(3);
    se.loadScores({0.0f, 5.0f, 9.0f});
    se.setProtected(0, true); // sink
    se.beginPass();
    for (std::size_t i = 0; i < 3; ++i)
        se.onOutput(i, 0, 0, 0);
    EXPECT_EQ(se.finalize(), 1u); // slot 0 is protected
}

TEST(SystolicEvictor, MatchesReferenceArgminRandom)
{
    Rng rng(8);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 2 + rng.below(64);
        std::vector<float> scores(n);
        std::vector<std::int32_t> adds(n);
        for (std::size_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(rng.uniform(0.0, 100.0));
            adds[i] = static_cast<std::int32_t>(rng.below(1000)) - 500;
        }
        SystolicEvictor se(n);
        se.loadScores(scores);
        se.beginPass();
        for (std::size_t i = 0; i < n; ++i)
            se.onOutput(i, 0, adds[i], 0);
        const std::size_t got = se.finalize();

        std::size_t want = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (scores[i] + static_cast<float>(adds[i]) <
                scores[want] + static_cast<float>(adds[want]))
                want = i;
        }
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

TEST(SystolicEvictor, PipelineLatencyIsOneExtraCycle)
{
    // When every score has drained through onOutput, finalize only
    // needs the final latch cycle — the min search is fully hidden
    // behind the RSA drain (Section 5.3).
    SystolicEvictor se(32);
    se.loadScores(std::vector<float>(32, 1.0f));
    se.beginPass();
    for (std::size_t i = 0; i < 32; ++i)
        se.onOutput(i, 0, 1, 0);
    se.finalize();
    EXPECT_EQ(se.extraCycles(), 1u);
}

TEST(SystolicEvictor, IntegratesWithArrayTap)
{
    // Compute scores = K * q on the array with the evictor tapping
    // the drain; verify the evictor's victim equals argmin of the
    // accumulated (preloaded + fresh) scores.
    Rng rng(9);
    const std::size_t n_tokens = 12, dh = 8;
    SystolicArray rsa(8, 8);
    auto kmat = randomI8(n_tokens, dh, rng); // cached keys
    auto q = randomI8(dh, 1, rng);           // query as weight column
    std::vector<float> pre(n_tokens);
    for (auto &v : pre)
        v = static_cast<float>(rng.uniform(0.0, 1000.0));

    SystolicEvictor se(n_tokens);
    se.loadScores(pre);
    se.beginPass();
    rsa.loadWeights(q);
    const auto scores = rsa.stream(kmat, &se);
    const std::size_t got = se.finalize();

    std::size_t want = 0;
    for (std::size_t i = 1; i < n_tokens; ++i) {
        if (pre[i] + static_cast<float>(scores.at(i, 0)) <
            pre[want] + static_cast<float>(scores.at(want, 0)))
            want = i;
    }
    EXPECT_EQ(got, want);
}

// ---- SFU ----------------------------------------------------------

TEST(Sfu, SoftermaxMatchesSoftmax)
{
    Sfu sfu;
    Rng rng(10);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> x(64);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-10.0, 10.0));
        std::vector<float> ref = x;
        tensor::softmaxInPlace(ref);
        sfu.softermax(x);
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_NEAR(x[i], ref[i], 5e-3f);
    }
}

TEST(Sfu, SoftermaxSumsToOne)
{
    Sfu sfu;
    std::vector<float> x = {3.0f, -2.0f, 0.5f, 9.0f, 9.0f};
    sfu.softermax(x);
    float sum = 0.0f;
    for (float v : x)
        sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-3f);
}

TEST(Sfu, SoftermaxStableForLargeInputs)
{
    Sfu sfu;
    std::vector<float> x = {500.0f, 499.0f, -500.0f};
    sfu.softermax(x);
    EXPECT_FALSE(std::isnan(x[0]));
    EXPECT_GT(x[0], x[1]);
    EXPECT_NEAR(x[2], 0.0f, 1e-6f);
}

TEST(Sfu, Exp2LutAccuracy)
{
    Sfu sfu;
    for (float x = -10.0f; x < 10.0f; x += 0.0371f) {
        EXPECT_NEAR(sfu.exp2Lut(x), std::exp2(x),
                    std::exp2(x) * 2e-4 + 1e-6)
            << "x = " << x;
    }
}

TEST(Sfu, LutTablesTight)
{
    Sfu sfu;
    EXPECT_LT(sfu.exp2Table().maxAbsError(), 1e-4);
    EXPECT_LT(sfu.geluTable().maxAbsError(), 2e-3);
    EXPECT_LT(sfu.siluTable().maxAbsError(), 2e-3);
}

TEST(Sfu, GeluSiluMatchReferenceInDomain)
{
    Sfu sfu;
    std::vector<float> xs = {-6.0f, -2.0f, -0.5f, 0.0f, 0.5f, 2.0f, 6.0f};
    std::vector<float> g = xs, s = xs;
    sfu.gelu(g);
    sfu.silu(s);
    std::vector<float> gr = xs, sr = xs;
    tensor::geluInPlace(gr);
    tensor::siluInPlace(sr);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_NEAR(g[i], gr[i], 3e-3f);
        EXPECT_NEAR(s[i], sr[i], 3e-3f);
    }
}

// ---- Scheduler -----------------------------------------------------

TEST(Scheduler, LifetimesMatchEquations)
{
    const Time ts = Time::micros(10), te = Time::micros(4);
    // Eq. 7: 6 T_S + 4 T_e.
    EXPECT_NEAR(transientLifetime(SchedulerKind::Baseline, ts, te).us(),
                6 * 10 + 4 * 4, 1e-9);
    // Eq. 8: 4 T_S + 1 T_e.
    EXPECT_NEAR(transientLifetime(SchedulerKind::Kelle, ts, te).us(),
                4 * 10 + 4, 1e-9);
}

TEST(Scheduler, KelleLatencyIsMaxOfStreams)
{
    PhaseTimes p;
    p.dram = Time::micros(100);
    p.sramW = Time::micros(20);
    p.kvMem = Time::micros(30);
    p.compute = Time::micros(50);
    p.sfu = Time::micros(5);
    EXPECT_NEAR(composeStepLatency(SchedulerKind::Baseline, p).us(),
                205.0, 1e-9);
    EXPECT_NEAR(composeStepLatency(SchedulerKind::Kelle, p).us(), 105.0,
                1e-9);
}

// ---- Timing model ---------------------------------------------------

Workload
smallWorkload()
{
    Workload w;
    w.model = model::llama2_7b();
    w.ctxLen = 128;
    w.decLen = 64; // keep tests fast
    w.batch = 4;
    return w;
}

TEST(Capacity, SystemSpecGivesTheKelleEdramPool)
{
    // The §8.4.1 pool of a device: 16 GB DRAM net of 8-bit LLaMA2-7B
    // weights, at fp16 KV. The helper must match the CapacitySpec
    // built by hand from the same system (the repository benchmark's
    // own copy) and leave layer-wise release off.
    const SystemConfig sys = kelleEdramSystem(2048);
    const CapacitySpec got = capacitySpecOf(sys);
    CapacitySpec hand;
    hand.dramCapacity = sys.tech.dram.capacity();
    hand.weightBits = sys.tech.weightBits;
    hand.kvBits = sys.kv.kvBits;
    EXPECT_EQ(got.dramCapacity.b(), hand.dramCapacity.b());
    EXPECT_EQ(got.weightBits, hand.weightBits);
    EXPECT_EQ(got.kvBits, hand.kvBits);
    EXPECT_FALSE(got.aerpLayerwise);
    const auto m = model::llama2_7b();
    EXPECT_EQ(maxSupportedTokens(m, got).maxTokens,
              maxSupportedTokens(m, hand).maxTokens);
    EXPECT_EQ(maxSupportedTokens(m, got).maxTokens, 20165u);
}

TEST(TimingModel, KelleFasterAndGreenerThanBaseline)
{
    const auto w = smallWorkload();
    const auto base = simulate(originalSramSystem(), w);
    const auto kelle = simulate(kelleEdramSystem(256), w);
    const auto cmp = compare(base, kelle);
    EXPECT_GT(cmp.speedup, 1.0);
    EXPECT_GT(cmp.energyEfficiency, 1.0);
}

TEST(TimingModel, EvictionShrinksKvTraffic)
{
    auto w = smallWorkload();
    w.decLen = 512;
    auto no_evict = kelleEdramSystem(256);
    no_evict.kv.evict = false;
    no_evict.kv.recompute = RecomputeMode::None;
    const auto full = simulate(no_evict, w);
    const auto pruned = simulate(kelleEdramSystem(256), w);
    EXPECT_LT(pruned.dramBytesTotal, full.dramBytesTotal);
    EXPECT_LT(pruned.totalLatency().sec(), full.totalLatency().sec());
}

TEST(TimingModel, RefreshEnergyOrderingOrgUniform2drp)
{
    const auto w = smallWorkload();
    auto org = kelleEdramSystem(256);
    org.refresh.intervals = edram::RefreshIntervals::retentionFloor();
    auto uni = kelleEdramSystem(256);
    uni.refresh.intervals =
        edram::RefreshIntervals::uniform(Time::micros(360));
    auto twod = kelleEdramSystem(256);
    // Refresh is the memory's: with SRAM KV and activation memories
    // the same 2DRP intervals cost no refresh at all.
    auto sram = kelleEdramSystem(256);
    sram.tech.kvMemory =
        mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(128));
    sram.tech.actBuffer =
        mem::sram(Bytes::kib(256), Bandwidth::gibPerSec(128));

    const double e_org =
        simulate(org, w).decodeEnergy.refresh.j();
    const double e_uni =
        simulate(uni, w).decodeEnergy.refresh.j();
    const double e_2d =
        simulate(twod, w).decodeEnergy.refresh.j();
    EXPECT_GT(e_org, e_uni);
    EXPECT_GT(e_uni, e_2d);
    EXPECT_GT(e_2d, 0.0);
    const auto r_sram = simulate(sram, w);
    EXPECT_EQ(r_sram.prefillEnergy.refresh.j(), 0.0);
    EXPECT_EQ(r_sram.decodeEnergy.refresh.j(), 0.0);
}

TEST(TimingModel, RecomputeReducesResidentBytes)
{
    auto w = smallWorkload();
    auto none = kelleEdramSystem(256);
    none.kv.recompute = RecomputeMode::None;
    auto over = kelleEdramSystem(256);
    over.kv.recompute = RecomputeMode::Over;
    const auto r_none = simulate(none, w);
    const auto r_over = simulate(over, w);
    EXPECT_LT(r_over.kvResidentBytesEnd, r_none.kvResidentBytesEnd);
    EXPECT_GT(r_over.macsTotal, r_none.macsTotal);
}

TEST(TimingModel, OverRecomputeBecomesComputeBound)
{
    auto w = smallWorkload();
    w.decLen = 128;
    auto auto_rec = kelleEdramSystem(256);
    auto over = kelleEdramSystem(256);
    over.kv.recompute = RecomputeMode::Over;
    over.kv.popularFraction = 0.9;
    const auto r_auto = simulate(auto_rec, w);
    const auto r_over = simulate(over, w);
    // Over-recomputation raises op intensity but hurts latency
    // (Figure 16a's compute-bound regime).
    EXPECT_GT(r_over.opIntensity(), r_auto.opIntensity());
    EXPECT_GT(r_over.decodeLatency.sec(), r_auto.decodeLatency.sec());
}

TEST(TimingModel, SoftwareEvictorCostsLatency)
{
    const auto w = smallWorkload();
    auto hw = aepSramSystem(256);
    auto sw = aepSramSystem(256);
    sw.kv.systolicEvictor = false;
    const auto r_hw = simulate(hw, w);
    const auto r_sw = simulate(sw, w);
    EXPECT_GT(r_sw.decodeLatency.sec(), r_hw.decodeLatency.sec());
    // Section 8.1.4: ~7% latency.
    EXPECT_NEAR(r_sw.decodeLatency.sec() / r_hw.decodeLatency.sec(),
                1.07, 0.02);
}

TEST(TimingModel, LongerSequencesRaiseLatency)
{
    auto sys = kelleEdramSystem(4096);
    auto w = smallWorkload();
    w.decLen = 32;
    w.ctxLen = 512;
    const auto short_run = simulate(sys, w);
    w.ctxLen = 4096;
    const auto long_run = simulate(sys, w);
    EXPECT_GT(long_run.decodeLatency.sec(), short_run.decodeLatency.sec());
}

TEST(TimingModel, PrefillComputeSpeedupHelpsPrefillOnly)
{
    const auto w = smallWorkload();
    auto npu = comparators::llmNpu();
    auto base = npu; // identical platform, no NPU prompt offload
    base.prefillComputeSpeedup = 1.0;
    const auto rb = simulate(base, w);
    const auto rn = simulate(npu, w);
    EXPECT_LE(rn.prefillLatency.sec(), rb.prefillLatency.sec());
    EXPECT_NEAR(rn.decodeLatency.sec(), rb.decodeLatency.sec(),
                rb.decodeLatency.sec() * 1e-9);
}

TEST(Technology, KellePeakTopsMatchesPaper)
{
    // Section 8: "Kelle accelerator achieves 4.13 INT8 TOPs".
    EXPECT_NEAR(kelleTech().rsa.peakInt8Tops(), 4.13, 0.1);
}

TEST(TimingModel, Comparators)
{
    // The paper's LA task setting (ctx 128 / dec 512 / batch 16).
    Workload w;
    w.model = model::llama2_7b();
    w.ctxLen = 128;
    w.decLen = 512;
    w.batch = 16;
    const auto jets = simulate(comparators::jetsonOrin(), w);
    const auto kelle = simulate(kelleEdramSystem(128), w);
    const auto cmp = compare(jets, kelle);
    EXPECT_GT(cmp.speedup, 1.0);
    EXPECT_GT(cmp.energyEfficiency, 1.0);

    // On a decode-heavy workload Kelle clearly outruns COMET, whose
    // gain over Jetson tracks its 4x KV compression (Figure 14).
    Workload lw = w;
    lw.ctxLen = 512;
    lw.decLen = 2048;
    const auto jets_l = simulate(comparators::jetsonOrin(), lw);
    const auto comet_l = simulate(comparators::comet(), lw);
    const auto kelle_l = simulate(kelleEdramSystem(1024), lw);
    const auto c_comet = compare(jets_l, comet_l);
    const auto c_kelle = compare(jets_l, kelle_l);
    EXPECT_GT(c_comet.speedup, 1.0);
    EXPECT_GT(c_kelle.speedup, c_comet.speedup);
}

TEST(AreaModel, MatchesPaperBreakdown)
{
    const auto rep = areaReport(kelleTech());
    // Section 8: total 9.5 mm^2; RSA 23%, eDRAM 33%, SRAM 37%, SFU 7%.
    EXPECT_NEAR(rep.onChipTotal.inMm2(), 9.5, 1.0);
    for (const auto &e : rep.onChip) {
        if (e.name == "rsa") {
            EXPECT_NEAR(e.share, 0.23, 0.04);
        } else if (e.name == "kv_mem") {
            EXPECT_NEAR(e.share, 0.33, 0.05);
        } else if (e.name == "weight_sram") {
            EXPECT_NEAR(e.share, 0.37, 0.05);
        } else if (e.name == "sfu") {
            EXPECT_NEAR(e.share, 0.07, 0.03);
        }
    }
}

TEST(EnergyBreakdown, SharesSumToOne)
{
    EnergyBreakdown e;
    e.rsa = Energy::joules(1);
    e.dram = Energy::joules(3);
    e.refresh = Energy::joules(2);
    double sum = 0.0;
    for (const auto &[name, share] : e.shares())
        sum += share;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(e.total().j(), 6.0);
    EXPECT_DOUBLE_EQ(e.onChipTotal().j(), 3.0);
}

TEST(EnergyBreakdown, AddRepeatedMatchesTheLoopPerComponent)
{
    // Components of very different magnitudes (a step's refresh is
    // orders below its DRAM energy) accumulated onto sums of their
    // own, so each crosses its binades at its own pace.
    Rng rng(13);
    for (int i = 0; i < 20; ++i) {
        EnergyBreakdown sum;
        EnergyBreakdown step;
        for (Energy EnergyBreakdown::*c :
             {&EnergyBreakdown::rsa, &EnergyBreakdown::sfu,
              &EnergyBreakdown::weightSram, &EnergyBreakdown::kvMem,
              &EnergyBreakdown::refresh, &EnergyBreakdown::dram,
              &EnergyBreakdown::leakage}) {
            sum.*c = Energy::joules(i % 5 == 0 ? 0.0 : rng.uniform(0.0, 10.0));
            step.*c = Energy::joules(std::pow(10.0, -9.0 * rng.uniform()));
        }
        const std::uint64_t k = 1 + rng.below(i % 4 == 0 ? 1000000 : 1000);
        EnergyBreakdown loop = sum;
        for (std::uint64_t j = 0; j < k; ++j)
            loop += step;
        sum.addRepeated(step, k);
        const auto bits = [](Energy e) {
            return std::bit_cast<std::uint64_t>(e.j());
        };
        EXPECT_EQ(bits(sum.rsa), bits(loop.rsa));
        EXPECT_EQ(bits(sum.sfu), bits(loop.sfu));
        EXPECT_EQ(bits(sum.weightSram), bits(loop.weightSram));
        EXPECT_EQ(bits(sum.kvMem), bits(loop.kvMem));
        EXPECT_EQ(bits(sum.refresh), bits(loop.refresh));
        EXPECT_EQ(bits(sum.dram), bits(loop.dram));
        EXPECT_EQ(bits(sum.leakage), bits(loop.leakage));
    }
}

} // namespace
} // namespace accel
} // namespace kelle
