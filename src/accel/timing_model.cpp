#include "accel/timing_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.hpp"

namespace kelle {
namespace accel {

namespace {

/** Paper Section 8.1.4: software eviction (no systolic evictor) costs
 *  ~7% latency and ~5% energy; the SE itself draws 0.028 W. */
constexpr double kSoftwareEvictLatencyOverhead = 0.07;
constexpr double kSoftwareEvictEnergyOverhead = 0.05;
constexpr double kEvictorPowerW = 0.028;

/** Refresh interval of the retention floor (Table 1). */
const Time kRetentionFloor = Time::micros(45);

struct StepCosts
{
    PhaseTimes phases;
    double dramBytes = 0.0;
    double onChipKvBytes = 0.0;
    double macs = 0.0;
    double recomputeMacs = 0.0; ///< included in macs; overlaps DRAM
    double sfuOps = 0.0;
    double residentKvBytes = 0.0;
    double onChipResidentKvBytes = 0.0;
    double recomputedTokens = 0.0;
};

/** Resident tokens in the cache at attention time of step t. */
std::size_t
residentTokens(const SystemConfig &sys, const Workload &w, std::size_t t)
{
    const std::size_t n = w.ctxLen + t + 1;
    if (sys.kv.evict && sys.kv.budget > 0)
        return std::min(n, sys.kv.budget);
    return n;
}

/** Refresh power of `bytes` resident data under the refresh spec. */
Power
refreshPower(const SystemConfig &sys, double bytes)
{
    const auto &r = sys.refresh;
    if (r.mode == RefreshSpec::Mode::None || bytes <= 0.0)
        return Power::watts(0);
    const EnergyPerByte e = sys.tech.kvEdram.refreshEnergy;

    auto groupPower = [&](double group_bytes, Time interval) {
        return Power::watts(e.value * group_bytes / interval.sec());
    };

    if (r.mode == RefreshSpec::Mode::Retention)
        return groupPower(bytes, kRetentionFloor);
    if (r.mode == RefreshSpec::Mode::Uniform)
        return groupPower(bytes, r.intervals.interval[0]);

    // 2DRP: bytes split into the four groups of Figure 7b: the MSB/LSB
    // byte split is exactly half; the HST/LST split follows the score
    // register file.
    const double h = r.hstFraction;
    Power total = Power::watts(0);
    total += groupPower(bytes * h * 0.5,
                        r.intervals.of(edram::RefreshGroup::HstMsb));
    total += groupPower(bytes * h * 0.5,
                        r.intervals.of(edram::RefreshGroup::HstLsb));
    total += groupPower(bytes * (1.0 - h) * 0.5,
                        r.intervals.of(edram::RefreshGroup::LstMsb));
    total += groupPower(bytes * (1.0 - h) * 0.5,
                        r.intervals.of(edram::RefreshGroup::LstLsb));
    return total;
}

/** Average refresh interval used for transient-data refresh costs. */
Time
transientRefreshInterval(const SystemConfig &sys)
{
    switch (sys.refresh.mode) {
      case RefreshSpec::Mode::None:
        return Time::seconds(0);
      case RefreshSpec::Mode::Retention:
        return kRetentionFloor;
      case RefreshSpec::Mode::Uniform:
        return sys.refresh.intervals.interval[0];
      case RefreshSpec::Mode::TwoD:
        return sys.refresh.intervals.averageInterval();
    }
    return Time::seconds(0);
}

/**
 * Resource costs of one prefill chunk: the `chunk` prompt tokens at KV
 * offset `offset` (batch-wide, all layers). Queries attend causally
 * over all `offset + chunk` resident tokens, so per-chunk attention
 * terms telescope — summed over a prompt's chunks they equal the
 * whole-prompt prefill — while the weight stream is charged in full
 * per chunk. `offset == 0`, `chunk == ctxLen` is the monolithic
 * prefill.
 */
StepCosts
prefillChunkCosts(const SystemConfig &sys, const model::ModelConfig &m,
                  std::size_t batch, std::size_t offset, std::size_t chunk)
{
    const auto &tech = sys.tech;
    const double B = static_cast<double>(batch);
    const double L = static_cast<double>(m.layers);
    const double n_new = static_cast<double>(chunk);
    const double n_ctx = static_cast<double>(offset + chunk);
    const double n_old = static_cast<double>(offset);
    StepCosts c;
    // Causal attention telescopes: this chunk's MACs are the
    // whole-prefix cost minus the already-prefilled prefix's cost.
    double macs = B * (m.macsPrefill(offset + chunk) - m.macsPrefill(offset));
    if (sys.prefillAttnSparsity > 0.0) {
        macs -= sys.prefillAttnSparsity * B *
                (m.macsPrefillAttention(offset + chunk) -
                 m.macsPrefillAttention(offset));
    }
    c.macs = macs;

    const double w_bytes = m.weightBytes(tech.weightBits);
    // Per-layer activation round trips that overflow the buffer.
    const double act_layer = B * n_new * static_cast<double>(m.dModel) * 2.0;
    double act_spill = 0.0;
    if (act_layer > tech.actBuffer.capacity().b())
        act_spill = 2.0 * act_layer * L;
    // FlashAttention-style IO for the quadratic attention: query
    // blocks sized by on-chip capacity re-stream the full resident K/V
    // per block, so prefill attention traffic scales inversely with
    // capacity (and a chunk at a deep offset re-reads a long prefix).
    const double row_bytes = 4.0 * static_cast<double>(m.dModel) * 2.0;
    const double block_rows = std::max(
        1.0, 0.5 * tech.kvMemory.capacity().b() / row_bytes);
    const double kv_layer_bytes =
        n_ctx * static_cast<double>(m.dKv()) * 2.0 * 2.0;
    const double attn_reread =
        B * L * std::ceil(n_new / block_rows) * kv_layer_bytes;
    const double kv_written = B * n_new * m.kvBytesPerToken(sys.kv.kvBits);
    c.dramBytes = w_bytes + act_spill + attn_reread + kv_written;
    c.onChipKvBytes = 2.0 * (kv_written + attn_reread);
    // Softmax rows telescope like the MACs (n_ctx^2 - n_old^2); the
    // norm/activation ops are linear in the chunk's tokens.
    c.sfuOps = B * L *
               (static_cast<double>(m.nHeads) *
                    (n_ctx * n_ctx - n_old * n_old) +
                (4.0 * static_cast<double>(m.dModel) +
                 static_cast<double>(m.dFfn)) *
                    n_new);

    c.phases.dram =
        Time::seconds(c.dramBytes / (tech.dram.bandwidth().value *
                                 tech.dramEfficiency));
    c.phases.sramW =
        Time::seconds(w_bytes / tech.weightSram.bandwidth().value);
    c.phases.kvMem = Time::seconds(
        c.onChipKvBytes / tech.kvMemory.bandwidth().value);
    c.phases.compute = Time::seconds(
        c.macs / (tech.rsa.utilization * tech.rsa.peakMacsPerSec() *
                  sys.prefillComputeSpeedup));
    c.phases.sfu = Time::seconds(
        c.sfuOps / (static_cast<double>(tech.sfu.lanes) *
                    tech.rsa.clockHz));
    return c;
}

/** Accumulate the energy of one phase given its latency and costs. */
EnergyBreakdown
phaseEnergy(const SystemConfig &sys, const model::ModelConfig &m,
            std::size_t batch, const StepCosts &c, Time latency,
            Time t_sram_layer, Time t_kv_layer)
{
    const auto &tech = sys.tech;
    EnergyBreakdown e;
    e.rsa = tech.rsa.macEnergy * c.macs;
    e.sfu = tech.sfu.opEnergy * c.sfuOps;
    // Weights pass through the staging SRAM: one write + one read.
    const double w_step = m.weightBytes(tech.weightBits);
    e.weightSram =
        tech.weightSram.accessEnergy() * Bytes(2.0 * w_step);
    e.kvMem = tech.kvMemory.accessEnergy() * Bytes(c.onChipKvBytes);
    e.dram = tech.dram.accessEnergy() * Bytes(c.dramBytes);

    // Refresh: resident KV in eDRAM plus transient activations whose
    // lifetime follows the scheduler (Eq. 7-8).
    if (tech.kvIsEdram) {
        e.refresh += refreshPower(sys, c.onChipResidentKvBytes) * latency;
    }
    if (tech.actIsEdram &&
        sys.refresh.mode != RefreshSpec::Mode::None) {
        const Time interval = transientRefreshInterval(sys);
        if (interval.sec() > 0) {
            const Time lifetime = transientLifetime(
                sys.scheduler, t_sram_layer, t_kv_layer);
            const double act_bytes = static_cast<double>(batch) * 4.0 *
                                     static_cast<double>(m.dModel) * 2.0 *
                                     static_cast<double>(m.layers);
            const double refreshes_per_byte =
                lifetime.sec() / interval.sec();
            e.refresh += Energy::joules(
                tech.kvEdram.refreshEnergy.value * act_bytes *
                refreshes_per_byte);
        }
    }

    Power background = tech.weightSram.leakage() +
                       tech.kvMemory.leakage() +
                       tech.actBuffer.leakage() + tech.dram.leakage() +
                       tech.socStaticPower;
    if (sys.kv.evict && sys.kv.systolicEvictor)
        background += Power::watts(kEvictorPowerW);
    e.leakage = background * latency;
    return e;
}

/**
 * The per-member sums a decode step's costs read. Member i of a
 * B-member batch attends over n_i resident tokens; N = sum_i n_i.
 */
struct DecodeSums
{
    double batch = 0.0;         ///< B
    double residentTotal = 0.0; ///< N
    double macs = 0.0;          ///< sum_i macsPerDecodeToken(n_i)
    double workingSet = 0.0;    ///< sum_i attention intermediates, bytes
    double sfuOps = 0.0;        ///< sum_i SFU ops over all layers
};

/**
 * Per-step resource costs of one decode iteration over a continuous
 * batch, from its per-member sums. Member sequences may sit at
 * different positions with different AERP budgets; the weight stream
 * is charged once for the whole batch.
 */
StepCosts
decodeCostsFromSums(const SystemConfig &sys, const model::ModelConfig &m,
                    const DecodeSums &s)
{
    const auto &tech = sys.tech;
    const double L = static_cast<double>(m.layers);
    const double d = static_cast<double>(m.dModel);
    const double dkv = static_cast<double>(m.dKv());
    const double n_sum = s.residentTotal;

    const double kv_tok = m.kvBytesPerTokenPerLayer(sys.kv.kvBits);
    const double x_tok = d * 2.0; // 16-bit activations
    const double w_step = m.weightBytes(tech.weightBits);

    StepCosts c;
    c.macs = s.macs;
    c.sfuOps = s.sfuOps;

    // Recomputation sizing (Section 8.3.2): Auto fills RSA slack
    // during memory stalls; Over recomputes every popular token.
    const double eligible =
        (sys.kv.recompute == RecomputeMode::None)
            ? 0.0
            : sys.kv.popularFraction * n_sum;
    const double macs_per_recomp = 2.0 * d * dkv; // per token per layer
    double n_rec = 0.0;
    const double bw = tech.dram.bandwidth().value * tech.dramEfficiency;
    const double flops = tech.rsa.utilization * tech.rsa.peakMacsPerSec();
    if (sys.kv.recompute == RecomputeMode::Over) {
        n_rec = eligible;
    } else if (sys.kv.recompute == RecomputeMode::Auto) {
        // Roofline balancing (Section 8.3.2): recompute tokens while
        // the RSA would otherwise stall on memory, stopping exactly at
        // the compute/memory crossing so recomputation can slow
        // nothing down. Each recomputed token-layer removes its KV
        // bytes from DRAM and adds 2*d*dKv MACs.
        const double resident0 = L * n_sum * kv_tok;
        const double t_mem = (w_step + resident0) / bw;
        const double t_comp = c.macs / flops;
        if (t_mem > t_comp) {
            const double cost_per_tok = L * macs_per_recomp / flops;
            const double save_per_tok = L * kv_tok / bw;
            n_rec = (t_mem - t_comp) / (cost_per_tok + save_per_tok);
            n_rec = std::min(eligible, n_rec);
        }
    }
    c.recomputedTokens = n_rec;
    c.recomputeMacs = L * n_rec * macs_per_recomp;
    c.macs += c.recomputeMacs;

    // Resident KV: recomputed tokens hold one activation vector x
    // (with on-chip placement priority) instead of a KV pair
    // (Section 4.1.2), so their KV bytes leave the stream entirely
    // and the x read replaces half of them.
    const double kv_res =
        n_sum * kv_tok - n_rec * std::max(0.0, kv_tok - x_tok);
    c.residentKvBytes = L * kv_res;

    // Working set: every layer's attention intermediates (score rows,
    // staged Q/K/V) compete with resident KV for on-chip capacity;
    // the overflow round-trips DRAM once per layer per step.
    const double ws = s.workingSet;
    const double kv_cap = tech.kvMemory.capacity().b();
    const double spill = std::max(0.0, ws - kv_cap);
    const double avail = std::max(0.0, kv_cap - ws);
    c.onChipResidentKvBytes = std::min(c.residentKvBytes, avail);
    const double f_on = c.residentKvBytes > 0
                            ? c.onChipResidentKvBytes / c.residentKvBytes
                            : 0.0;

    // Traffic: every resident KV byte is read once per step; each
    // member's new token's KV is written. When the score rows do not
    // fit on chip, the scheduler picks the cheaper of (a) spilling them
    // to DRAM or (b) two-pass online attention, which re-reads K/V
    // instead of materializing probabilities — either way,
    // insufficient on-chip capacity amplifies traffic, increasingly so
    // with sequence length (the Figure 3a effect).
    double kv_reads = c.residentKvBytes;
    const double kv_writes = s.batch * L * kv_tok;
    double spill_dram = 0.0;
    if (spill > 0.0) {
        const double spill_traffic = 2.0 * spill * L;
        if (kv_reads <= spill_traffic) {
            kv_reads *= 2.0; // two-pass re-read
        } else {
            spill_dram = spill_traffic;
        }
    }
    c.dramBytes =
        w_step + (1.0 - f_on) * (kv_reads + kv_writes) + spill_dram;
    // All KV operands stage through the on-chip KV memory on their way
    // to the RSA (Figure 10): one write and one read per byte. This is
    // where eDRAM's per-byte access advantage over SRAM (84.8 vs
    // 185.9 pJ/B) acts on the dominant traffic stream.
    c.onChipKvBytes = 2.0 * (kv_reads + kv_writes) +
                      2.0 * std::min(ws, kv_cap) * L;

    // Phase times. Recomputation is issued during memory stalls
    // (Section 8.3.2, "recomputed in parallel during the load"), so
    // its RSA time folds into the DRAM phase as a max even under the
    // serial baseline schedule, and only the non-recompute MACs sit
    // on the compute phase.
    c.phases.dram = Time::seconds(
        std::max(c.dramBytes / bw, c.recomputeMacs / flops));
    c.phases.sramW =
        Time::seconds(w_step / tech.weightSram.bandwidth().value);
    c.phases.kvMem =
        Time::seconds(c.onChipKvBytes / tech.kvMemory.bandwidth().value);
    c.phases.compute =
        Time::seconds((c.macs - c.recomputeMacs) / flops);
    c.phases.sfu = Time::seconds(
        c.sfuOps / (static_cast<double>(tech.sfu.lanes) *
                    tech.rsa.clockHz));
    return c;
}

/**
 * Decode costs of a `batch`-member batch holding `resident_total`
 * tokens in all. Every per-member term is affine in the member's
 * resident count with integer coefficients, so the sums have the
 * closed forms below (step_cost_cache.hpp derives them). Each is an
 * integer-valued double far below 2^53 for realistic models, hence
 * exact and bitwise equal to the member-at-a-time loop that
 * detail::batchedDecodeStepLoopReference keeps; how the tokens are
 * spread over the members cannot move a bit of the result.
 */
StepCosts
batchedDecodeCosts(const SystemConfig &sys, const model::ModelConfig &m,
                   std::size_t batch, std::size_t resident_total)
{
    const double B = static_cast<double>(batch);
    const double N = static_cast<double>(resident_total);
    const double L = static_cast<double>(m.layers);
    const double d = static_cast<double>(m.dModel);
    const double h = static_cast<double>(m.nHeads);
    DecodeSums s;
    s.batch = B;
    s.residentTotal = N;
    s.macs = B * m.macsPerDecodeToken(0) + 2.0 * d * L * N;
    // Score rows (2 bytes per head per resident token) plus staged
    // Q/K/V (three 16-bit d-vectors) per member.
    s.workingSet = 2.0 * h * N + 6.0 * d * B;
    // Softermax over every head's scores (2 LUT ops per element), two
    // RMSNorms and the FFN activation per layer.
    s.sfuOps =
        L * (2.0 * h * N + (4.0 * d + static_cast<double>(m.dFfn)) * B);
    return decodeCostsFromSums(sys, m, s);
}

/**
 * Step latency + energy from composed phases. The software-eviction
 * overhead applies to decode steps only, never to prefill.
 */
StepReport
finishStep(const SystemConfig &sys, const model::ModelConfig &m,
           std::size_t batch, const StepCosts &c, bool decode_step)
{
    const double L = static_cast<double>(m.layers);
    const bool sw_evict =
        decode_step && sys.kv.evict && !sys.kv.systolicEvictor;
    Time lat = composeStepLatency(sys.scheduler, c.phases);
    if (sw_evict)
        lat *= (1.0 + kSoftwareEvictLatencyOverhead);

    EnergyBreakdown e = phaseEnergy(
        sys, m, batch, c, lat, Time::seconds(c.phases.sramW.sec() / L),
        Time::seconds(c.phases.kvMem.sec() / L));
    if (sw_evict) {
        const double scale = 1.0 + kSoftwareEvictEnergyOverhead;
        e.rsa *= scale;
        e.sfu *= scale;
        e.kvMem *= scale;
    }

    StepReport rep;
    rep.latency = lat;
    rep.energy = e;
    rep.dramBytes = c.dramBytes;
    rep.macs = c.macs;
    return rep;
}

} // namespace

StepReport
simulatePrefillChunk(const SystemConfig &sys, const model::ModelConfig &m,
                     std::size_t kv_offset, std::size_t chunk_len)
{
    KELLE_ASSERT(chunk_len > 0, "empty prefill chunk");
    return finishStep(sys, m, 1,
                      prefillChunkCosts(sys, m, 1, kv_offset, chunk_len),
                      false);
}

StepReport
simulateBatchedDecodeStep(const SystemConfig &sys,
                          const model::ModelConfig &m, std::size_t batch,
                          std::size_t resident_total)
{
    KELLE_ASSERT(batch > 0, "empty decode batch");
    return finishStep(sys, m, batch,
                      batchedDecodeCosts(sys, m, batch, resident_total),
                      true);
}

StepReport
simulateBatchedDecodeStep(const SystemConfig &sys,
                          const model::ModelConfig &m,
                          const std::vector<std::size_t> &resident_tokens)
{
    return simulateBatchedDecodeStep(
        sys, m, resident_tokens.size(),
        std::accumulate(resident_tokens.begin(), resident_tokens.end(),
                        std::size_t{0}));
}

Energy
RunReport::totalEnergy() const
{
    EnergyBreakdown sum = prefillEnergy;
    sum += decodeEnergy;
    return sum.total();
}

double
RunReport::opIntensity() const
{
    return dramBytesTotal > 0 ? 2.0 * macsTotal / dramBytesTotal : 0.0;
}

double
RunReport::achievedOpsPerSec() const
{
    const double t = totalLatency().sec();
    return t > 0 ? 2.0 * macsTotal / t : 0.0;
}

namespace {

/**
 * simulate() body, parameterized on the decode-loop evaluation mode.
 * The decode loop iterates w.decLen steps whose costs depend on t
 * only through residentTokens(sys, w, t) — a monotone clamp that
 * saturates at the KV budget. With `memoize_steps` the per-step
 * costing runs once per *distinct* resident count and the saturated
 * tail reuses the last StepCosts/StepReport; the accumulation loop is
 * unchanged (same values added in the same order), so the results are
 * bit-identical to the step-at-a-time loop, which
 * detail::simulateLoopReference preserves as the test oracle. For an
 * 8192-token decode over a 2048 budget this removes ~3/4 of the
 * analytic-model evaluations.
 */
RunReport
simulateImpl(const SystemConfig &sys, const Workload &w,
             bool memoize_steps)
{
    KELLE_ASSERT(w.decLen > 0 && w.batch > 0, "degenerate workload");
    RunReport rep;

    // ---- Prefill -------------------------------------------------
    {
        const StepReport pre = finishStep(
            sys, w.model, w.batch,
            prefillChunkCosts(sys, w.model, w.batch, 0, w.ctxLen), false);
        rep.prefillLatency = pre.latency;
        rep.prefillEnergy = pre.energy;
        rep.dramBytesTotal += pre.dramBytes;
        rep.macsTotal += pre.macs;
    }

    // ---- Decode --------------------------------------------------
    // Every member of the uniform batch holds the same n resident
    // tokens, so a step is the (B, B*n) batched decode; its recomputed
    // tokens are batch-wide and are reported per sequence.
    const double B = static_cast<double>(w.batch);
    Time decode_latency = Time::seconds(0);
    EnergyBreakdown decode_energy;
    double recomp_acc = 0.0;
    double f_on_acc = 0.0;
    StepCosts c;
    StepReport step;
    bool have_step = false;
    std::size_t last_resident = 0;
    for (std::size_t t = 0; t < w.decLen; ++t) {
        const std::size_t n = residentTokens(sys, w, t);
        if (!memoize_steps || !have_step || n != last_resident) {
            c = batchedDecodeCosts(sys, w.model, w.batch, w.batch * n);
            step = finishStep(sys, w.model, w.batch, c, true);
            have_step = true;
            last_resident = n;
        }
        decode_latency += step.latency;
        decode_energy += step.energy;
        rep.dramBytesTotal += c.dramBytes;
        rep.macsTotal += c.macs;
        recomp_acc += c.recomputedTokens / B;
        f_on_acc += c.residentKvBytes > 0
                        ? c.onChipResidentKvBytes / c.residentKvBytes
                        : 0.0;
        if (t + 1 == w.decLen)
            rep.kvResidentBytesEnd = c.residentKvBytes;
    }
    rep.decodeLatency = decode_latency;
    rep.decodeEnergy = decode_energy;
    rep.recomputedTokensPerStep =
        recomp_acc / static_cast<double>(w.decLen);
    rep.kvOnChipFraction = f_on_acc / static_cast<double>(w.decLen);
    return rep;
}

} // namespace

RunReport
simulate(const SystemConfig &sys, const Workload &w)
{
    return simulateImpl(sys, w, true);
}

namespace detail {

RunReport
simulateLoopReference(const SystemConfig &sys, const Workload &w)
{
    return simulateImpl(sys, w, false);
}

StepReport
batchedDecodeStepLoopReference(
    const SystemConfig &sys, const model::ModelConfig &m,
    const std::vector<std::size_t> &resident_tokens)
{
    KELLE_ASSERT(!resident_tokens.empty(), "empty decode batch");
    const double L = static_cast<double>(m.layers);
    const double d = static_cast<double>(m.dModel);
    const double h = static_cast<double>(m.nHeads);
    DecodeSums s;
    s.batch = static_cast<double>(resident_tokens.size());
    for (std::size_t n : resident_tokens) {
        const double nd = static_cast<double>(n);
        s.residentTotal += nd;
        s.macs += m.macsPerDecodeToken(n);
        s.workingSet += h * nd * 2.0 + 3.0 * d * 2.0;
        s.sfuOps +=
            L * (2.0 * h * nd + 4.0 * d + static_cast<double>(m.dFfn));
    }
    return finishStep(sys, m, resident_tokens.size(),
                      decodeCostsFromSums(sys, m, s), true);
}

} // namespace detail

Comparison
compare(const RunReport &base, const RunReport &sys)
{
    Comparison c;
    c.speedup = base.totalLatency() / sys.totalLatency();
    c.energyEfficiency = base.totalEnergy() / sys.totalEnergy();
    return c;
}

SystemConfig
originalSramSystem()
{
    SystemConfig s;
    s.name = "Original+SRAM";
    s.tech = originalSramTech();
    s.scheduler = SchedulerKind::Baseline;
    s.kv.evict = false;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = false;
    s.refresh.mode = RefreshSpec::Mode::None;
    return s;
}

SystemConfig
originalEdramSystem()
{
    SystemConfig s;
    s.name = "Original+eDRAM";
    s.tech = kelleTech();
    s.scheduler = SchedulerKind::Baseline;
    s.kv.evict = false;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = false;
    s.refresh.mode = RefreshSpec::Mode::Retention;
    return s;
}

SystemConfig
aepSramSystem(std::size_t budget)
{
    SystemConfig s;
    s.name = "AEP+SRAM";
    s.tech = originalSramTech();
    s.scheduler = SchedulerKind::Baseline;
    s.kv.evict = true;
    s.kv.budget = budget;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = true;
    s.refresh.mode = RefreshSpec::Mode::None;
    return s;
}

SystemConfig
aerpSramSystem(std::size_t budget)
{
    SystemConfig s = aepSramSystem(budget);
    s.name = "AERP+SRAM";
    s.kv.recompute = RecomputeMode::Auto;
    return s;
}

SystemConfig
kelleEdramSystem(std::size_t budget)
{
    SystemConfig s;
    s.name = "Kelle+eDRAM";
    s.tech = kelleTech();
    s.scheduler = SchedulerKind::Kelle;
    s.kv.evict = true;
    s.kv.budget = budget;
    s.kv.recompute = RecomputeMode::Auto;
    s.kv.systolicEvictor = true;
    s.refresh.mode = RefreshSpec::Mode::TwoD;
    return s;
}

} // namespace accel
} // namespace kelle
