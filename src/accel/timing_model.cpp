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

/** Resident tokens in the cache at attention time of step t. */
std::size_t
residentTokens(const SystemConfig &sys, const Workload &w, std::size_t t)
{
    const std::size_t n = w.ctxLen + t + 1;
    if (sys.kv.evict && sys.kv.budget > 0)
        return std::min(n, sys.kv.budget);
    return n;
}

} // namespace

struct StepCostModel::StepCosts
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

StepCostModel::StepCostModel(const SystemConfig &sys,
                             const model::ModelConfig &m)
    : sys_(sys), model_(m)
{
    const auto &tech = sys.tech;
    L_ = static_cast<double>(m.layers);
    d_ = static_cast<double>(m.dModel);
    h_ = static_cast<double>(m.nHeads);
    const double dkv = static_cast<double>(m.dKv());

    wStep_ = m.weightBytes(tech.weightBits);
    sramW_ = Time::seconds(wStep_ / tech.weightSram.bandwidth().value);
    sramWLayer_ = Time::seconds(sramW_.sec() / L_);
    // Weights pass through the staging SRAM: one write + one read.
    weightSramEnergy_ =
        tech.weightSram.accessEnergy() * Bytes(2.0 * wStep_);

    macsPerMember_ = m.macsPerDecodeToken(0);
    macsPerResident_ = 2.0 * d_ * L_;
    // Score rows (2 bytes per head per resident token) plus staged
    // Q/K/V (three 16-bit d-vectors) per member.
    twoHeads_ = 2.0 * h_;
    wsPerMember_ = 6.0 * d_;
    // Softermax over every head's scores (2 LUT ops per element), two
    // RMSNorms and the FFN activation per layer.
    sfuPerMember_ = 4.0 * d_ + static_cast<double>(m.dFfn);

    kvTok_ = m.kvBytesPerTokenPerLayer(sys.kv.kvBits);
    const double x_tok = d_ * 2.0; // 16-bit activations
    xSavePerTok_ = std::max(0.0, kvTok_ - x_tok);

    kvTokAllLayers_ = m.kvBytesPerToken(sys.kv.kvBits);
    // Prefill query rows per block: half the KV memory, 4 staged
    // 16-bit d-vectors per row.
    const double row_bytes = 4.0 * d_ * 2.0;
    prefillBlockRows_ =
        std::max(1.0, 0.5 * tech.kvMemory.capacity().b() / row_bytes);

    dramBw_ = tech.dram.bandwidth().value * tech.dramEfficiency;
    flops_ = tech.rsa.utilization * tech.rsa.peakMacsPerSec();
    prefillFlops_ = flops_ * sys.prefillComputeSpeedup;
    sfuRate_ = static_cast<double>(tech.sfu.lanes) * tech.rsa.clockHz;

    macsPerRecomp_ = 2.0 * d_ * dkv; // per token per layer
    const double cost_per_tok = L_ * macsPerRecomp_ / flops_;
    const double save_per_tok = L_ * kvTok_ / dramBw_;
    recompCostPlusSave_ = cost_per_tok + save_per_tok;

    transientInterval_ = sys.refresh.intervals.averageInterval();

    background_ = tech.weightSram.leakage() + tech.kvMemory.leakage() +
                  tech.actBuffer.leakage() + tech.dram.leakage() +
                  tech.socStaticPower;
    if (sys.kv.evict && sys.kv.systolicEvictor)
        background_ += Power::watts(kEvictorPowerW);
    swEvict_ = sys.kv.evict && !sys.kv.systolicEvictor;
}

/** Refresh power of `bytes` resident KV in the KV memory. */
Power
StepCostModel::refreshPower(double bytes) const
{
    const auto &r = sys_.refresh;
    const EnergyPerByte e = sys_.tech.kvMemory.refreshEnergy();
    if (e.value <= 0.0 || bytes <= 0.0)
        return Power::watts(0);

    auto groupPower = [&](double group_bytes, Time interval) {
        return Power::watts(e.value * group_bytes / interval.sec());
    };

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

/**
 * Resource costs of one prefill chunk: the `chunk` prompt tokens at KV
 * offset `offset` (batch-wide, all layers). Queries attend causally
 * over all `offset + chunk` resident tokens, so per-chunk attention
 * terms telescope — summed over a prompt's chunks they equal the
 * whole-prompt prefill — while the weight stream is charged in full
 * per chunk. `offset == 0`, `chunk == ctxLen` is the monolithic
 * prefill.
 */
StepCostModel::StepCosts
StepCostModel::prefillCosts(std::size_t batch, std::size_t offset,
                            std::size_t chunk) const
{
    const auto &tech = sys_.tech;
    const auto &m = model_;
    const double B = static_cast<double>(batch);
    const double n_new = static_cast<double>(chunk);
    const double n_ctx = static_cast<double>(offset + chunk);
    const double n_old = static_cast<double>(offset);
    StepCosts c;
    // Causal attention telescopes: this chunk's MACs are the
    // whole-prefix cost minus the already-prefilled prefix's cost.
    double macs = B * (m.macsPrefill(offset + chunk) - m.macsPrefill(offset));
    if (sys_.prefillAttnSparsity > 0.0) {
        macs -= sys_.prefillAttnSparsity * B *
                (m.macsPrefillAttention(offset + chunk) -
                 m.macsPrefillAttention(offset));
    }
    c.macs = macs;

    // Per-layer activation round trips that overflow the buffer.
    const double act_layer = B * n_new * d_ * 2.0;
    double act_spill = 0.0;
    if (act_layer > tech.actBuffer.capacity().b())
        act_spill = 2.0 * act_layer * L_;
    // FlashAttention-style IO for the quadratic attention: query
    // blocks sized by on-chip capacity (prefillBlockRows_) re-stream
    // the full resident K/V per block, so prefill attention traffic
    // scales inversely with capacity (and a chunk at a deep offset
    // re-reads a long prefix).
    const double kv_layer_bytes =
        n_ctx * static_cast<double>(m.dKv()) * 2.0 * 2.0;
    const double attn_reread =
        B * L_ * std::ceil(n_new / prefillBlockRows_) * kv_layer_bytes;
    const double kv_written = B * n_new * kvTokAllLayers_;
    c.dramBytes = wStep_ + act_spill + attn_reread + kv_written;
    c.onChipKvBytes = 2.0 * (kv_written + attn_reread);
    // Softmax rows telescope like the MACs (n_ctx^2 - n_old^2); the
    // norm/activation ops are linear in the chunk's tokens.
    c.sfuOps = B * L_ *
               (h_ * (n_ctx * n_ctx - n_old * n_old) +
                sfuPerMember_ * n_new);

    c.phases.dram = Time::seconds(c.dramBytes / dramBw_);
    c.phases.sramW = sramW_;
    c.phases.kvMem = Time::seconds(
        c.onChipKvBytes / tech.kvMemory.bandwidth().value);
    c.phases.compute = Time::seconds(c.macs / prefillFlops_);
    c.phases.sfu = Time::seconds(c.sfuOps / sfuRate_);
    return c;
}

/**
 * Per-step resource costs of one decode iteration over a continuous
 * batch, from its per-member sums. Member sequences may sit at
 * different positions with different AERP budgets; the weight stream
 * is charged once for the whole batch.
 */
StepCostModel::StepCosts
StepCostModel::decodeCosts(const DecodeSums &s) const
{
    const auto &tech = sys_.tech;
    const double n_sum = s.residentTotal;

    StepCosts c;
    c.macs = s.macs;
    c.sfuOps = s.sfuOps;

    // Recomputation sizing (Section 8.3.2): Auto fills RSA slack
    // during memory stalls; Over recomputes every popular token.
    const double eligible =
        (sys_.kv.recompute == RecomputeMode::None)
            ? 0.0
            : sys_.kv.popularFraction * n_sum;
    double n_rec = 0.0;
    if (sys_.kv.recompute == RecomputeMode::Over) {
        n_rec = eligible;
    } else if (sys_.kv.recompute == RecomputeMode::Auto) {
        // Roofline balancing (Section 8.3.2): recompute tokens while
        // the RSA would otherwise stall on memory, stopping exactly at
        // the compute/memory crossing so recomputation can slow
        // nothing down. Each recomputed token-layer removes its KV
        // bytes from DRAM and adds 2*d*dKv MACs.
        const double resident0 = L_ * n_sum * kvTok_;
        const double t_mem = (wStep_ + resident0) / dramBw_;
        const double t_comp = c.macs / flops_;
        if (t_mem > t_comp) {
            n_rec = (t_mem - t_comp) / recompCostPlusSave_;
            n_rec = std::min(eligible, n_rec);
        }
    }
    c.recomputedTokens = n_rec;
    c.recomputeMacs = L_ * n_rec * macsPerRecomp_;
    c.macs += c.recomputeMacs;

    // Resident KV: recomputed tokens hold one activation vector x
    // (with on-chip placement priority) instead of a KV pair
    // (Section 4.1.2), so their KV bytes leave the stream entirely
    // and the x read replaces half of them.
    const double kv_res = n_sum * kvTok_ - n_rec * xSavePerTok_;
    c.residentKvBytes = L_ * kv_res;

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
    const double kv_writes = s.batch * L_ * kvTok_;
    double spill_dram = 0.0;
    if (spill > 0.0) {
        const double spill_traffic = 2.0 * spill * L_;
        if (kv_reads <= spill_traffic) {
            kv_reads *= 2.0; // two-pass re-read
        } else {
            spill_dram = spill_traffic;
        }
    }
    c.dramBytes =
        wStep_ + (1.0 - f_on) * (kv_reads + kv_writes) + spill_dram;
    // All KV operands stage through the on-chip KV memory on their way
    // to the RSA (Figure 10): one write and one read per byte. This is
    // where eDRAM's per-byte access advantage over SRAM (84.8 vs
    // 185.9 pJ/B) acts on the dominant traffic stream.
    c.onChipKvBytes = 2.0 * (kv_reads + kv_writes) +
                      2.0 * std::min(ws, kv_cap) * L_;

    // Phase times. Recomputation is issued during memory stalls
    // (Section 8.3.2, "recomputed in parallel during the load"), so
    // its RSA time folds into the DRAM phase as a max even under the
    // serial baseline schedule, and only the non-recompute MACs sit
    // on the compute phase.
    c.phases.dram = Time::seconds(
        std::max(c.dramBytes / dramBw_, c.recomputeMacs / flops_));
    c.phases.sramW = sramW_;
    c.phases.kvMem =
        Time::seconds(c.onChipKvBytes / tech.kvMemory.bandwidth().value);
    c.phases.compute = Time::seconds((c.macs - c.recomputeMacs) / flops_);
    c.phases.sfu = Time::seconds(c.sfuOps / sfuRate_);
    return c;
}

/** Accumulate the energy of one step given its latency and costs. */
EnergyBreakdown
StepCostModel::energy(std::size_t batch, const StepCosts &c,
                      Time latency) const
{
    const auto &tech = sys_.tech;
    EnergyBreakdown e;
    e.rsa = tech.rsa.macEnergy * c.macs;
    e.sfu = tech.sfu.opEnergy * c.sfuOps;
    e.weightSram = weightSramEnergy_;
    e.kvMem = tech.kvMemory.accessEnergy() * Bytes(c.onChipKvBytes);
    e.dram = tech.dram.accessEnergy() * Bytes(c.dramBytes);

    // Refresh: resident KV in the KV memory plus transient activations
    // in the activation buffer, whose lifetime follows the scheduler
    // (Eq. 7-8). Each memory prices its own refresh.
    e.refresh += refreshPower(c.onChipResidentKvBytes) * latency;
    const EnergyPerByte act_refresh = tech.actBuffer.refreshEnergy();
    if (act_refresh.value > 0.0) {
        const Time lifetime =
            transientLifetime(sys_.scheduler, sramWLayer_,
                              Time::seconds(c.phases.kvMem.sec() / L_));
        const double act_bytes =
            static_cast<double>(batch) * 4.0 * d_ * 2.0 * L_;
        const double refreshes_per_byte =
            lifetime.sec() / transientInterval_.sec();
        e.refresh += Energy::joules(act_refresh.value * act_bytes *
                                    refreshes_per_byte);
    }

    e.leakage = background_ * latency;
    return e;
}

/**
 * Step latency + energy from composed phases. The software-eviction
 * overhead applies to decode steps only, never to prefill.
 */
StepReport
StepCostModel::finish(std::size_t batch, const StepCosts &c,
                      bool decode_step) const
{
    const bool sw_evict = decode_step && swEvict_;
    Time lat = composeStepLatency(sys_.scheduler, c.phases);
    if (sw_evict)
        lat *= (1.0 + kSoftwareEvictLatencyOverhead);

    EnergyBreakdown e = energy(batch, c, lat);
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

/**
 * Every per-member term is affine in the member's resident count with
 * integer coefficients, so the sums have the closed forms below
 * (step_cost_cache.hpp derives them). Each is an integer-valued
 * double far below 2^53 for realistic models, hence exact and bitwise
 * equal to the member-at-a-time loop that
 * detail::batchedDecodeStepLoopReference keeps; how the tokens are
 * spread over the members cannot move a bit of the result.
 */
StepCostModel::DecodeSums
StepCostModel::sums(std::size_t batch, std::size_t resident_total) const
{
    const double B = static_cast<double>(batch);
    const double N = static_cast<double>(resident_total);
    DecodeSums s;
    s.batch = B;
    s.residentTotal = N;
    s.macs = B * macsPerMember_ + macsPerResident_ * N;
    s.workingSet = twoHeads_ * N + wsPerMember_ * B;
    s.sfuOps = L_ * (twoHeads_ * N + sfuPerMember_ * B);
    return s;
}

StepReport
StepCostModel::decode(std::size_t batch, std::size_t resident_total) const
{
    KELLE_ASSERT(batch > 0, "empty decode batch");
    return finish(batch, decodeCosts(sums(batch, resident_total)), true);
}

StepReport
StepCostModel::decode(const DecodeSums &s) const
{
    KELLE_ASSERT(s.batch > 0.0, "empty decode batch");
    return finish(static_cast<std::size_t>(s.batch), decodeCosts(s), true);
}

StepReport
StepCostModel::prefillChunk(std::size_t kv_offset,
                            std::size_t chunk_len) const
{
    KELLE_ASSERT(chunk_len > 0, "empty prefill chunk");
    return finish(1, prefillCosts(1, kv_offset, chunk_len), false);
}

/**
 * simulate() body: the batch's prefill, then w.decLen decode steps,
 * each costed afresh. Reusing the step of the saturated tail saves
 * about 1 ms on the whole Fig. 13 grid, and no timed path calls
 * simulate() (bench/BENCH_one_step_memo.json).
 */
RunReport
StepCostModel::run(const Workload &w) const
{
    KELLE_ASSERT(w.decLen > 0 && w.batch > 0, "degenerate workload");
    RunReport rep;

    // ---- Prefill -------------------------------------------------
    {
        const StepReport pre =
            finish(w.batch, prefillCosts(w.batch, 0, w.ctxLen), false);
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
    for (std::size_t t = 0; t < w.decLen; ++t) {
        const std::size_t n = residentTokens(sys_, w, t);
        const StepCosts c = decodeCosts(sums(w.batch, w.batch * n));
        const StepReport step = finish(w.batch, c, true);
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

StepReport
simulatePrefillChunk(const SystemConfig &sys, const model::ModelConfig &m,
                     std::size_t kv_offset, std::size_t chunk_len)
{
    return StepCostModel(sys, m).prefillChunk(kv_offset, chunk_len);
}

StepReport
simulateBatchedDecodeStep(const SystemConfig &sys,
                          const model::ModelConfig &m, std::size_t batch,
                          std::size_t resident_total)
{
    return StepCostModel(sys, m).decode(batch, resident_total);
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

RunReport
simulate(const SystemConfig &sys, const Workload &w)
{
    return StepCostModel(sys, w.model).run(w);
}

namespace detail {

StepReport
batchedDecodeStepLoopReference(
    const SystemConfig &sys, const model::ModelConfig &m,
    const std::vector<std::size_t> &resident_tokens)
{
    KELLE_ASSERT(!resident_tokens.empty(), "empty decode batch");
    const double L = static_cast<double>(m.layers);
    const double d = static_cast<double>(m.dModel);
    const double h = static_cast<double>(m.nHeads);
    StepCostModel::DecodeSums s;
    s.batch = static_cast<double>(resident_tokens.size());
    for (std::size_t n : resident_tokens) {
        const double nd = static_cast<double>(n);
        s.residentTotal += nd;
        s.macs += m.macsPerDecodeToken(n);
        s.workingSet += h * nd * 2.0 + 3.0 * d * 2.0;
        s.sfuOps +=
            L * (2.0 * h * nd + 4.0 * d + static_cast<double>(m.dFfn));
    }
    return StepCostModel(sys, m).decode(s);
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
    s.refresh.intervals = edram::RefreshIntervals::retentionFloor();
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
    return s;
}

} // namespace accel
} // namespace kelle
