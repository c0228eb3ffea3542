/**
 * @file
 * End-to-end analytic performance/energy model of an edge LLM serving
 * system (the engine behind Sections 3 and 8).
 *
 * The model composes, per decode step and per prefill:
 *   - DRAM traffic: streamed weights, offloaded KV, working-set spill;
 *   - on-chip traffic: weight SRAM stream, KV memory stream;
 *   - RSA compute from the model's MAC counts (+ AERP recomputation);
 *   - SFU time for softmax/normalization/activations;
 *   - the schedule of Section 6 (serial baseline vs overlapped Kelle);
 *   - eDRAM refresh energy: resident KV per 2DRP group plus transient
 *     activations weighted by the Eq. 7-8 lifetimes;
 *   - leakage and DRAM background power.
 *
 * Working-set model: each step's attention intermediates
 * (score rows, staged Q/K/V) must fit in the on-chip KV memory next
 * to resident KV; the overflow spills to DRAM. This reproduces the
 * paper's Figure 3a observation that a larger on-chip memory pays off
 * increasingly at longer sequence lengths.
 */

#ifndef KELLE_ACCEL_TIMING_MODEL_HPP
#define KELLE_ACCEL_TIMING_MODEL_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "accel/energy_model.hpp"
#include "accel/scheduler.hpp"
#include "accel/technology.hpp"
#include "edram/refresh_policy.hpp"
#include "model/model_config.hpp"

namespace kelle {
namespace accel {

/** How AERP recomputation is deployed (Section 8.3.2 roofline). */
enum class RecomputeMode
{
    None, ///< no recomputation (AEP)
    Auto, ///< fill RSA slack during memory stalls (deployed Kelle)
    Over, ///< recompute every popular token (the Over-Recomp regime)
};

/** KV-cache management configuration of the simulated system. */
struct KvPolicySpec
{
    bool evict = true;          ///< attention-based eviction on
    std::size_t budget = 2048;  ///< token budget N' per head
    RecomputeMode recompute = RecomputeMode::Auto;
    /**
     * Fraction of resident tokens eligible for x-storage (popular in
     * >= theta of heads). 0.35 is an uncalibrated constant: nothing
     * yet derives it from the functional cache's per-token popularity
     * at theta = 50% (ROADMAP item 5).
     */
    double popularFraction = 0.35;
    int kvBits = 16;            ///< stored KV precision
    bool systolicEvictor = true; ///< hardware evictor present

    bool operator==(const KvPolicySpec &) const = default;
};

/** eDRAM refresh configuration. */
struct RefreshSpec
{
    enum class Mode
    {
        None,      ///< SRAM system: no refresh
        Retention, ///< refresh at the 45 us retention floor ("Org")
        Uniform,   ///< one uniform interval
        TwoD,      ///< 2DRP group intervals
    };
    Mode mode = Mode::TwoD;
    edram::RefreshIntervals intervals =
        edram::RefreshIntervals::paper2drp();
    /** Fraction of resident tokens in the HST group. */
    double hstFraction = 0.5;

    bool operator==(const RefreshSpec &) const = default;
};

/** A complete simulated system. */
struct SystemConfig
{
    std::string name = "Kelle+eDRAM";
    TechnologyConfig tech = kelleTech();
    SchedulerKind scheduler = SchedulerKind::Kelle;
    KvPolicySpec kv;
    RefreshSpec refresh;

    /** Prefill-side accelerations of the Figure 14 comparators. */
    double prefillComputeSpeedup = 1.0; ///< LLM.npu NPU offload
    double prefillAttnSparsity = 0.0;   ///< DynaX sparse attention

    /** Field by field, nested structs included: equal systems cost
     *  every step alike, so a cluster's equal devices share one
     *  decode memo (see step_cost_cache.hpp). */
    bool operator==(const SystemConfig &) const = default;
};

/** Factory functions for the five Figure 13 systems. */
SystemConfig originalSramSystem();
SystemConfig originalEdramSystem();
SystemConfig aepSramSystem(std::size_t budget);
SystemConfig aerpSramSystem(std::size_t budget);
SystemConfig kelleEdramSystem(std::size_t budget);

/** A serving workload (Section 8 task settings). */
struct Workload
{
    std::string name = "PG19";
    model::ModelConfig model = model::llama2_7b();
    std::size_t ctxLen = 512;
    std::size_t decLen = 8192;
    std::size_t batch = 16;
};

/** Simulation output. */
struct RunReport
{
    Time prefillLatency;
    Time decodeLatency;
    EnergyBreakdown prefillEnergy;
    EnergyBreakdown decodeEnergy;

    double dramBytesTotal = 0.0;
    double macsTotal = 0.0;
    double recomputedTokensPerStep = 0.0;
    double kvResidentBytesEnd = 0.0;
    double kvOnChipFraction = 0.0;

    Time totalLatency() const { return prefillLatency + decodeLatency; }
    Energy totalEnergy() const;
    /** Arithmetic intensity: 2*MACs / DRAM bytes. */
    double opIntensity() const;
    /** Achieved compute rate in ops/s (2 ops per MAC). */
    double achievedOpsPerSec() const;
};

/** Run the analytic simulation. */
RunReport simulate(const SystemConfig &sys, const Workload &w);

/**
 * @name Serving-layer entry points (src/serving)
 *
 * The multi-request serving engine schedules work one accelerator
 * *engine step* at a time: either one request's prefill, or one decode
 * step over a heterogeneous continuous batch. Unlike `simulate`, which
 * integrates a uniform batch over a whole decode, these return the
 * cost of a single step so an event-driven scheduler can interleave
 * requests at iteration granularity. Each binds a `StepCostModel`
 * (below) for the one call; a caller costing many steps of one
 * configuration binds the model once instead. The serving engine
 * does: its `StepCostCache` memoizes decode steps over the bound
 * model, and prefill chunks, rare next to decode steps, are costed
 * from that model uncached (see step_cost_cache.hpp).
 * @{
 */

/** Latency/energy of one engine step. */
struct StepReport
{
    Time latency;
    EnergyBreakdown energy;
    double dramBytes = 0.0;
    double macs = 0.0;
};

/**
 * One fixed-size chunk of a request's prefill (Sarathi-style chunked
 * prefill): the `chunk_len` prompt tokens starting at KV offset
 * `kv_offset` run as their own engine step, attending causally over
 * all `kv_offset + chunk_len` tokens resident so far. Compute and KV
 * traffic telescope exactly — summed over a prompt's chunks the MACs,
 * SFU ops and KV writes equal the single-shot prefill — but the full
 * weight stream is charged once *per chunk*, which is the price of
 * interleaving chunks with decode iterations. A single chunk covering
 * the whole prompt (`kv_offset == 0`, `chunk_len == ctx_len`) is the
 * request's monolithic prefill, bit-identical to simulate()'s prefill
 * of a batch-of-one workload.
 */
StepReport simulatePrefillChunk(const SystemConfig &sys,
                                const model::ModelConfig &m,
                                std::size_t kv_offset,
                                std::size_t chunk_len);

/**
 * One decode step over a continuous batch of `batch` member sequences
 * holding `resident_total` KV-resident tokens in all at attention
 * time. The weight stream is fetched once and amortized across every
 * member, which is where batched decode wins over request-at-a-time
 * serving. The cost depends on the members' resident counts only
 * through their total, so this pair is the whole step shape; the
 * same decode-step cost model is behind `simulate` and every serving
 * step alike.
 */
StepReport simulateBatchedDecodeStep(const SystemConfig &sys,
                                     const model::ModelConfig &m,
                                     std::size_t batch,
                                     std::size_t resident_total);

/** The same step given each member's resident count. */
StepReport simulateBatchedDecodeStep(
    const SystemConfig &sys, const model::ModelConfig &m,
    const std::vector<std::size_t> &resident_tokens);

/** @} */

/**
 * @name Loop-form reference (test oracle)
 *
 * `simulateBatchedDecodeStep` sums its per-member terms in closed
 * form from (batch size, resident total). That is bit-identical to the
 * member-at-a-time loop, which this reference keeps so the equality is
 * *tested*, not assumed (see the TimingTelescoping suite). `simulate`
 * costs every decode step afresh, so it needs no loop reference; a
 * test holds it to the sum of its batched decode steps.
 * @{
 */
namespace detail {

/** `simulateBatchedDecodeStep` summing its terms member by member. */
StepReport batchedDecodeStepLoopReference(
    const SystemConfig &sys, const model::ModelConfig &m,
    const std::vector<std::size_t> &resident_tokens);

} // namespace detail
/** @} */

/**
 * The analytic step-cost model bound to one (system, model) pair; the
 * one implementation behind `simulate`, `simulateBatchedDecodeStep`,
 * `simulatePrefillChunk` and the serving layer's step costs. The model
 * itself memoizes nothing: the one step-cost memo is the serving
 * layer's decode memo (`StepCostCache`).
 *
 * Every term that the configuration alone determines and that takes
 * arithmetic to form is computed once at construction: the weight
 * stream's bytes, phase time, per-layer share and SRAM energy, a
 * decode member's context-free MACs, the recompute roofline's
 * per-token cost and saving, the prefill attention block size, the
 * transient refresh interval and the background power. A step then
 * does only the arithmetic its shape changes. The hoisted terms are whole
 * subexpressions of the step formulas, evaluated in the same IEEE
 * operations and order (nothing is reassociated or turned from a
 * division into a multiplication), so a bound step is bit-identical
 * to evaluating the model from scratch; `GoldenDigest.StepReportGrid`
 * pins it.
 *
 * The system and model must outlive the bound model and must not be
 * mutated while it is in use.
 */
class StepCostModel
{
  public:
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

    StepCostModel(const SystemConfig &sys, const model::ModelConfig &m);

    /** One decode step of `batch` (> 0) members holding
     *  `resident_total` tokens in all. */
    StepReport decode(std::size_t batch, std::size_t resident_total) const;

    /** One decode step from its per-member sums. */
    StepReport decode(const DecodeSums &s) const;

    /** One prefill chunk of `chunk_len` (> 0) tokens at KV offset
     *  `kv_offset`. */
    StepReport prefillChunk(std::size_t kv_offset,
                            std::size_t chunk_len) const;

  private:
    struct StepCosts;

    /** The closed-form sums of `batch` members holding
     *  `resident_total` tokens. */
    DecodeSums sums(std::size_t batch, std::size_t resident_total) const;
    StepCosts decodeCosts(const DecodeSums &s) const;
    StepCosts prefillCosts(std::size_t batch, std::size_t offset,
                           std::size_t chunk) const;
    StepReport finish(std::size_t batch, const StepCosts &c,
                      bool decode_step) const;
    EnergyBreakdown energy(std::size_t batch, const StepCosts &c,
                           Time latency) const;
    Power refreshPower(double bytes) const;
    /** `simulate` of `w` (whose model is the bound one): every
     *  decode step is costed afresh. */
    RunReport run(const Workload &w) const;

    friend RunReport simulate(const SystemConfig &sys, const Workload &w);

    const SystemConfig &sys_;
    const model::ModelConfig &model_;

    // The configuration-only terms, in the forms the step formulas
    // read them. Model shape as doubles:
    double L_, d_, h_;
    // Weight stream: bytes per step, SRAM phase time, its per-layer
    // share (the transient lifetime's T_SRAM) and staging energy.
    double wStep_;
    Time sramW_;
    Time sramWLayer_;
    Energy weightSramEnergy_;
    // Decode per-member sums: context-free MACs and MACs per resident
    // token; 2*nHeads, a resident token's score-row bytes and its
    // Softermax ops per layer; working-set bytes per member; SFU ops
    // per member per layer.
    double macsPerMember_;
    double macsPerResident_;
    double twoHeads_;
    double wsPerMember_;
    double sfuPerMember_;
    // KV bytes per token per layer, and what x-storage saves of them;
    // KV bytes per token over all layers.
    double kvTok_;
    double xSavePerTok_;
    double kvTokAllLayers_;
    // Prefill attention: query rows per FlashAttention-style block.
    double prefillBlockRows_;
    // Recompute roofline: MACs per recomputed token-layer, and the
    // time one recomputed token costs plus the DRAM time it saves.
    double macsPerRecomp_;
    double recompCostPlusSave_;
    // Rates: sustained DRAM bytes/s, decode and prefill MACs/s, SFU
    // ops/s.
    double dramBw_;
    double flops_;
    double prefillFlops_;
    double sfuRate_;
    // Transient-activation refresh interval (zero: none charged) and
    // the on-chip + DRAM background power.
    Time transientInterval_;
    Power background_;
    bool swEvict_; ///< decode steps pay the software-eviction overhead
};

/** Speedup and energy-efficiency of `sys` relative to `base`. */
struct Comparison
{
    double speedup = 1.0;
    double energyEfficiency = 1.0;
};
Comparison compare(const RunReport &base, const RunReport &sys);

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_TIMING_MODEL_HPP
