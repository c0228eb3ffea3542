/**
 * @file
 * SLO root-cause attribution: per-request latency waterfalls and miss
 * classification.
 *
 * `LatencyWaterfall` is stamped by the device engines with one entry
 * per request, decomposing the measured TTFT and end-to-end latency
 * into eight *exactly-summing* components (the waterfall):
 *
 *   c1 queue_wait         arrival -> first admission verdict
 *   c2 kv_stall           first allocator deferral -> admission
 *   c3 prefill_compute    this request's own prefill chunk latencies
 *   c4 chunk_interleave   TTFT remainder: time between admission and
 *                         first token not spent on own prefill —
 *                         chunk-interleaved decode steps and other
 *                         requests' chunks sharing the engine
 *   c5 decode_compute     fair share (latency / batch) of every decode
 *                         step this request participated in
 *   c6 batch_interference the rest of those steps' latency — the
 *                         price of sharing the batch
 *   c7 preempt_loss       first post-first-token loss (preemption
 *                         or crash eviction) -> last resumed decoding
 *                         (requeue, re-dispatch, re-prefill, and the
 *                         decode of any life lost again)
 *   c8 decode_stall       E2E remainder: decode-boundary gaps the
 *                         request sat through without stepping —
 *                         inflicted prefills, KV-blocked rounds, and
 *                         paged-growth stalls (page growth is free in
 *                         the current timing model, so its share
 *                         reads 0 until a tiered pool prices it)
 *
 * Exactness contract (pinned by tests/test_attribution.cpp): the
 * components are integer ticks (sim/sim_time.hpp), so the first four
 * sum *exactly* to the measured TTFT and all eight to the measured
 * E2E: c4 and c8 are plain remainders, and a decode step's fair share
 * is `step / batch` (integer division) with the rest in c6.
 * Waterfalls are identical across `ClusterConfig::threads` values and
 * fastSim on/off, a trace replay reproduces them exactly, and reports
 * convert to seconds only at roll-up.
 *
 * `classifyMiss` labels each SLO miss with its dominant cause by
 * comparing the component groups responsible for the missed deadline
 * (queue / kv-pressure / interference / preempt / compute;
 * overload-reject for requests the pool could never hold).
 *
 * `LatencyWaterfall` is the only implementation of these rules: the
 * offline `TraceReader` replays a trace's events into its hooks, so
 * online reports and `kelle_trace` share every rule.
 *
 * Cost contract: engines hold a `LatencyWaterfall *` that is null when
 * attribution is off — every hook is a pointer test, no allocation,
 * no output perturbation (the pre-attribution golden digests are
 * recorded with the hooks compiled in and disabled). Thread safety
 * mirrors the shared request table: each entry is written only by the
 * device currently serving that request, and cross-device handoffs
 * synchronize through the cluster coordinator (TSan-checked).
 */

#ifndef KELLE_OBS_ATTRIBUTION_HPP
#define KELLE_OBS_ATTRIBUTION_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.hpp"

namespace kelle {
namespace obs {

class MetricsRegistry;

/** The eight waterfall components, in fold order (see file header). */
enum class LatencyComponent : std::uint8_t
{
    QueueWait,
    KvStall,
    PrefillCompute,
    ChunkInterleave,
    DecodeCompute,
    BatchInterference,
    PreemptLoss,
    DecodeStall,
};
inline constexpr std::size_t kLatencyComponentCount = 8;
/** Snake-case name, e.g. "queue_wait" (report/CLI vocabulary). */
const char *toString(LatencyComponent c);

/** Dominant cause of an SLO miss (None = both deadlines met). */
enum class MissCause : std::uint8_t
{
    None,
    Queue,          ///< waiting for a first admission verdict
    KvPressure,     ///< allocator deferrals (KV pool exhausted)
    Interference,   ///< sharing the engine/batch with other requests
    Preempt,        ///< preempt-and-requeue loss
    Compute,        ///< the request's own compute (SLO infeasible)
    OverloadReject, ///< floor exceeded the whole pool
    DeviceFault,    ///< crash eviction / fault shed / retry exhaustion
};
inline constexpr std::size_t kMissCauseCount = 8;
const char *toString(MissCause c);

/**
 * Dominant-cause label for a terminal request. TTFT misses weigh
 * {queue: c1, kv-pressure: c2, compute: c3, interference: c4}; TPOT
 * misses add {compute: c5, interference: c6 + c8, preempt: c7}. The
 * largest bucket wins; ties break in the order queue, kv-pressure,
 * interference, preempt, compute. Rejected requests are always
 * OverloadReject; requests that met both deadlines are None.
 * `faulted` requests (crash-evicted, fault-shed, or retry-exhausted)
 * pre-empt the component vote: a device fault dominates whatever
 * latency it inflated, so any miss or rejection they suffer is
 * DeviceFault.
 */
MissCause classifyMiss(bool rejected, bool missed_ttft,
                       bool missed_tpot,
                       const std::int64_t c[kLatencyComponentCount],
                       bool faulted = false);

/** One request's waterfall (terminal once `terminal` is set). */
struct WaterfallEntry
{
    std::uint64_t reqId = 0;
    std::uint32_t device = 0; ///< device that finished/rejected it
    bool terminal = false;
    bool rejected = false;
    bool deferred = false;  ///< deferred before its first admission
    bool preempted = false; ///< lost its KV after its first token
    bool faulted = false;   ///< hit by a device fault (evict/shed/fail)
    bool missedTtft = false;
    bool missedTpot = false;
    MissCause cause = MissCause::None;

    /** @name Lifecycle stamps. @{ */
    sim::SimTime arrival;
    sim::SimTime firstDefer; ///< meaningful only when `deferred`
    sim::SimTime admitted;
    sim::SimTime firstToken;
    sim::SimTime preemptAt; ///< first loss (when `preempted`)
    sim::SimTime resumeAt;  ///< last resumed first token (ditto)
    sim::SimTime finished;  ///< completion or rejection
    /** @} */

    /** SLO targets stamped at arrival (0 = disabled). */
    double ttftDeadlineSec = 0.0;
    double tpotTargetSec = 0.0;
    std::size_t decLen = 0;

    /** Measured latencies the components sum to, in ticks (a
     *  reject's TTFT and E2E are both its arrival -> rejection
     *  wait). */
    std::int64_t ttftNs = 0;
    std::int64_t e2eNs = 0;
    /** The waterfall in ticks, indexed by LatencyComponent. */
    std::int64_t components[kLatencyComponentCount] = {};
    /** c5/c6 at the first loss. Every resume restores them: decode
     *  steps of a life lost later lie inside c7 already. */
    std::int64_t decodeAtLoss[2] = {};
};

/**
 * A run of decode boundaries a batch stepped through together, as the
 * c5/c6 ticks each member owes: Σ `step / batch` (integer division)
 * and Σ `step - step / batch`. Integer sums, so charging them at once
 * equals charging the boundaries one by one, in any order.
 */
struct DecodeShares
{
    std::int64_t fair = 0;
    std::int64_t interference = 0;

    /** One boundary: a step of `step` shared by `batch` (>= 1). */
    static DecodeShares
    of(sim::SimTime step, std::size_t batch)
    {
        const std::int64_t f =
            step.ns() / static_cast<std::int64_t>(batch);
        return DecodeShares{f, step.ns() - f};
    }
    DecodeShares &
    operator+=(const DecodeShares &o)
    {
        fair += o.fair;
        interference += o.interference;
        return *this;
    }
    /** `k` boundaries of the same step. */
    friend DecodeShares
    operator*(DecodeShares s, std::int64_t k)
    {
        return DecodeShares{s.fair * k, s.interference * k};
    }
};

/**
 * Per-cause / per-device roll-up of a waterfall (index order over the
 * entries, so the totals are deterministic).
 */
struct AttributionReport
{
    std::size_t terminal = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t misses = 0; ///< terminal entries with cause != None
    /** Seconds per component summed over terminal requests (summed
     *  in ticks, converted once). */
    double componentTotals[kLatencyComponentCount] = {};
    /** Terminal requests per dominant cause (index: MissCause). */
    std::size_t missCounts[kMissCauseCount] = {};

    struct Device
    {
        std::size_t terminal = 0;
        std::size_t rejected = 0;
        std::size_t misses = 0;
        double componentTotals[kLatencyComponentCount] = {};
        std::size_t missCounts[kMissCauseCount] = {};
    };
    std::vector<Device> devices;
};

/**
 * The per-request waterfall table, indexed like the owner's request
 * vector. The owner (ClusterEngine) calls `beginRun`
 * after trace generation; device engines stamp entries through the
 * on* hooks (guarded by their null-pointer test) and finalize each
 * entry at its terminal event.
 *
 * Each hook stands for exactly one trace event (`onDecodeShares` for a
 * run of decode events) and may fire in any life of the request: the
 * waterfall itself keeps the first-life rules, so the engine and the
 * offline `TraceReader` replay call the hooks unconditionally.
 */
class LatencyWaterfall
{
  public:
    /** Size the table for a run (clears previous entries). */
    void beginRun(std::size_t n_requests);

    /** @name Engine hooks. @{ */
    void onArrival(std::size_t idx, std::uint64_t req_id,
                   sim::SimTime t, double ttft_deadline_sec,
                   double tpot_target_sec, std::size_t dec_len);
    /** The allocator deferred the request. Only a deferral before the
     *  first admission opens c2; later ones live inside c7 or c4. */
    void onDeferred(std::size_t idx, sim::SimTime t);
    /** Only the first admission is stamped: a re-admitted victim's
     *  first life was service, not queue. */
    void onAdmitted(std::size_t idx, sim::SimTime t);
    /** One of this request's prefill chunks ran for `dur`. Counts
     *  into c3 only before the first token; re-prefill is c7. */
    void onPrefillChunk(std::size_t idx, sim::SimTime dur);
    /** Prefill completed. The first call stamps the first token; any
     *  later one is a resume that closes the c7 interval. */
    void onFirstToken(std::size_t idx, sim::SimTime t);
    /** The request lost its grant mid-decode. Only the first loss
     *  opens c7; later ones fall inside it. */
    void onPreempt(std::size_t idx, sim::SimTime t);
    /** The request participated in a decode step of `step` latency
     *  shared by `batch` (>= 1) members. */
    void onDecodeBoundary(std::size_t idx, sim::SimTime step,
                          std::size_t batch);
    /** The request participated in every boundary `shares` sums (the
     *  decode fast-forward charges a window's boundaries at once). */
    void onDecodeShares(std::size_t idx, const DecodeShares &shares);
    /** Crash eviction or fault-pressure shed. Marks the entry
     *  faulted; for post-first-token victims it is a loss like
     *  `onPreempt`, so c7 absorbs the regeneration interval. */
    void onFaultEvict(std::size_t idx, sim::SimTime t);
    /** Terminal events: compute components, classify, seal. @{ */
    void onCompleted(std::size_t idx, sim::SimTime t,
                     std::uint32_t device);
    void onRejected(std::size_t idx, sim::SimTime t,
                    std::uint32_t device);
    /** Fault-retry budget exhausted: rejection + faulted. */
    void onFaultFailed(std::size_t idx, sim::SimTime t,
                       std::uint32_t device);
    /** @} @} */

    const std::vector<WaterfallEntry> &entries() const
    {
        return entries_;
    }

    /** Roll up over >= `n_devices` device slots. */
    AttributionReport report(std::size_t n_devices) const;

  private:
    WaterfallEntry &at(std::size_t idx);

    std::vector<WaterfallEntry> entries_;
};

/**
 * Export a waterfall into a `MetricsRegistry`: per-component
 * `attribution.<component>_total_sec` gauges and
 * `attribution.<component>_sec` histograms over terminal requests,
 * `attribution.miss.<cause>` counts, and cumulative
 * `attribution.<component>_cum_sec` time series sampled at terminal
 * events in (time, id) order.
 */
void exportAttributionMetrics(const LatencyWaterfall &wf,
                              MetricsRegistry &reg);

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_ATTRIBUTION_HPP
