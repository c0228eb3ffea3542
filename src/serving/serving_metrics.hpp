/**
 * @file
 * SLO metrics of a serving run.
 *
 * Per-request: TTFT (arrival -> first token, i.e. queueing + admission
 * + prefill), TPOT (mean decode inter-token time), end-to-end latency,
 * and whether the TTFT/TPOT deadlines stamped on the request were met.
 * Aggregates: nearest-rank p50/p95/p99 percentiles, goodput (completed
 * decode tokens per second of makespan), SLO attainment (fraction of
 * terminal requests meeting each deadline; rejections count as
 * misses), starvation counters (admission bypasses, max queue wait),
 * the p95 decode stall (worst inter-token gap a prefill inflicted on
 * the batch), queue-depth summary, and the component-wise energy of
 * every engine step (the `refresh` component is the aggregate eDRAM
 * refresh energy).
 *
 * Percentile convention (nearest-rank): for n ascending samples the
 * p-th percentile is sample `ceil(p/100 * n)` (1-based), so for 10
 * samples p50 is the 5th smallest and p99 the 10th. Deterministic and
 * hand-checkable, which the serving tests rely on.
 */

#ifndef KELLE_SERVING_SERVING_METRICS_HPP
#define KELLE_SERVING_SERVING_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/energy_model.hpp"
#include "common/units.hpp"
#include "serving/request.hpp"

namespace kelle {
namespace serving {

/** Aggregate results of one serving run. */
struct ServingSummary
{
    std::size_t completed = 0;
    std::size_t rejected = 0;
    Time makespan; ///< first arrival to last completion

    /** TTFT percentiles/mean in seconds. */
    double ttftMean = 0.0;
    double ttftP50 = 0.0;
    double ttftP95 = 0.0;
    double ttftP99 = 0.0;

    /** End-to-end (arrival -> completion) percentiles in seconds. */
    double e2eP50 = 0.0;
    double e2eP95 = 0.0;
    double e2eP99 = 0.0;

    /** Seconds per decode token across completed requests. */
    double tpotMean = 0.0;
    double tpotP50 = 0.0;
    double tpotP95 = 0.0;

    /**
     * p95 across completed requests of the worst inter-token gap each
     * saw while decoding: the decode stall other requests' prefills
     * inflicted on the batch. Monolithic prefill inflates it to whole
     * prompt latencies; chunk interleaving bounds it near one chunk.
     */
    double tokenGapP95 = 0.0;

    /** Completed decode tokens per second of makespan. */
    double goodputTokensPerSec = 0.0;

    /**
     * @name SLO attainment
     * Fraction of terminal requests (completed + rejected) that met
     * each deadline stamped on the request at trace generation; a
     * rejected request misses both, a disabled deadline (0) is always
     * met. `sloAttainment` requires both. All three read 0 when the
     * run produced no terminal request (e.g. truncated by the
     * engine-step cap before anyone finished).
     * @{
     */
    double sloTtftAttainment = 1.0;
    double sloTpotAttainment = 1.0;
    double sloAttainment = 1.0;
    /** @} */

    /**
     * @name Starvation accounting
     * `admissionBypasses` counts, after each admission round, the
     * (admitted, still-waiting) pairs where the admitted request
     * arrived *later* — one per earlier arrival an admission left
     * blocked, so FIFO policies read 0 and reordering policies pay
     * for each real queue jump (requests admitted in the same round
     * lost nothing and are not counted). `maxQueueWaitSec` is the
     * worst arrival→admission wait of any completed request: the
     * starvation tail the bypasses caused.
     * @{
     */
    std::uint64_t admissionBypasses = 0;
    double maxQueueWaitSec = 0.0;
    /** @} */

    /**
     * Decode preemptions (deadline-doomed budget reclamation): a
     * running decode past the point where its TPOT target was already
     * unattainable had its KV grant reclaimed and was requeued for
     * re-dispatch. 0 unless the preempt knob is enabled.
     */
    std::uint64_t preemptions = 0;

    double meanQueueDepth = 0.0;
    std::size_t maxQueueDepth = 0;

    /** Mean granted/requested budget ratio (1.0 = no pressure). */
    double meanBudgetFraction = 1.0;

    /** Energy of all engine steps; `.refresh` is the aggregate eDRAM
     *  refresh energy. */
    accel::EnergyBreakdown energy;
    double energyPerToken = 0.0; ///< J per completed decode token
};

class ServingMetrics
{
  public:
    /** Record a finished request (state Completed, timestamps set). */
    void onCompleted(const Request &r);
    /** Record a request the pool can never fit. */
    void onRejected(const Request &r);
    /** Sample the admission-queue depth (on arrivals/admissions). */
    void sampleQueueDepth(std::size_t depth);
    /** Accumulate one engine step's energy. */
    void addEnergy(const accel::EnergyBreakdown &e) { energy_ += e; }
    /** The running energy total, for a loop that adds its steps to a
     *  local copy and stores it back: the same adds, in order. */
    accel::EnergyBreakdown &stepEnergy() { return energy_; }
    /** Record an admission that overtook `overtaken` earlier arrivals. */
    void onBypass(std::size_t overtaken);
    /** Record a deadline-doomed decode preemption (grant reclaimed). */
    void onPreempted();
    /**
     * Fold another device's records into this one: completed requests
     * are appended in the other's order, counters and energy add, and
     * extrema take the max. The cluster roll-up merges every device
     * into one ServingMetrics and summarizes once, so a one-device
     * merge is bit-identical to summarizing the device directly.
     */
    void merge(const ServingMetrics &other);

    /** TTFT-deadline check for a completed request (0 = disabled). */
    static bool metTtft(const Request &r);
    /** TPOT-target check for a completed request (0 = disabled). */
    static bool metTpot(const Request &r);

    /** Nearest-rank percentile, p in [0, 100]. Copies and sorts; use
     *  percentileSorted when reading several ranks from one vector. */
    static double percentile(std::vector<double> samples, double p);
    /**
     * Nearest-rank percentile of an already ascending-sorted vector.
     * `summarize` sorts each sample vector once and indexes all its
     * ranks from the sorted copy (identical results to sorting per
     * rank, one sort instead of six-plus).
     */
    static double percentileSorted(const std::vector<double> &sorted,
                                   double p);

    ServingSummary summarize(Time makespan) const;

    const std::vector<Request> &completedRequests() const
    {
        return completed_;
    }

  private:
    std::vector<Request> completed_;
    std::size_t rejected_ = 0;
    std::uint64_t bypasses_ = 0;
    std::uint64_t preemptions_ = 0;
    accel::EnergyBreakdown energy_;
    double queueDepthSum_ = 0.0;
    std::size_t queueDepthSamples_ = 0;
    std::size_t maxQueueDepth_ = 0;
};

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_SERVING_METRICS_HPP
