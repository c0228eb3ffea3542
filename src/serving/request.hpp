/**
 * @file
 * A single inference request as seen by the serving engine: which
 * §7.1 task it draws its prompt/decode lengths from, when it arrived,
 * and the lifecycle timestamps the SLO metrics are computed from.
 *
 * Lifecycle: Waiting (queued at arrival) -> Prefilling (admitted; the
 * allocator granted a KV budget and the prompt is running) ->
 * Decoding (first token emitted at prefill completion) -> Completed.
 * A request whose minimum KV budget exceeds the whole pool can never
 * be admitted and is Rejected at the head of the queue.
 */

#ifndef KELLE_SERVING_REQUEST_HPP
#define KELLE_SERVING_REQUEST_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/sim_time.hpp"
#include "sim/workloads.hpp"

namespace kelle {
namespace serving {

enum class RequestState
{
    Waiting,    ///< arrived, queued for admission
    Prefilling, ///< admitted; prompt running on the accelerator
    Decoding,   ///< emitting tokens as a continuous-batch member
    Completed,  ///< all decode tokens emitted; budget released
    Rejected,   ///< minimum budget exceeds the whole KV pool
};

std::string toString(RequestState s);

struct Request
{
    std::uint64_t id = 0;
    sim::Task task;  ///< §7.1 workload entry (ctx/dec lengths, N')
    sim::SimTime arrival; ///< generated by the arrival process

    /**
     * Content identity of the prompt's shared prefix (0 = unique
     * prompt). Requests from the same session/task class carry the
     * same key; in paged KV mode the engine attaches the published
     * prefix pages copy-free at admission and skips their prefill.
     */
    std::uint64_t prefixKey = 0;
    /** Prompt tokens covered by the shared prefix (<= task.ctxLen). */
    std::size_t prefixLen = 0;

    /** TTFT SLO: seconds after arrival by which the first token must
     *  land (resolved per task from TrafficConfig::slo; 0 = none). */
    double ttftDeadlineSec = 0.0;
    /** TPOT SLO: target mean seconds per decode token (0 = none). */
    double tpotTargetSec = 0.0;

    RequestState state = RequestState::Waiting;
    /** Budget asked of the allocator at admission: the task's N'
     *  (or the engine override) on eviction systems, the full
     *  ctx+dec footprint on no-eviction baselines. */
    std::size_t budgetRequested = 0;
    /** AERP budget N' granted at admission (may be shrunk under
     *  eviction pressure; 0 until admitted). */
    std::size_t budgetGranted = 0;
    /** Prompt tokens whose KV is resident (chunked prefill progress;
     *  == task.ctxLen once prefill is complete). */
    std::size_t prefilled = 0;
    /** Decode tokens produced so far (the first token is produced by
     *  prefill and not counted here). */
    std::size_t generated = 0;
    /**
     * Times this request was preempted mid-decode (deadline-doomed
     * budget reclamation): its KV grant was released, its progress
     * reset, and it re-entered the queue to be re-dispatched. The
     * engine preempts a given request at most once, so the trace
     * always drains.
     */
    std::uint32_t preemptions = 0;
    /** @name Fault-recovery accounting (src/faults). @{ */
    /** Cluster re-dispatches after a device fault evicted this
     *  request (capped by FaultConfig::maxRetries). */
    std::uint32_t faultRetries = 0;
    /** Prefill + decode tokens discarded by device crashes — the
     *  regeneration cost of this request's fault history. */
    std::uint64_t lostTokens = 0;
    /** A device fault disrupted this request at least once. */
    bool faulted = false;
    /** Terminal failure: the fault-retry budget ran out. */
    bool faultFailed = false;
    /** @} */

    sim::SimTime admitted;   ///< budget granted, prefill queued
    sim::SimTime firstToken; ///< prefill completed (TTFT endpoint)
    sim::SimTime lastToken;  ///< most recent token emission
    sim::SimTime completed;  ///< last decode token emitted
    /**
     * Longest inter-token gap seen while decoding: the decode stall
     * another request's prefill (monolithic or chunked) inflicted on
     * this batch member. Chunk-interleaved policies bound it near one
     * chunk's latency; monolithic prefill inflates it to a whole
     * prompt's.
     */
    double maxTokenGapSec = 0.0;

    /** KV-resident tokens at attention time of the next decode step. */
    std::size_t
    residentTokens() const
    {
        const std::size_t n = task.ctxLen + generated + 1;
        return budgetGranted ? std::min(n, budgetGranted) : n;
    }

    bool done() const { return generated >= task.decLen; }

    /** Prompt tokens still to prefill. */
    std::size_t
    remainingPrompt() const
    {
        return task.ctxLen > prefilled ? task.ctxLen - prefilled : 0;
    }
    bool prefillDone() const { return prefilled >= task.ctxLen; }

    /** Absolute wall-clock TTFT deadline (arrival + SLO budget). */
    sim::SimTime
    ttftDeadline() const
    {
        return arrival + sim::SimTime::fromSec(ttftDeadlineSec);
    }
    /** Doomed once `now - firstToken` exceeds this: even an instant
     *  finish would then miss the TPOT target. */
    sim::SimTime
    doomAfter() const
    {
        return sim::SimTime::fromSec(tpotTargetSec *
                                     static_cast<double>(task.decLen));
    }
};

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_REQUEST_HPP
