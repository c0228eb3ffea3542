/**
 * @file
 * The policy layer of the serving engine: *what* to run next,
 * decoupled from *how* it is costed and executed.
 *
 * A `Policy` sees a read-only `EngineView` of the engine state at each
 * step boundary and makes two decisions:
 *
 *  1. `admissionOrder` — the order in which waiting requests should be
 *     offered to the KV-budget allocator, and (via `skipBlocked`)
 *     whether a request whose budget does not fit right now blocks the
 *     queue head or may be bypassed by later arrivals that do fit;
 *  2. `nextStep` — the `EngineStepPlan` the executor runs: one
 *     request's next prefill chunk, or one decode iteration over the
 *     batch.
 *
 * Shipped policies:
 *  - `Fcfs`: strict run-to-completion, one request owns the machine.
 *  - `ContinuousBatching`: iteration-level batching with FIFO,
 *    head-of-line admission and prefill-priority steps (vLLM-style).
 *  - `SjfWithinDeadline`: shortest-job-first admission among requests
 *    with comfortable TTFT slack; requests nearing their deadline are
 *    promoted in earliest-deadline order, bounding SJF starvation.
 *    Blocked candidates are bypassed, so a large request at the head
 *    no longer starves small ones that fit the pool.
 *  - `EdfChunked`: earliest-TTFT-deadline-first admission and chunk
 *    selection, alternating prefill chunks with decode iterations so
 *    neither TTFT nor TPOT stalls behind the other (Sarathi-style).
 *    With `EngineView::chunkSlackFrac > 0` the alternation is
 *    slack-aware: a prefill whose TTFT slack has run short runs its
 *    chunks back to back instead of yielding to decode.
 */

#ifndef KELLE_SERVING_POLICY_HPP
#define KELLE_SERVING_POLICY_HPP

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "serving/engine_step.hpp"
#include "serving/request.hpp"

namespace kelle {
namespace serving {

enum class SchedulePolicy
{
    Fcfs,               ///< request-at-a-time run-to-completion
    ContinuousBatching, ///< iteration-level batching, FIFO admission
    SjfWithinDeadline,  ///< shortest-job-first, deadline-bounded
    EdfChunked,         ///< earliest-deadline-first, chunk-interleaved
};

std::string toString(SchedulePolicy p);
/**
 * Parse "fcfs" / "contbatch" / "sjf-deadline" / "edf-chunked" (plus a
 * few aliases); returns false on unknown input.
 */
bool parseSchedulePolicy(const std::string &text, SchedulePolicy *out);
/** The valid policy names, for CLI error messages: "fcfs|contbatch|...". */
std::string schedulePolicyNames();
/** Every policy, in enum order (bench/test sweeps). */
std::vector<SchedulePolicy> allSchedulePolicies();

/**
 * Read-only view of the engine state at a step boundary. Indices refer
 * to `requests` (trace order). `waiting` are arrived-but-unadmitted
 * requests in arrival order; `admitted` hold a KV grant but have
 * prompt tokens left to prefill; `running` are decode-batch members.
 */
struct EngineView
{
    sim::SimTime now;
    const std::vector<Request> &requests;
    const std::deque<std::size_t> &waiting;
    const std::deque<std::size_t> &admitted;
    const std::vector<std::size_t> &running;
    std::size_t maxBatch = 1;
    /** Prefill chunk size in prompt tokens; 0 = whole prompt. */
    std::size_t chunkTokens = 0;
    /**
     * Slack-aware chunk alternation (EdfChunked): when the prefilling
     * request's remaining TTFT slack falls below this fraction of its
     * whole TTFT budget, consecutive prefill chunks run back to back
     * instead of alternating with decode steps, recovering the
     * knee-regime TTFT tax of unconditional alternation. 0 disables
     * the rule and preserves the unconditional alternation bit-exactly.
     */
    double chunkSlackFrac = 0.0;
    /** Kind of the engine step that ran last (Idle before the first). */
    EngineStepKind lastStep = EngineStepKind::Idle;
};

class Policy
{
  public:
    virtual ~Policy() = default;

    virtual SchedulePolicy kind() const = 0;

    /** Concurrent-request cap (admitted + running). */
    virtual std::size_t
    admissionCap(std::size_t max_batch) const
    {
        return max_batch;
    }

    /**
     * When true, a waiting request whose budget does not fit is
     * skipped and the next candidate is tried (admission reordering);
     * when false it blocks the queue head until a release (FIFO).
     */
    virtual bool skipBlocked() const { return false; }

    /**
     * True when admissionOrder is the identity (arrival order), which
     * lets the engine admit straight off the waiting queue's head —
     * no order materialization, O(1) removals. Policies overriding
     * admissionOrder must return false.
     */
    virtual bool fifoAdmission() const { return true; }

    /**
     * Fill `order` with the waiting requests in the order admission
     * should be attempted (default: arrival/FIFO order). `order` is
     * caller-owned scratch reused across admission rounds;
     * implementations overwrite it completely.
     */
    virtual void admissionOrder(const EngineView &v,
                                std::vector<std::size_t> &order) const;

    /**
     * An instant no later than the first tick at which
     * `admissionOrder` over the same waiting queue may differ from
     * its order at `v.now`; `never()` for a time-independent order
     * (the default). The decode fast-forward ends a window before it,
     * so replayed admission rounds keep the event path's order.
     */
    virtual sim::SimTime
    nextOrderChange(const EngineView &) const
    {
        return sim::SimTime::never();
    }

    /**
     * Fill `plan` with the next engine step (Idle when nothing is
     * runnable). `plan` arrives reset(); it is caller-owned scratch,
     * so `decodeBatch` assignment reuses capacity step over step.
     */
    virtual void nextStep(const EngineView &v,
                          EngineStepPlan &plan) const = 0;

    /** The request's next prefill chunk length under `v.chunkTokens`. */
    static std::size_t nextChunkLen(const EngineView &v,
                                    const Request &r);
};

/** Build the policy object for a SchedulePolicy value. */
std::unique_ptr<Policy> makePolicy(SchedulePolicy kind);

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_POLICY_HPP
