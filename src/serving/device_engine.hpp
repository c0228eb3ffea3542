/**
 * @file
 * One device's engine-step executor, plus the serving-run config and
 * report types every owner shares. `cluster::ClusterEngine` runs N
 * executors, each on its own `sim::EventQueue` partition; a
 * single-device session is a 1-device cluster. The executor owns
 * everything that is per-accelerator — the KV-budget allocator, the
 * policy instance, the waiting/admitted/running queues, the step
 * counters and the SLO metrics — while the *owner* owns the request
 * table, the event queue, and the arrival routing.
 *
 * The step loop: at every step boundary the engine (1) optionally
 * reclaims deadline-doomed decodes (preempt-and-requeue, below), (2)
 * offers waiting requests to the allocator in the policy's admission
 * order, and (3) executes the `EngineStepPlan` the policy emits — one
 * prefill chunk or one batched decode iteration, costed by the accel
 * timing model. Requests enter through `enqueue(idx)`, which is what
 * the owner calls from its arrival (or re-dispatch) events.
 *
 * Preempt-and-requeue (`PreemptConfig`): when enabled and this device
 * has waiting demand (dispatch is route-once, so only local waiters
 * can use the freed budget), a running decode whose TPOT target is
 * *already unattainable* — elapsed decode time alone exceeds
 * `tpotTarget x decLen`, so even an instant finish would miss — has
 * its KV grant reclaimed and its progress reset, and is
 * handed back through `Hooks::requeue` (the cluster re-dispatches it,
 * possibly to another device) or requeued locally. The request keeps
 * its original arrival and first-token timestamps, so the restart is
 * charged as a decode stall and the TPOT miss stays on the books; each
 * request is preempted at most once, so traces always drain.
 *
 * Fast path (`DeviceConfig::fastSim`, on by default, bit-identical —
 * see docs/ARCHITECTURE.md "Simulation-core performance"): decode
 * step costs come from the device's `accel::StepCostCache`, whose memo
 * a cluster shares among devices with equal systems (prefill chunks
 * are costed uncached in either mode); per-step vectors are
 * engine-owned scratch reused across steps; completion callbacks
 * capture only `this` (in-flight step state lives in members) so the
 * `std::function` stays in its small-object buffer; and runs of
 * decode boundaries nothing can observe — no member completing, no
 * admission or preemption possible, no pending event before the
 * boundary — are fast-forwarded inline without re-entering the event
 * queue, replaying the per-boundary cost lookups and accumulations the
 * step-at-a-time loop would perform. Member token counters and
 * waterfall decode shares are applied in bulk where nothing inside the
 * window reads them; traced and untraced runs and both KV pools share
 * that one window (see runDecodeStep). Its boundaries between syncs
 * run in one quiet run: a tight loop while some member still grows,
 * then, once every member is clamped and the steps repeat exactly, one
 * update (energy through the exact `repeatedAdd`). A traced window
 * takes the same run and still emits one decode slice per boundary.
 * The event path's decode step and every sync of a window (a page
 * edge, or a replayed admission round not at its fixpoint) begin in
 * one body, `beginDecodeStep`; the round that planned the step is the
 * window's first replayed round, so a window whose round and chain
 * growth left the pool unchanged starts quiet.
 * `fastSim = false` keeps the straight-line path; the
 * FastPathEquivalence tests drive both to the same traces and require
 * field-for-field identical reports and trace bytes.
 */

#ifndef KELLE_SERVING_DEVICE_ENGINE_HPP
#define KELLE_SERVING_DEVICE_ENGINE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/step_cost_cache.hpp"
#include "accel/timing_model.hpp"
#include "faults/fault_injector.hpp"
#include "model/model_config.hpp"
#include "obs/attribution.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "serving/engine_step.hpp"
#include "serving/kv_budget_allocator.hpp"
#include "serving/policy.hpp"
#include "serving/request.hpp"
#include "serving/request_generator.hpp"
#include "serving/serving_metrics.hpp"
#include "sim/event_queue.hpp"

namespace kelle {
namespace serving {

/**
 * Deadline-doomed decode reclamation knob. A decode is doomed once its
 * elapsed decode time exceeds `tpotTarget x decLen` with tokens still
 * to emit: even finishing instantly would miss the TPOT target.
 */
struct PreemptConfig
{
    bool enabled = false;
};

/**
 * Paged KV pool mode (ISSUE 8). Off keeps the legacy contiguous
 * per-request reservations bit-identically. On, the device's KV pool
 * becomes a kv::KvPagePool of `blockTokens`-token pages: admission
 * reserves only the protected floor, budgets grow lazily page by
 * page, admission pressure clamps running budgets to what they hold,
 * and requests carrying a prefix key share published prefix pages
 * copy-free (their prefill skips the covered tokens — cheaper TTFT).
 */
struct PagedKvConfig
{
    bool enabled = false;
    std::size_t blockTokens = 64;
    /**
     * Stored bits per KV value for pages (0 keeps system.kv.kvBits).
     * Applied to the whole timing/energy/capacity stack, so INT8/INT4
     * pages cost fewer pool bytes and less refresh energy.
     */
    int quantBits = 0;
    bool sharePrefixes = true;
};

/** What differs per device in a (possibly heterogeneous) fleet; the
 *  only place a device's system, KV pool and batch cap are set. */
struct DeviceSpec
{
    /** Verbose-log and trace-track label. */
    std::string name;
    accel::SystemConfig system = accel::kelleEdramSystem(2048);
    /**
     * KV pool size in tokens; 0 derives it from the §8.4.1 capacity
     * analysis of `system` (device DRAM net of resident weights).
     */
    std::size_t poolTokens = 0;
    /** Decode-batch cap (Fcfs always serves one request). */
    std::size_t maxBatch = 16;
};

/** The engine knobs every device of a run shares. */
struct DeviceConfig
{
    model::ModelConfig model = model::llama2_7b();
    SchedulePolicy policy = SchedulePolicy::ContinuousBatching;
    /**
     * Prefill chunk size in prompt tokens; 0 runs each prompt as one
     * monolithic step. Smaller chunks let policies preempt long
     * prefills at chunk boundaries at the price of re-streaming the
     * weights once per chunk.
     */
    std::size_t chunkTokens = 0;
    /** Per-request budget override; 0 keeps each task's N'. */
    std::size_t budgetOverride = 0;
    /** Allocator pressure watermark. */
    double highWatermark = 0.85;
    /**
     * EdfChunked slack-aware alternation: run consecutive prefill
     * chunks when the prefilling request's TTFT slack is below this
     * fraction of its whole TTFT budget (see policy.hpp). 0 keeps the
     * unconditional alternation bit-exactly.
     */
    double chunkSlackFrac = 0.0;
    /** Preempt-and-requeue of deadline-doomed decodes (off by
     *  default; the cluster exposes it as a fleet-level knob). */
    PreemptConfig preempt;
    /** Paged KV pool (off keeps the contiguous allocator bit-exactly). */
    PagedKvConfig paged;
    /** Safety cap on engine steps (prefill chunks + decode
     *  iterations); 0 = run the trace to completion. */
    std::uint64_t maxEngineSteps = 0;
    /**
     * Bit-identical simulation fast path: memoized step costing plus
     * fast-forwarding of provably identical decode steps. Off reverts
     * to uncached step-at-a-time execution (the equivalence oracle
     * and the bench_simspeed `--ref` baseline).
     */
    bool fastSim = true;
    /** inform() per-request lifecycle lines (examples/edge_server). */
    bool verbose = false;
    /**
     * Wall-clock phase profiling (obs::PhaseProfiler): the engine adds
     * its inline fast-forward stretches. Null (the default) skips even
     * the clock reads; sim outputs are identical either way.
     */
    obs::PhaseProfiler *profiler = nullptr;
};

class DeviceEngine
{
  public:
    /** Owner callbacks wired by the cluster (optional). */
    struct Hooks
    {
        /** Re-dispatch a preempted victim; local requeue when null. */
        std::function<void(std::size_t idx)> requeue;
        /**
         * Timestamp of the earliest event from outside this engine's
         * own queue that could *affect it* (`never()` when none
         * remains) —
         * the cluster's current lookahead horizon. When set, the
         * decode fast-forward window is bounded by this instead of by
         * the engine's queue alone; leaving it unset falls back to
         * the queue's next pending event.
         */
        std::function<sim::SimTime()> nextExternalEvent;
    };

    /**
     * Bind the engine to the owner's event queue and request table.
     * Both must outlive the engine; `requests` may grow only before
     * the first `enqueue`. `spec.name` labels the verbose log; empty
     * for a single-device session. With `memo_peer`, the engine's
     * step-cost cache joins that cache's decode-memo group instead of
     * starting its own; the peer's system must equal this engine's
     * (after the paged quantization override) and its model must be
     * the same.
     */
    DeviceEngine(const DeviceConfig &cfg, const DeviceSpec &spec,
                 sim::EventQueue &queue, std::vector<Request> &requests,
                 const accel::StepCostCache *memo_peer = nullptr);

    void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }

    /**
     * Attach this device's trace track (see obs/trace.hpp). Null (the
     * default) disables tracing at the cost of one pointer test per
     * hook — no allocation, no output perturbation. Set before the
     * first `enqueue`; the track must outlive the engine.
     */
    void setTrace(obs::TraceTrack *track) { trace_ = track; }

    /**
     * Attach the run's latency waterfall (obs/attribution.hpp) and
     * this device's index in it. Null (the default) disables
     * attribution at the cost of one pointer test per hook — no
     * allocation, no output perturbation. Set before the first
     * `enqueue`; the waterfall must outlive the engine.
     */
    void
    setWaterfall(obs::LatencyWaterfall *wf, std::uint32_t device)
    {
        wf_ = wf;
        wfDevice_ = device;
    }

    /** Hand an arrived (or requeued) request to this device. One
     *  whose floor the whole pool can never hold (`canEverAdmit`) is
     *  rejected on the spot: it never waits, so it is never demand. */
    void enqueue(std::size_t idx);

    /** A request re-entering the queue after a first life (preempt or
     *  fault eviction): enqueue logs a requeue, not an arrival, and
     *  the bypass accounting treats it as an old id arriving late. */
    static bool
    secondLife(const Request &r)
    {
        return r.preemptions > 0 || r.faultRetries > 0;
    }
    /** Record a first-life arrival at `t`: the span begin (plus the
     *  SLO targets when attribution is on) on `trace` and the
     *  waterfall entry. Either sink may be null. The cluster calls it
     *  for a request that arrives while the whole fleet is down. */
    static void recordArrival(obs::TraceTrack *trace,
                              obs::LatencyWaterfall *wf,
                              std::size_t idx, const Request &r,
                              sim::SimTime t);

    /** @name Status for dispatch policies and roll-ups. @{ */
    /** The verbose-log label ("" if unnamed). */
    const std::string &name() const { return spec_.name; }
    const KvBudgetAllocator &allocator() const { return allocator_; }
    double freeKvBytes() const
    {
        return allocator_.capacityBytes() - allocator_.inUseBytes();
    }
    std::size_t waitingCount() const { return waiting_.size(); }
    /** Admitted + running requests resident on the device. */
    std::size_t activeCount() const
    {
        return admitted_.size() + running_.size();
    }
    /**
     * Whether this device's whole KV pool can ever hold the request's
     * protected budget floor. False means enqueueing here guarantees
     * rejection, however empty the pool — the dispatcher uses this to
     * avoid turning a serveable request into a permanent reject.
     */
    bool
    canEverAdmit(const Request &r) const
    {
        return minBudget(r.task) <= allocator_.capacityTokens();
    }
    std::size_t dispatched() const { return dispatched_; }
    /**
     * Conservative lower bound on when this device could next hand a
     * preemption victim back through `Hooks::requeue`, `never()` when
     * it provably cannot before new work reaches it (preemption off,
     * or no waiting demand — the waiting queue only shrinks until the
     * owner enqueues again). The cluster drive loop bounds every
     * device's lookahead window with this: the preemption scan fires once `t - firstToken >
     * doomAfter()`, so a decode that is running now is not doomed
     * before the tick `firstToken + doomAfter() + 1`, and one that
     * starts decoding later starts its doom clock no earlier than
     * `now` — or at its first token, when a fault eviction restarts
     * it. The bound may lie in the past (a survivor already past its
     * doom time is preemptable at its very next boundary); callers
     * must fall back to a serialized round at that instant.
     */
    sim::SimTime nextPossibleRequeueTime(sim::SimTime now) const;
    /** @} */

    /**
     * @name Fault surface (src/faults), driven by the cluster engine.
     * `crashAt` and `disruptAt` start a disruption and `recoverAt`
     * ends either kind; `degradeAt` and `failRequestAt` serve the
     * owner's degradation ladder and retry budget. `crashed()` is the
     * device's one health state: a slowed or shrunk device still takes
     * work. Every method takes the fault instant `t` and requires the
     * bound event queue to have been advanced to `t` (`queue_.now() ==
     * t`), so any admission or trace activity it triggers stamps the
     * fault time. All device-track trace writes stay on this engine —
     * the single-writer contract the cluster drive loop relies on (it
     * calls these only with the worker pool joined).
     * @{
     */
    /**
     * Device crash: every resident request (running, admitted,
     * waiting — in that drain order) loses its KV and its progress
     * and is appended to `victims` for the owner to re-dispatch;
     * `lost_tokens` accumulates the prefill+decode tokens discarded
     * (the regeneration cost). The engine empties completely — the
     * allocator ends at zero in-use — and refuses new work until
     * `recoverAt`. The pending step-completion event is orphaned by
     * an epoch bump and pops as a no-op.
     */
    void crashAt(sim::SimTime t, std::vector<std::size_t> *victims,
                 std::uint64_t *lost_tokens);
    /** A disruption short of a crash: a Slowdown scales step
     *  latencies by `factor`, a PoolShrink the KV capacity admission
     *  sees. */
    void disruptAt(sim::SimTime t, faults::FaultKind kind, double factor);
    /** The `cause` disruption is over: a crashed device accepts
     *  dispatches again, a slowed one steps at full speed, a shrunk
     *  pool regains its capacity and admits blocked waiters. */
    void recoverAt(sim::SimTime t, faults::FaultKind cause);
    /**
     * Graceful-degradation ladder. Rungs 1-2 (paged mode; contiguous
     * pools have nothing reclaimable): drop cached shared-prefix
     * pages, clamp running budgets to what they hold, and re-run
     * dispatch so freed pages admit blocked waiters at once. Rung 3:
     * shed waiting requests whose TTFT deadline has already expired,
     * appending them to `shed` for the owner to re-dispatch through
     * the retry path.
     */
    void degradeAt(sim::SimTime t, std::vector<std::size_t> *shed);
    /**
     * Terminal fault failure: the owner's retry budget for `idx` ran
     * out. Counts as a rejection in the SLO metrics, lands in the
     * waterfall with the fault flag, and closes the request's trace
     * span with outcome "failed".
     */
    void failRequestAt(sim::SimTime t, std::size_t idx);
    bool crashed() const { return crashed_; }
    /** @} */

    /** @name Run outcome, read by the owner after the queue drains. @{ */
    const ServingMetrics &metrics() const { return metrics_; }
    std::uint64_t engineSteps() const { return engineSteps_; }
    std::uint64_t decodeSteps() const { return decodeSteps_; }
    std::uint64_t prefillChunks() const { return prefillChunks_; }
    std::uint64_t prefills() const { return prefills_; }
    sim::SimTime lastCompletion() const { return lastCompletion_; }
    /** Wall-clock the accelerator spent executing engine steps. */
    sim::SimTime busyTime() const { return busy_; }
    /** Step-cost memoization accounting (zero when fastSim is off). */
    const accel::StepCostCache::Stats &
    costCacheStats() const
    {
        return costCache_.stats();
    }
    /** The step-cost cache: the peer a later device's constructor
     *  joins to share this device's decode memo. */
    const accel::StepCostCache &costCache() const { return costCache_; }
    /** Decode boundaries replayed without re-entering the event
     *  queue; a subset of decodeSteps(). */
    std::uint64_t fastForwardedSteps() const { return fastForwarded_; }
    bool truncated() const { return truncated_; }
    /** Trace fully served: not truncated and all queues empty. */
    bool drained() const
    {
        return !truncated_ && waiting_.empty() && admitted_.empty() &&
               running_.empty();
    }
    /** @} */

  private:
    void dispatch();
    void preemptDoomed();
    void admitWaiting();
    /** `pos` sentinel: look the entry up only if it must be erased. */
    static constexpr std::size_t kFindPos =
        static_cast<std::size_t>(-1);
    bool tryAdmitAt(std::size_t pos, std::size_t idx);
    void runPrefillChunk(const EngineStepPlan &plan);
    void runDecodeStep(const EngineStepPlan &plan);
    void onPrefillDone();
    void onDecodeDone();
    /** Upper bound on decode boundaries that may be replayed inline
     *  after the in-flight step (0 = fast-forward ineligible). Sets
     *  `*replay_deferrals` when each replayed boundary must re-attempt
     *  (and re-defer) the admission round recorded in `deferScratch_`
     *  to keep the allocator's deferral accounting identical. */
    std::size_t silentStepBudget(bool *replay_deferrals) const;
    /** A decode step's and its fast-forward window's state (see
     *  runDecodeStep). */
    struct FastForwardWindow;
    /** Grow the members' chains, cost the step starting at `w.t` and
     *  add its energy and busy time; with `rebase`, also count the
     *  clamp steps and the page edge from there. */
    void beginDecodeStep(FastForwardWindow &w, bool rebase);
    /** Apply up to `runs` quiet boundaries of `w`, stopping before the
     *  first at or past its horizon; returns how many it applied. */
    template <bool Traced>
    std::size_t quietRun(FastForwardWindow &w, std::size_t runs);
    /** The replayed round's defer events and the decode slice of the
     *  step starting at `w`'s last applied boundary. */
    void traceBoundary(const FastForwardWindow &w);
    void finishRequest(std::size_t idx);
    /** Release a preempted or crash-evicted victim's grant (if it
     *  holds one) and reset its state, progress and budgets: the KV is
     *  gone, so the prompt and emitted tokens must rerun. Arrival and
     *  first-token stamps survive. */
    void resetVictim(std::size_t idx);
    /** A crash or shed eviction's record: the request is marked
     *  faulted, and the trace and waterfall log the eviction with the
     *  `work` tokens it discarded. */
    void recordFaultEvict(sim::SimTime t, std::size_t idx,
                          std::uint64_t work);
    /** A step latency on the simulation clock, stretched by `scale`
     *  (a slowdown fault's): the one place the timing model's `double`
     *  seconds are rounded to ticks. */
    static sim::SimTime
    scaled(Time lat, double scale)
    {
        return sim::SimTime::fromSec(lat.sec() * scale);
    }
    sim::SimTime scaled(Time lat) const { return scaled(lat, latencyScale_); }
    /** First tick at which the preemption scan would find a running
     *  member doomed (`never()` when none can be). */
    sim::SimTime firstDoomedRunning() const;
    /** Ensure `idx`'s grant holds `tokens`, clamping the budget to
     *  the chain's capacity when the page pool is exhausted (never
     *  below the floor acquired at admission). Callers never ask for
     *  more than the budget, so this is a no-op on a contiguous grant,
     *  whose capacity is its budget. */
    void ensureCapacity(std::size_t idx, std::size_t tokens);
    /** Paged admission pressure: clamp each running budget N' to
     *  max(floor, resident), so no member grows its chain further.
     *  Frees no pages — chains hold only what residents need. */
    void clampRunningBudgets();
    /** One allocator attempt as an admission round makes it: paged
     *  mode first clamps running budgets when the floor does not fit. */
    KvBudgetAllocator::Grant attemptGrant(std::size_t requested,
                                          std::size_t floor_tokens,
                                          std::uint64_t prefix_key,
                                          std::size_t prefix_len);
    /** Every pool count a deferral round or an ensureCapacity pass can
     *  move; equal marks around a boundary mean neither changed the
     *  pool (the free-list order aside — see runDecodeStep). */
    struct PoolMark
    {
        std::size_t freePages = 0;
        std::size_t cachedPages = 0;
        std::size_t peakUsedPages = 0;
        std::uint64_t cowCopies = 0;
        std::uint64_t cachedReclaims = 0;
        std::uint64_t budgetClips = 0;
        std::uint64_t shrunkGrants = 0;
        bool operator==(const PoolMark &) const = default;
    };
    PoolMark poolMark() const;
    /** Paged-pool counter samples next to each kvInUse emission. */
    void tracePagedCounters(sim::SimTime t);
    EngineView view() const;
    std::size_t requestedBudget(const sim::Task &task) const;
    std::size_t minBudget(const sim::Task &task) const;

    DeviceConfig cfg_;
    DeviceSpec spec_;
    std::string label_; ///< " [name]" verbose-log infix, "" if unnamed
    sim::EventQueue &queue_;
    std::vector<Request> &requests_;
    KvBudgetAllocator allocator_;
    ServingMetrics metrics_;
    std::unique_ptr<Policy> policy_;
    /** Built from spec_.system/cfg_.model (declared above it), or
     *  joined to a peer's decode-memo group. */
    accel::StepCostCache costCache_;
    Hooks hooks_;
    obs::TraceTrack *trace_ = nullptr; ///< null = tracing off
    obs::LatencyWaterfall *wf_ = nullptr; ///< null = attribution off
    std::uint32_t wfDevice_ = 0; ///< this device's waterfall index
    obs::PhaseProfiler *profiler_ = nullptr;

    std::vector<KvBudgetAllocator::Grant> grants_;
    std::deque<std::size_t> waiting_;  ///< arrived, not admitted
    std::deque<std::size_t> admitted_; ///< granted, prompt unfinished
    std::vector<std::size_t> running_; ///< decode-batch members
    /** Requeued preemption victims currently in waiting_ (the only
     *  way an arrival-order admission can overtake a smaller id). */
    std::size_t waitingPreempted_ = 0;

    /**
     * @name Per-step scratch and in-flight state
     * Reused across step boundaries so steady-state stepping allocates
     * nothing (asserted by the AllocationFree test). The in-flight
     * members describe the step whose completion event is pending;
     * they are stable while `engineBusy_` because dispatch() is the
     * only writer and it early-outs on a busy engine.
     * @{
     */
    EngineStepPlan planScratch_;
    std::vector<std::size_t> orderScratch_;
    std::vector<std::size_t> admittedNowScratch_;
    std::vector<std::size_t> victimScratch_;
    std::vector<std::size_t> inFlightBatch_; ///< decode members
    /** Cost of the decode step whose completion event is pending —
     *  onDecodeDone charges each member's waterfall share from it
     *  (a fast-forward window has charged the steps before it). */
    sim::SimTime inFlightStepLatency_;
    std::size_t inFlightPrefillIdx_ = 0;
    std::size_t inFlightPrefillTokens_ = 0;
    accel::StepReport stepScratch_; ///< fastSim-off cost slot
    /** One blocked admission attempt of the last round (tryAdmitAt):
     *  the attemptGrant arguments, plus the request id so a
     *  fast-forward replay emits the same defer trace events as the
     *  event-driven round. */
    struct DeferredAdmit
    {
        std::size_t requested;
        std::size_t floor;
        std::uint64_t prefixKey;
        std::size_t prefixLen; ///< clamped to the prompt
        std::uint64_t req;
    };
    /** The last admission round's blocked attempts, appended by
     *  tryAdmitAt; the decode fast-forward replays them per boundary
     *  when the round was pure deferrals. */
    std::vector<DeferredAdmit> deferScratch_;
    /** Per batch member, the deferred fast-forward boundary from
     *  which its resident stops growing (budget - ctx - generated,
     *  floored at 0), sorted; rebased where a window's step and each
     *  of its syncs begin, since the flush and pool work move
     *  generated and budgets. */
    std::vector<std::size_t> clampScratch_;
    /** @} */

    /** Last admitWaiting round attempted >= 1 candidate and every
     *  attempt was an allocator deferral (none admitted or rejected):
     *  the round is bit-exactly replayable from frozen state. */
    bool lastRoundAllDeferred_ = false;
    /** The pool as the last admission round found it: admitWaiting's
     *  rounds and a window's replayed ones mark it before attempting,
     *  so a window can tell whether the round and the ensureCapacity
     *  pass after it left the pool unchanged. */
    PoolMark roundMark_;

    bool engineBusy_ = false;
    bool truncated_ = false;
    /** @name Fault state (src/faults; inert without an injector). @{ */
    /** Down after crashAt until recoverAt: dispatch and enqueue are
     *  refused (the cluster blacklists the device). */
    bool crashed_ = false;
    /** Slowdown-fault step-latency multiplier (1.0 = healthy). */
    double latencyScale_ = 1.0;
    /** Bumped by crashAt: completion callbacks capture the epoch at
     *  schedule time and no-op when it no longer matches, orphaning
     *  the in-flight step of a crashed device. */
    std::uint32_t runEpoch_ = 0;
    /** @} */
    EngineStepKind lastStep_ = EngineStepKind::Idle;
    std::size_t dispatched_ = 0;
    std::uint64_t engineSteps_ = 0;
    std::uint64_t decodeSteps_ = 0;
    std::uint64_t prefillChunks_ = 0;
    std::uint64_t prefills_ = 0;
    std::uint64_t fastForwarded_ = 0;
    sim::SimTime lastCompletion_;
    sim::SimTime busy_;
};

/**
 * The shared half of a serving run's configuration: every engine knob
 * the devices share, plus the traffic and the run-wide observers. A
 * run is a `cluster::ClusterConfig` whose `devices` hold one
 * `DeviceSpec` per device (a single-device session is a 1-device
 * fleet); the cluster builds each device from the `DeviceConfig` base
 * and that device's spec.
 */
struct ServingConfig : DeviceConfig
{
    TrafficConfig traffic;
    /**
     * Deterministic request-lifecycle tracing (obs/trace.hpp): the
     * owner registers one track per device and emits every lifecycle
     * event into it, stamped with sim time. Null (the default)
     * disables tracing with zero cost and zero output perturbation.
     * Use one recorder per run; it must outlive the engine.
     */
    obs::TraceRecorder *trace = nullptr;
    /**
     * SLO root-cause attribution (obs/attribution.hpp): the owner
     * sizes the waterfall for the generated trace and every device
     * engine stamps its requests' latency components and miss causes
     * into it; the roll-up lands in `ServingReport::attribution`.
     * Null (the default) disables attribution with zero cost and zero
     * output perturbation. One waterfall per run; it must outlive the
     * engine.
     */
    obs::LatencyWaterfall *waterfall = nullptr;
};

/** Paged-pool accounting in a report (zeros in contiguous mode). */
struct PagedPoolStats
{
    bool enabled = false;
    std::size_t totalPages = 0;
    std::size_t blockTokens = 0;
    std::size_t peakUsedPages = 0;
    std::size_t peakSharedPages = 0;
    std::uint64_t prefixHitTokens = 0;
    std::uint64_t cowCopies = 0;
    std::uint64_t cachedReclaims = 0;
    /** Retired tail-page harvest: never counted, reads 0. Kept
     *  because the repository benchmark hashes and reports it. */
    std::uint64_t tailReclaims = 0;
    std::uint64_t budgetClips = 0;
};

/** Run outcome: SLO summary plus engine/allocator accounting. */
struct ServingReport
{
    ServingSummary summary;
    std::uint64_t engineSteps = 0;   ///< prefill chunks + decode steps
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0; ///< == prefills when unchunked
    std::uint64_t prefills = 0;      ///< completed prompt prefills
    std::size_t poolTokens = 0;
    double poolCapacityBytes = 0.0;
    double poolPeakBytes = 0.0;
    std::uint64_t shrunkGrants = 0;
    std::uint64_t deferrals = 0;
    /** Peak sum of live grants' logical budgets N' (both modes) —
     *  the resident-token capacity metric of the paged benches. */
    std::size_t peakLogicalTokens = 0;
    PagedPoolStats paged;
    /** Latency-waterfall roll-up (empty when attribution is off). */
    obs::AttributionReport attribution;
    /** False when maxEngineSteps truncated the run. */
    bool drained = true;
};

/** One device's ServingReport, summarized over `makespan`. */
ServingReport deviceReport(const DeviceEngine &dev, Time makespan);

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_DEVICE_ENGINE_HPP
