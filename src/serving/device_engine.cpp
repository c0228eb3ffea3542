#include "serving/device_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "accel/capacity.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "tensor/quant.hpp"

namespace kelle {
namespace serving {

using sim::SimTime;

namespace {

/** Extra slack above the protected regions in the budget floor. */
constexpr std::size_t kFloorSlackTokens = 8;

/** First tick at which the preemption scan finds `r` doomed when its
 *  doom clock started at `start`: the scan fires once `now - start >
 *  doomAfter()`. */
SimTime
doomTick(const Request &r, SimTime start)
{
    return start + r.doomAfter() + SimTime::nanos(1);
}

/** Group size for quantized page storage (KvCacheConfig default). */
constexpr std::size_t kPageQuantGroup = 32;

/**
 * Page quantization flows through the whole stack by overriding the
 * system's KV precision *before* the allocator and cost cache are
 * built: timing, energy, refresh, and capacity all see the quantized
 * bits through the existing accel model.
 */
DeviceSpec
normalizedSpec(const DeviceConfig &cfg, DeviceSpec spec)
{
    if (cfg.paged.enabled && cfg.paged.quantBits > 0)
        spec.system.kv.kvBits = cfg.paged.quantBits;
    return spec;
}

AllocatorConfig
makeAllocatorConfig(const DeviceConfig &cfg, const DeviceSpec &spec)
{
    AllocatorConfig a;
    a.bytesPerToken =
        cfg.model.kvBytesPerToken(spec.system.kv.kvBits);
    std::size_t pool = spec.poolTokens;
    // §8.4.1: device DRAM net of resident weights bounds the KV pool
    // shared by all concurrent requests.
    if (pool == 0)
        pool = accel::maxSupportedTokens(
                   cfg.model, accel::capacitySpecOf(spec.system))
                   .maxTokens;
    KELLE_ASSERT(pool > 0, "KV pool has no room for any token");
    a.capacityBytes = static_cast<double>(pool) * a.bytesPerToken;
    a.highWatermark = cfg.highWatermark;
    if (cfg.paged.enabled) {
        a.pagedBlockTokens =
            std::max<std::size_t>(1, cfg.paged.blockTokens);
        // One page holds blockTokens x (K+V across all layers) values
        // at the system's KV precision, with per-group scale/zero
        // metadata when quantized — the QuantizedGroups layout.
        const auto values_per_token = static_cast<std::size_t>(
            cfg.model.kvBytesPerToken(16) / 2.0);
        a.pagedBytesPerPage = tensor::quantizedStoreBytes(
            values_per_token * a.pagedBlockTokens,
            spec.system.kv.kvBits, kPageQuantGroup);
        a.pagedTotalPages = std::max<std::size_t>(
            1, static_cast<std::size_t>(a.capacityBytes /
                                        a.pagedBytesPerPage));
        a.pagedSharePrefixes = cfg.paged.sharePrefixes;
    }
    return a;
}

} // namespace

std::string
toString(RequestState s)
{
    switch (s) {
      case RequestState::Waiting:
        return "waiting";
      case RequestState::Prefilling:
        return "prefilling";
      case RequestState::Decoding:
        return "decoding";
      case RequestState::Completed:
        return "completed";
      case RequestState::Rejected:
        return "rejected";
    }
    return "?";
}

ServingReport
deviceReport(const DeviceEngine &dev, Time makespan)
{
    ServingReport rep;
    rep.summary = dev.metrics().summarize(makespan);
    rep.engineSteps = dev.engineSteps();
    rep.decodeSteps = dev.decodeSteps();
    rep.prefillChunks = dev.prefillChunks();
    rep.prefills = dev.prefills();
    rep.poolTokens = dev.allocator().capacityTokens();
    rep.poolCapacityBytes = dev.allocator().capacityBytes();
    rep.poolPeakBytes = dev.allocator().peakInUseBytes();
    rep.shrunkGrants = dev.allocator().shrunkGrants();
    rep.deferrals = dev.allocator().deferrals();
    rep.peakLogicalTokens = dev.allocator().peakLogicalTokens();
    if (const kv::KvPagePool *pool = dev.allocator().pagePool()) {
        rep.paged.enabled = true;
        rep.paged.totalPages = pool->totalPages();
        rep.paged.blockTokens = pool->blockTokens();
        rep.paged.peakUsedPages = pool->peakUsedPages();
        rep.paged.peakSharedPages = pool->peakSharedPages();
        rep.paged.prefixHitTokens = pool->prefixHitTokens();
        rep.paged.cowCopies = pool->cowCopies();
        rep.paged.cachedReclaims = pool->cachedReclaims();
        rep.paged.budgetClips = dev.allocator().budgetClips();
    }
    rep.drained = dev.drained();
    return rep;
}

DeviceEngine::DeviceEngine(const DeviceConfig &cfg,
                           const DeviceSpec &spec,
                           sim::EventQueue &queue,
                           std::vector<Request> &requests,
                           const accel::StepCostCache *memo_peer)
    : cfg_(cfg), spec_(normalizedSpec(cfg, spec)),
      label_(spec.name.empty() ? "" : " [" + spec.name + "]"),
      queue_(queue), requests_(requests),
      allocator_(makeAllocatorConfig(cfg_, spec_)),
      policy_(makePolicy(cfg.policy)),
      costCache_(memo_peer != nullptr
                     ? accel::StepCostCache::sharing(*memo_peer)
                     : accel::StepCostCache(spec_.system, cfg_.model)),
      profiler_(cfg.profiler)
{
    KELLE_ASSERT(costCache_.system() == spec_.system,
                 "a decode-memo group spans unequal systems");
    const std::string err = cfg_.model.validate();
    KELLE_ASSERT(err.empty(), "bad model config: ", err);
    KELLE_ASSERT(spec_.maxBatch > 0, "maxBatch must be positive");
}

std::size_t
DeviceEngine::requestedBudget(const sim::Task &task) const
{
    // No-eviction baselines hold the full cache: the request must
    // reserve its whole ctx+dec footprint (+1 for the in-flight
    // token) and nothing can be shrunk away.
    if (!spec_.system.kv.evict)
        return task.ctxLen + task.decLen + 1;
    const std::size_t req =
        cfg_.budgetOverride ? cfg_.budgetOverride : task.budget;
    return std::max(req, minBudget(task));
}

std::size_t
DeviceEngine::minBudget(const sim::Task &task) const
{
    if (!spec_.system.kv.evict)
        return task.ctxLen + task.decLen + 1;
    return task.sinkTokens + task.recentWindow + kFloorSlackTokens;
}

EngineView
DeviceEngine::view() const
{
    return EngineView{queue_.now(),     requests_,
                      waiting_,         admitted_,
                      running_,         spec_.maxBatch,
                      cfg_.chunkTokens, cfg_.chunkSlackFrac,
                      lastStep_};
}

void
DeviceEngine::enqueue(std::size_t idx)
{
    KELLE_ASSERT(!crashed_,
                 "enqueue into a crashed device (the owner must "
                 "blacklist down devices)");
    if (grants_.size() < requests_.size())
        grants_.resize(requests_.size());
    ++dispatched_;
    Request &r = requests_[idx];
    if (!secondLife(r))
        recordArrival(trace_, wf_, idx, r, queue_.now());
    else if (trace_ != nullptr)
        trace_->requestRequeued(queue_.now(), r.id);
    if (cfg_.verbose) {
        if (!secondLife(r))
            inform("t=", toString(queue_.now()), label_, " request #",
                   r.id, " [", r.task.name, "] arrived (ctx ",
                   r.task.ctxLen, ", dec ", r.task.decLen,
                   ", TTFT deadline ",
                   toString(Time::seconds(r.ttftDeadlineSec)), ")");
        else if (r.preemptions > 0)
            inform("t=", toString(queue_.now()), label_, " request #",
                   r.id, " [", r.task.name,
                   "] requeued after preemption");
        else
            inform("t=", toString(queue_.now()), label_, " request #",
                   r.id, " [", r.task.name,
                   "] re-dispatched after device fault (retry ",
                   r.faultRetries, ")");
    }
    if (!canEverAdmit(r)) {
        // Even an empty pool could never hold the floor. Rejected
        // before it waits, it never counts as demand: no preemption
        // frees budget for it and no queue-depth sample counts it.
        const std::size_t floor_tokens = minBudget(r.task);
        r.state = RequestState::Rejected;
        metrics_.onRejected(r);
        if (wf_ != nullptr)
            wf_->onRejected(idx, queue_.now(), wfDevice_);
        if (trace_ != nullptr)
            trace_->rejected(queue_.now(), r.id, floor_tokens);
        if (cfg_.verbose)
            inform("t=", toString(queue_.now()), label_, " request #",
                   r.id, " rejected: floor ", floor_tokens,
                   " tokens exceeds the KV pool");
        return;
    }
    waiting_.push_back(idx);
    if (secondLife(r))
        ++waitingPreempted_;
    metrics_.sampleQueueDepth(waiting_.size());
    if (trace_ != nullptr)
        trace_->queueDepth(queue_.now(), waiting_.size());
    dispatch();
}

void
DeviceEngine::recordArrival(obs::TraceTrack *trace,
                            obs::LatencyWaterfall *wf, std::size_t idx,
                            const Request &r, SimTime t)
{
    if (trace != nullptr) {
        trace->requestArrived(t, r.id, r.task.name);
        // SLO targets ride the trace only when attribution is on, so
        // pre-attribution trace digests stay byte-identical.
        if (wf != nullptr)
            trace->sloTarget(t, r.id, r.ttftDeadlineSec,
                             r.tpotTargetSec);
    }
    if (wf != nullptr)
        wf->onArrival(idx, r.id, t, r.ttftDeadlineSec, r.tpotTargetSec,
                      r.task.decLen);
}

void
DeviceEngine::dispatch()
{
    if (engineBusy_ || truncated_ || crashed_)
        return;
    preemptDoomed();
    admitWaiting();
    planScratch_.reset();
    policy_->nextStep(view(), planScratch_);
    const EngineStepPlan &plan = planScratch_;
    if (plan.kind == EngineStepKind::Idle)
        return;
    if (cfg_.maxEngineSteps && engineSteps_ >= cfg_.maxEngineSteps) {
        truncated_ = true;
        return;
    }
    lastStep_ = plan.kind;
    ++engineSteps_;
    if (plan.kind == EngineStepKind::PrefillChunk)
        runPrefillChunk(plan);
    else
        runDecodeStep(plan);
}

void
DeviceEngine::preemptDoomed()
{
    if (!cfg_.preempt.enabled || running_.empty())
        return;
    // Reclaim only under *local* demand: dispatch is route-once, so a
    // waiter queued on another device can never use this device's
    // freed budget — preempting for remote demand would discard the
    // victim's tokens and buy nothing.
    if (waiting_.empty())
        return;
    std::vector<std::size_t> &victims = victimScratch_;
    victims.clear();
    for (std::size_t idx : running_) {
        const Request &r = requests_[idx];
        if (r.preemptions > 0) // at most once per request
            continue;
        if (r.tpotTargetSec <= 0.0 || r.task.decLen == 0 || r.done())
            continue;
        if (queue_.now() - r.firstToken > r.doomAfter())
            victims.push_back(idx);
    }
    for (std::size_t idx : victims) {
        Request &r = requests_[idx];
        running_.erase(
            std::find(running_.begin(), running_.end(), idx));
        // The restart is charged as a decode stall and the TPOT miss
        // stays on the books.
        resetVictim(idx);
        ++r.preemptions;
        metrics_.onPreempted();
        if (wf_ != nullptr)
            wf_->onPreempt(idx, queue_.now());
        if (trace_ != nullptr) {
            trace_->preempted(queue_.now(), r.id);
            trace_->kvInUse(queue_.now(), allocator_.inUseBytes());
            tracePagedCounters(queue_.now());
        }
        if (cfg_.verbose)
            inform("t=", toString(queue_.now()), label_, " request #",
                   r.id, " preempted (TPOT already unattainable), KV "
                   "grant reclaimed");
        // The cluster buffers the victim and re-dispatches it after
        // this step boundary completes; the local fallback exists for
        // bare DeviceEngine use only.
        if (hooks_.requeue) {
            hooks_.requeue(idx);
        } else {
            waiting_.push_back(idx);
            ++waitingPreempted_; // r.preemptions was just incremented
            metrics_.sampleQueueDepth(waiting_.size());
            if (trace_ != nullptr) {
                trace_->requestRequeued(queue_.now(), r.id);
                trace_->queueDepth(queue_.now(), waiting_.size());
            }
        }
    }
}

void
DeviceEngine::ensureCapacity(std::size_t idx, std::size_t tokens)
{
    KvBudgetAllocator::Grant &g = grants_[idx];
    if (tokens <= g.chainCapacityTokens)
        return;
    if (!allocator_.growChain(g, tokens)) {
        // Pool exhausted: the chain stopped at best-effort capacity.
        // Clamp the logical budget N' to it — page-granular eviction
        // pressure (the member evicts harder instead of the engine
        // stalling) — never below the floor acquired at admission.
        Request &r = requests_[idx];
        if (g.chainCapacityTokens < r.budgetGranted) {
            allocator_.shrinkBudget(g, g.chainCapacityTokens);
            r.budgetGranted = g.chainCapacityTokens;
        }
    }
}

void
DeviceEngine::clampRunningBudgets()
{
    for (std::size_t idx : running_) {
        Request &r = requests_[idx];
        const std::size_t keep =
            std::max(minBudget(r.task), r.residentTokens());
        if (keep < r.budgetGranted) {
            allocator_.shrinkBudget(grants_[idx], keep);
            r.budgetGranted = keep;
        }
    }
}

KvBudgetAllocator::Grant
DeviceEngine::attemptGrant(std::size_t requested, std::size_t floor_tokens,
                           std::uint64_t prefix_key, std::size_t prefix_len)
{
    if (allocator_.paged() &&
        allocator_.availableTokens() < floor_tokens) {
        // Page-granular admission pressure: before deferring, clamp
        // running budgets to what they hold, so no member grows its
        // chain into the pages a waiter needs — eviction pressure at
        // page granularity instead of preempting the whole victim.
        clampRunningBudgets();
    }
    return allocator_.tryAdmit(requested, floor_tokens, prefix_key,
                               prefix_len);
}

DeviceEngine::PoolMark
DeviceEngine::poolMark() const
{
    PoolMark m;
    if (const kv::KvPagePool *pool = allocator_.pagePool()) {
        m.freePages = pool->freePages();
        m.cachedPages = pool->cachedPages();
        m.peakUsedPages = pool->peakUsedPages();
        m.cowCopies = pool->cowCopies();
        m.cachedReclaims = pool->cachedReclaims();
    }
    m.budgetClips = allocator_.budgetClips();
    m.shrunkGrants = allocator_.shrunkGrants();
    return m;
}

void
DeviceEngine::tracePagedCounters(SimTime t)
{
    if (trace_ == nullptr || !allocator_.paged())
        return;
    const kv::KvPagePool *pool = allocator_.pagePool();
    trace_->kvPagesFree(t, pool->freePages());
    trace_->kvPagesShared(t, pool->sharedPages());
    trace_->kvPrefixHitTokens(t, pool->prefixHitTokens());
}

/**
 * Attempt admission of `idx`, currently at `waiting_[pos]` — or at a
 * position to be looked up lazily when `pos` is `kFindPos` (the
 * reordering policies don't track positions, and searching up front
 * would cost O(W) per *attempted* candidate; only an admission needs
 * the position). Returns false when the candidate is blocked by the
 * allocator; true when it was admitted and removed from waiting_.
 */
bool
DeviceEngine::tryAdmitAt(std::size_t pos, std::size_t idx)
{
    Request &r = requests_[idx];
    // requestedBudget() already clamps to >= the floor.
    const std::size_t requested = requestedBudget(r.task);
    const std::size_t floor_tokens = minBudget(r.task);
    const std::size_t prefix_len = std::min(r.prefixLen, r.task.ctxLen);
    const auto grant =
        attemptGrant(requested, floor_tokens, r.prefixKey, prefix_len);
    if (!grant.admitted) {
        deferScratch_.push_back(DeferredAdmit{
            requested, floor_tokens, r.prefixKey, prefix_len, r.id});
        if (wf_ != nullptr)
            wf_->onDeferred(idx, queue_.now());
        if (trace_ != nullptr)
            trace_->deferred(queue_.now(), r.id, requested,
                             floor_tokens);
        return false;
    }

    if (secondLife(r))
        --waitingPreempted_;
    if (pos == kFindPos)
        pos = static_cast<std::size_t>(
            std::find(waiting_.begin(), waiting_.end(), idx) -
            waiting_.begin());
    waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(pos));
    admittedNowScratch_.push_back(idx);
    r.state = RequestState::Prefilling;
    // A re-admitted preemption (or fault-eviction) victim keeps its
    // first-life admission stamp: (admitted - arrival) is the
    // queue-wait metric, and the victim's first life was service,
    // not queue. Victims that were never admitted — crashed out of
    // the waiting queue — stamp now.
    if (r.admitted == SimTime())
        r.admitted = queue_.now();
    if (wf_ != nullptr)
        wf_->onAdmitted(idx, queue_.now());
    r.budgetRequested = requested;
    r.budgetGranted = grant.budgetTokens;
    if (grant.prefixHitTokens > 0 && r.task.ctxLen > 1) {
        // Shared prefix pages already hold these tokens' KV: prefill
        // resumes past them (capped so at least one prompt token runs
        // — the request still needs its first-token pass).
        r.prefilled =
            std::min(grant.prefixHitTokens, r.task.ctxLen - 1);
    }
    grants_[idx] = grant;
    admitted_.push_back(idx);
    metrics_.sampleQueueDepth(waiting_.size());
    if (trace_ != nullptr) {
        trace_->admitted(queue_.now(), r.id, grant.budgetTokens,
                         requested);
        trace_->queueDepth(queue_.now(), waiting_.size());
        trace_->kvInUse(queue_.now(), allocator_.inUseBytes());
        tracePagedCounters(queue_.now());
    }
    if (cfg_.verbose)
        inform("t=", toString(queue_.now()), label_, " request #",
               r.id, " admitted, N'=", r.budgetGranted,
               r.budgetGranted < requested ? " (shrunk)" : "",
               ", pool ", Table::pct(allocator_.utilization()),
               " full");
    return true;
}

void
DeviceEngine::admitWaiting()
{
    // Under overload the batch sits at cap on most steps: skip the
    // order computation (an O(W log W) sort for the reordering
    // policies) before it could admit anything.
    const std::size_t cap = policy_->admissionCap(spec_.maxBatch);
    if (waiting_.empty() || admitted_.size() + running_.size() >= cap)
        return;
    roundMark_ = poolMark();
    std::vector<std::size_t> &admitted_now = admittedNowScratch_;
    admitted_now.clear();
    deferScratch_.clear();
    if (policy_->fifoAdmission()) {
        // Arrival-order admission straight off the waiting queue: no
        // order snapshot, and every removal pops the current position
        // (the front, unless a blocked candidate was skipped).
        std::size_t pos = 0;
        while (pos < waiting_.size() &&
               admitted_.size() + running_.size() < cap) {
            const std::size_t idx = waiting_[pos];
            if (!tryAdmitAt(pos, idx)) {
                if (!policy_->skipBlocked())
                    break; // head-of-line wait for a release
                ++pos;     // later candidates may still fit
            }
        }
    } else {
        // Snapshot the policy's admission order; entries leave
        // `waiting_` only through this loop, so each is attempted at
        // most once.
        policy_->admissionOrder(view(), orderScratch_);
        for (std::size_t idx : orderScratch_) {
            if (admitted_.size() + running_.size() >= cap)
                break;
            if (!tryAdmitAt(kFindPos, idx)) {
                if (!policy_->skipBlocked())
                    break; // head-of-line wait for a release
            }
        }
    }

    // A round that attempted candidates and deferred every one of
    // them (none admitted — the waiting queue is unchanged) left no
    // observable state behind except the deferrals just recorded in
    // deferScratch_ (and, in paged mode, whatever budget clamp the
    // attempts ran), and from this frozen queue the next round
    // attempts the same candidates. It attempts them in the recorded
    // order only until the policy's time-dependent order next changes
    // (Policy::nextOrderChange), which bounds the window. The decode fast-forward uses this to
    // replay KV-blocked boundaries for every policy, including the
    // reordering ones, and in both pool modes.
    lastRoundAllDeferred_ = admitted_now.empty() && !deferScratch_.empty();

    // Starvation accounting, settled after the round: an admission
    // overtook only the earlier arrivals it left *still waiting* —
    // requests admitted later in the same round at the same timestamp
    // lost nothing and are not counted. For arrival-order admission
    // the count is provably zero unless a requeued preemption victim
    // (an old id enqueued late) sits in the queue, so the O(W) scan
    // runs only when it can produce something.
    if (admitted_now.empty() ||
        (policy_->fifoAdmission() && !policy_->skipBlocked() &&
         waitingPreempted_ == 0))
        return;
    for (std::size_t idx : admitted_now) {
        std::size_t overtaken = 0;
        for (std::size_t w : waiting_)
            overtaken += requests_[w].id < requests_[idx].id ? 1 : 0;
        if (overtaken > 0)
            metrics_.onBypass(overtaken);
    }
}

void
DeviceEngine::runPrefillChunk(const EngineStepPlan &plan)
{
    engineBusy_ = true;
    ++prefillChunks_;
    const std::size_t idx = plan.requestIdx;
    const Request &r = requests_[idx];
    KELLE_ASSERT(plan.chunkTokens > 0 &&
                     plan.chunkTokens <= r.remainingPrompt(),
                 "policy planned an invalid prefill chunk");
    ensureCapacity(idx, std::min(r.prefilled + plan.chunkTokens,
                                 r.budgetGranted));
    const accel::StepReport step =
        costCache_.costModel().prefillChunk(r.prefilled, plan.chunkTokens);
    // Slowdown faults stretch the step wall-clock, not its energy.
    const SimTime lat = scaled(step.latency);
    metrics_.addEnergy(step.energy);
    busy_ += lat;
    if (wf_ != nullptr)
        wf_->onPrefillChunk(idx, lat);
    if (trace_ != nullptr)
        trace_->prefillStep(queue_.now(), lat, r.id,
                            plan.chunkTokens,
                            step.energy.refresh.j());
    // In-flight state in members, epoch + `this` capture (16 bytes):
    // the callback stays inside std::function's small-object buffer
    // (no per-step heap allocation). The epoch orphans the event if
    // the device crashes before it fires.
    inFlightPrefillIdx_ = idx;
    inFlightPrefillTokens_ = plan.chunkTokens;
    queue_.scheduleAfter(lat, [this, e = runEpoch_] {
        if (e == runEpoch_)
            onPrefillDone();
    });
}

void
DeviceEngine::onPrefillDone()
{
    const std::size_t idx = inFlightPrefillIdx_;
    Request &req = requests_[idx];
    req.prefilled += inFlightPrefillTokens_;
    if (req.prefixKey != 0)
        allocator_.publishPrefix(
            grants_[idx], req.prefixKey,
            std::min(req.prefilled, req.prefixLen));
    if (req.prefillDone()) {
        admitted_.erase(
            std::find(admitted_.begin(), admitted_.end(), idx));
        req.state = RequestState::Decoding;
        // A restart re-emits a token the user already saw; requests
        // evicted *before* their first token (crashed out of the
        // waiting/prefilling queues) stamp the real first token
        // whenever it finally lands.
        const bool restart = req.firstToken != SimTime();
        if (!restart) {
            req.firstToken = queue_.now();
            req.lastToken = req.firstToken;
        } else {
            // Restarted victim: the user saw the first token in its
            // first life; the restart shows up as one long
            // inter-token stall.
            req.maxTokenGapSec =
                std::max(req.maxTokenGapSec,
                         (queue_.now() - req.lastToken).sec());
            req.lastToken = queue_.now();
        }
        if (wf_ != nullptr)
            wf_->onFirstToken(idx, queue_.now());
        running_.push_back(idx);
        ++prefills_;
        if (trace_ != nullptr)
            trace_->firstToken(queue_.now(), req.id);
        if (cfg_.verbose && !restart)
            inform("t=", toString(queue_.now()), label_, " request #",
                   req.id, " first token (TTFT ",
                   toString(req.firstToken - req.arrival), ", ",
                   metrics_.metTtft(req) ? "met" : "missed",
                   " deadline), batch ", running_.size());
        else if (cfg_.verbose)
            inform("t=", toString(queue_.now()), label_, " request #",
                   req.id, " resumed decoding after ",
                   req.preemptions > 0 ? "preemption"
                                       : "device fault",
                   ", batch ", running_.size());
    }
    engineBusy_ = false;
    dispatch();
}

std::size_t
DeviceEngine::silentStepBudget(bool *replay_deferrals) const
{
    *replay_deferrals = false;
    if (!cfg_.fastSim || !admitted_.empty())
        return 0;
    if (!waiting_.empty()) {
        // A non-empty queue feeds the preemption scan, and admits at
        // the next boundary unless the batch is capped or the pool is
        // exhausted. The capped case is a provable no-op. The
        // KV-blocked case — batch slots free but no waiter's floor
        // fitting the free bytes — is replayable whenever the round
        // that just ran was pure deferrals: the fast-forward
        // re-performs the recorded attempts per boundary (up to their
        // fixpoint, see runDecodeStep) so the deferral accounting
        // stays identical. This
        // covers arrival-order head-of-line blocking (the round
        // attempted exactly the head) and the reordering policies'
        // all-blocked rounds alike. Preemption no longer disables
        // fast-forwarding: runDecodeStep stops the window before the
        // first boundary whose preemption scan would fire.
        if (admitted_.size() + running_.size() <
            policy_->admissionCap(spec_.maxBatch)) {
            if (!lastRoundAllDeferred_)
                return 0;
            *replay_deferrals = true;
        }
    }
    std::size_t min_rem = 0;
    bool first = true;
    for (std::size_t idx : inFlightBatch_) {
        const Request &r = requests_[idx];
        const std::size_t rem = r.task.decLen - r.generated;
        min_rem = first ? rem : std::min(min_rem, rem);
        first = false;
    }
    if (min_rem <= 1) // the very next boundary completes a member
        return 0;
    std::size_t budget = min_rem - 1;
    if (cfg_.maxEngineSteps) {
        const std::uint64_t room = cfg_.maxEngineSteps - engineSteps_;
        budget = std::min(budget, static_cast<std::size_t>(room));
    }
    return budget;
}

SimTime
DeviceEngine::firstDoomedRunning() const
{
    SimTime first = SimTime::never();
    for (std::size_t idx : running_) {
        const Request &r = requests_[idx];
        if (r.preemptions > 0 || r.tpotTargetSec <= 0.0 ||
            r.task.decLen == 0 || r.done())
            continue;
        first = std::min(first, doomTick(r, r.firstToken));
    }
    return first;
}

SimTime
DeviceEngine::nextPossibleRequeueTime(SimTime now) const
{
    if (!cfg_.preempt.enabled || waiting_.empty())
        return SimTime::never();
    SimTime bound = firstDoomedRunning();
    // Waiters and prefilling admits may start decoding inside another
    // device's window. A first decode starts its doom clock no earlier
    // than `now`; a restart after a fault eviction keeps its original
    // first token, so its clock started then.
    const auto consider = [&](std::size_t idx) {
        const Request &r = requests_[idx];
        if (r.preemptions > 0 || r.tpotTargetSec <= 0.0 ||
            r.task.decLen == 0)
            return;
        bound = std::min(
            bound,
            doomTick(r, r.firstToken != SimTime() ? r.firstToken : now));
    };
    for (std::size_t idx : admitted_)
        consider(idx);
    for (std::size_t idx : waiting_)
        consider(idx);
    return bound;
}

/**
 * A decode step and the fast-forward window it may open (see
 * runDecodeStep): the window's fixed horizon, batch size, whether a
 * waterfall reads the shares and whether each boundary replays the
 * last admission round, then the state each boundary advances.
 */
struct DeviceEngine::FastForwardWindow
{
    SimTime horizon;
    std::size_t batch = 0;
    bool chargeShares = false;
    bool replay = false;
    SimTime t;     ///< the last applied boundary
    SimTime first; ///< the window's first boundary
    /** The step in flight from `t`, its resident total and its scaled
     *  latency; `latShares` splits that latency among the members. */
    const accel::StepReport *step = nullptr;
    std::size_t nSum = 0;
    SimTime lat;
    obs::DecodeShares latShares;
    /** The boundaries deferred since the step began or the last
     *  sync, and over them the largest gap and the summed waterfall
     *  charge. */
    std::size_t deferred = 0;
    double gapMax = 0.0;
    obs::DecodeShares shares;
    /** The `clampScratch_` entries a quiet run has reached (<=
     *  `deferred` + 1), and `deferred` at the next page edge (max when
     *  none is due). */
    std::size_t clamped = 0;
    std::size_t pageEdge = std::numeric_limits<std::size_t>::max();
};

void
DeviceEngine::traceBoundary(const FastForwardWindow &w)
{
    if (w.replay) {
        for (const auto &defer : deferScratch_)
            trace_->deferred(w.t, defer.req, defer.requested, defer.floor);
    }
    trace_->decodeStep(w.t, w.lat, w.batch, w.step->energy.refresh.j());
}

/**
 * A quiet run: boundaries that only move the clock and grow the
 * resident total by the stride, the members still below their clamp
 * step. The caller stops it short of the next page edge. The stride
 * holds from one clamp step to the boundary before the next, so each
 * such stretch runs in a tight loop that re-costs the step at
 * N + stride. Once the stride is 0 every boundary before the horizon
 * repeats the last, and the rest apply in one update: ticks, shares
 * and deferrals by multiplication, energy by `addRepeated`, which
 * equals the adds one by one bit for bit. A traced run still emits
 * each boundary's events. Every lookup and IEEE add is the event
 * path's, in its order; the energy total, `busy_` and the window stay
 * in locals, stored once.
 */
template <bool Traced>
std::size_t
DeviceEngine::quietRun(FastForwardWindow &w, std::size_t runs)
{
    FastForwardWindow c = w;
    accel::EnergyBreakdown e = metrics_.stepEnergy();
    SimTime b = busy_;
    const double scale = latencyScale_;
    // A boundary before the horizon never saturates, so each gap is
    // exactly the step latency.
    double lat_sec = c.lat.sec();
    std::size_t k = 0;
    while (k < runs) {
        while (c.clamped < c.batch &&
               clampScratch_[c.clamped] <= c.deferred + 1)
            ++c.clamped;
        if (c.clamped == c.batch)
            break;
        const std::size_t stride = c.batch - c.clamped;
        const std::size_t end = std::min(
            runs, k + (clampScratch_[c.clamped] - c.deferred - 1));
        const std::size_t first = k;
        for (; k < end; ++k) {
            const SimTime tn = c.t + c.lat;
            if (!(tn < c.horizon))
                break;
            c.gapMax = std::max(c.gapMax, lat_sec);
            if (c.chargeShares)
                c.shares += c.latShares; // the step ending at `tn`
            c.t = tn;
            c.nSum += stride;
            c.step = &costCache_.decodeStep(c.batch, c.nSum);
            c.lat = scaled(c.step->latency, scale);
            lat_sec = c.lat.sec();
            if (c.chargeShares)
                c.latShares = obs::DecodeShares::of(c.lat, c.batch);
            if constexpr (Traced)
                traceBoundary(c);
            e += c.step->energy;
            b += c.lat;
        }
        c.deferred += k - first;
        if (k < end) // the horizon
            break;
    }
    if (c.clamped == c.batch && k < runs) {
        // No page edge lies ahead: a member's page edge precedes its
        // clamp step, and reaching it syncs.
        KELLE_ASSERT(c.pageEdge == std::numeric_limits<std::size_t>::max(),
                     "page edge past every member's clamp");
        const std::int64_t room = c.horizon.ns() - 1 - c.t.ns();
        const std::size_t m = std::min<std::uint64_t>(
            runs - k, room > 0 ? room / c.lat.ns() : 0);
        if (m > 0) {
            const SimTime run =
                SimTime::nanos(static_cast<std::int64_t>(m) * c.lat.ns());
            if constexpr (Traced) {
                for (std::size_t i = 0; i < m; ++i) {
                    c.t += c.lat;
                    traceBoundary(c);
                }
            } else {
                c.t += run;
            }
            c.gapMax = std::max(c.gapMax, lat_sec);
            if (c.chargeShares)
                c.shares += c.latShares * static_cast<std::int64_t>(m);
            c.deferred += m;
            e.addRepeated(c.step->energy, m);
            b += run;
            k += m;
        }
    }
    if (c.replay)
        allocator_.addDeferrals(k * deferScratch_.size());
    w = c;
    metrics_.stepEnergy() = e;
    busy_ = b;
    return k;
}

/**
 * Begin the decode step of `inFlightBatch_` at `w.t`: the event path's
 * step and every sync of a window start here. Each member's chain grows
 * to its resident tokens (failed growth clamps that member's budget, so
 * residents are read after it), the residents are summed, and the step
 * is costed (inside a window an unchanged total, the whole cost key
 * with the batch, keeps the last lookup) and adds its energy and busy
 * time. With `rebase`, when the step may fast-forward, the members'
 * clamp steps and the next page edge are counted afresh from this
 * boundary: deferred boundary j grows a member while ctx + generated +
 * j < budget, and passes its chain at j = capacity - (ctx + generated)
 * when the budget lies beyond the chain.
 */
void
DeviceEngine::beginDecodeStep(FastForwardWindow &w, bool rebase)
{
    if (rebase) {
        clampScratch_.clear();
        w.clamped = 0;
        w.pageEdge = std::numeric_limits<std::size_t>::max();
    }
    std::size_t n_sum = 0;
    for (std::size_t idx : inFlightBatch_) {
        const Request &r = requests_[idx];
        ensureCapacity(idx, r.residentTokens());
        n_sum += r.residentTokens();
        if (!rebase)
            continue;
        const std::size_t held = r.task.ctxLen + r.generated;
        clampScratch_.push_back(
            r.budgetGranted > held ? r.budgetGranted - held : 0);
        const std::size_t cap = grants_[idx].chainCapacityTokens;
        if (r.budgetGranted > cap) {
            KELLE_ASSERT(cap > held, "chain behind its resident tokens");
            w.pageEdge = std::min(w.pageEdge, cap - held);
        }
    }
    if (rebase)
        std::sort(clampScratch_.begin(), clampScratch_.end());
    if (!cfg_.fastSim) {
        stepScratch_ = costCache_.costModel().decode(w.batch, n_sum);
        w.step = &stepScratch_;
    } else if (w.step == nullptr || n_sum != w.nSum) {
        w.step = &costCache_.decodeStep(w.batch, n_sum);
    }
    w.nSum = n_sum;
    // Slowdown faults stretch step wall-clock, not energy; the scale
    // is constant inside a window (fault instants bound every horizon).
    w.lat = scaled(w.step->latency);
    if (w.chargeShares)
        w.latShares = obs::DecodeShares::of(w.lat, w.batch);
    metrics_.addEnergy(w.step->energy);
    busy_ += w.lat;
}

void
DeviceEngine::runDecodeStep(const EngineStepPlan &plan)
{
    engineBusy_ = true;
    ++decodeSteps_;
    inFlightBatch_.assign(plan.decodeBatch.begin(),
                          plan.decodeBatch.end());
    FastForwardWindow w;
    const std::size_t budget = silentStepBudget(&w.replay);
    w.batch = inFlightBatch_.size();
    // The deferred steps' waterfall charge is summed only when a
    // waterfall is attached to read it.
    w.chargeShares = wf_ != nullptr;
    w.t = queue_.now();
    beginDecodeStep(w, budget > 0);
    if (trace_ != nullptr)
        trace_->decodeStep(w.t, w.lat, w.batch, w.step->energy.refresh.j());

    // Fast-forward: while (a) no batch member completes, (b) admission
    // and preemption are provably no-ops, and (c) the boundary lands
    // strictly before the earliest pending event that could affect
    // this engine, the decode batch steps again with the same
    // membership — nothing else in the simulation can even observe
    // the boundary. Replay those boundaries inline instead of
    // re-entering the event queue, performing exactly the operations
    // the event-driven loop would, in the same order, with the same
    // tick timestamps, and for a traced engine the same trace events.
    // Each boundary is a sync or quiet. Syncs run in the loop below,
    // each begun by beginDecodeStep like the step above; the quiet
    // boundaries between them run in `quietRun`, in one tight loop
    // while some member grows (the (batch, total-resident) cost key
    // moves by the stride) and in one update once every member is
    // clamped. Step counters are written once per window. Only the
    // final, state-changing boundary re-enters the queue.
    if (budget > 0) {
        const auto ff0 = profiler_ != nullptr
                             ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point();
        w.horizon = queue_.nextEventTime();
        // The owner vouches that nothing before this timestamp can
        // reach this engine (other devices' completions commute with
        // our boundaries; see Hooks).
        if (hooks_.nextExternalEvent)
            w.horizon = hooks_.nextExternalEvent();
        // Preemption stays armed inside the window: the boundary scan
        // runs only with waiting demand (the waiting queue is frozen
        // here), so the window stops before the first tick at which a
        // batch member is doomed, and that boundary runs through the
        // real event path.
        if (cfg_.preempt.enabled && !waiting_.empty())
            w.horizon = std::min(w.horizon, firstDoomedRunning());
        // A replayed round attempts its candidates in the recorded
        // order, which the event path would recompute at each
        // boundary: stop before the policy's order can change.
        if (w.replay)
            w.horizon =
                std::min(w.horizon, policy_->nextOrderChange(view()));
        w.first = w.t + w.lat;
        // Deferred member bookkeeping. Members are written only at
        // *sync* boundaries: a page edge (some member's resident
        // passes its chain's capacity, so the ensureCapacity pass has
        // work) and a replayed deferral round not at its fixpoint (its
        // budget clamp reads residents and may shrink budgets).
        // Between syncs nothing reads a member's counters or its
        // waterfall entry, and the pool cannot move: every gap is the
        // same `t_k - t_{k-1}`, so one running max is exact (a
        // member's first gap, from its own last token to `w.first`,
        // joins it at the flush: gaps are integer ticks and max()
        // ignores order); every member shares every step, so one
        // `shares` sum is exact; budgets and chains stay put, so a
        // member stops growing at a fixed boundary (`clampScratch_`,
        // sorted) and no chain grows before the page edge (a
        // contiguous grant's capacity is its budget, so it has none).
        // Every other boundary is *quiet*: it moves the clock and adds
        // the stride to the resident total. A sync flushes the
        // deferred boundaries (this one included), runs the round,
        // then begins its step, which rebases on what they left.
        //
        // The replayed round, on the frozen queue, re-attempts the
        // recorded deferrals in order, exactly as tryAdmitAt does.
        // Each must keep failing — no member leaves the batch inside
        // the window and a clamp frees no page, so nothing returns to
        // the pool — and each failure records the same deferral the
        // event-driven round would. Once a round and the ensureCapacity
        // pass after it leave the pool as they found it (`roundMark_`,
        // taken as the round starts, equals the pool after the pass),
        // the next round starts from the same counts and prefix index
        // and fails the same way again (members' growing residents
        // only raise what a budget clamp must keep), so the round
        // collapses to its deferral count until the pool next changes.
        // The event path's round that planned this step is the
        // window's first: admitWaiting took its mark, and the step
        // above ran its pass. The only state that then differs from the
        // event path is the free list's order — each failed acquire
        // pushes its popped pages back reversed — and free pages are
        // interchangeable (refs 0, not indexed), so no report, trace
        // or digest sees it.
        bool round_fixpoint = !w.replay || poolMark() == roundMark_;
        // Apply the `deferred` boundaries, the last at `t`, to every
        // member, and start the next stretch.
        const auto flush = [this](FastForwardWindow &fw) {
            for (std::size_t idx : inFlightBatch_) {
                Request &r = requests_[idx];
                r.generated += fw.deferred;
                r.maxTokenGapSec =
                    std::max({r.maxTokenGapSec, fw.gapMax,
                              (fw.first - r.lastToken).sec()});
                r.lastToken = fw.t;
                if (wf_ != nullptr)
                    wf_->onDecodeShares(idx, fw.shares);
            }
            fw.deferred = 0;
            fw.gapMax = 0.0; // gaps are >= 0: max() starts afresh
            fw.shares = obs::DecodeShares();
        };
        std::size_t silent = budget;
        while (silent > 0) {
            if (round_fixpoint) {
                // Quiet boundaries up to the page edge, which syncs.
                const std::size_t runs =
                    std::min(silent, w.pageEdge - w.deferred - 1);
                const std::size_t k = trace_ != nullptr
                                          ? quietRun<true>(w, runs)
                                          : quietRun<false>(w, runs);
                silent -= k;
                if (k < runs || silent == 0) // the horizon, or the budget
                    break;
            }
            const SimTime tn = w.t + w.lat;
            if (!(tn < w.horizon))
                break;
            w.gapMax = std::max(w.gapMax, w.lat.sec());
            ++w.deferred;
            if (w.chargeShares)
                w.shares += w.latShares; // the step ending at `tn`
            w.t = tn;
            // A real round's budget clamp reads the residents, so the
            // flush precedes it.
            flush(w);
            if (w.replay) {
                roundMark_ = poolMark();
                if (round_fixpoint) {
                    allocator_.addDeferrals(deferScratch_.size());
                } else {
                    for (const auto &defer : deferScratch_) {
                        const auto grant = attemptGrant(
                            defer.requested, defer.floor,
                            defer.prefixKey, defer.prefixLen);
                        KELLE_ASSERT(!grant.admitted,
                                     "fast-forward window admitted a "
                                     "request the event-driven round "
                                     "had deferred");
                    }
                }
            }
            beginDecodeStep(w, true);
            round_fixpoint = !w.replay || poolMark() == roundMark_;
            // Mirror the event path's per-boundary decode slice: the
            // step *starting* at this boundary, costed after any
            // resident growth.
            if (trace_ != nullptr)
                traceBoundary(w);
            --silent;
        }
        const std::uint64_t applied = budget - silent;
        engineSteps_ += applied;
        decodeSteps_ += applied;
        fastForwarded_ += applied;
        if (w.deferred > 0)
            flush(w);
        if (profiler_ != nullptr)
            profiler_->add(
                obs::PhaseProfiler::Phase::FastForward,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - ff0)
                    .count(),
                applied);
    }
    inFlightStepLatency_ = w.lat;
    queue_.schedule(w.t + w.lat, [this, e = runEpoch_] {
        if (e == runEpoch_)
            onDecodeDone();
    });
}

void
DeviceEngine::onDecodeDone()
{
    const std::size_t batch = inFlightBatch_.size();
    for (std::size_t idx : inFlightBatch_) {
        Request &r = requests_[idx];
        ++r.generated;
        r.maxTokenGapSec = std::max(
            r.maxTokenGapSec, (queue_.now() - r.lastToken).sec());
        r.lastToken = queue_.now();
        if (wf_ != nullptr)
            wf_->onDecodeBoundary(idx, inFlightStepLatency_, batch);
        if (r.done()) {
            finishRequest(idx);
            running_.erase(
                std::find(running_.begin(), running_.end(), idx));
        }
    }
    engineBusy_ = false;
    dispatch();
}

void
DeviceEngine::finishRequest(std::size_t idx)
{
    Request &r = requests_[idx];
    r.state = RequestState::Completed;
    r.completed = queue_.now();
    lastCompletion_ = std::max(lastCompletion_, r.completed);
    allocator_.release(grants_[idx]);
    metrics_.onCompleted(r);
    if (wf_ != nullptr)
        wf_->onCompleted(idx, queue_.now(), wfDevice_);
    if (trace_ != nullptr) {
        trace_->completed(queue_.now(), r.id, r.generated);
        trace_->kvInUse(queue_.now(), allocator_.inUseBytes());
        tracePagedCounters(queue_.now());
    }
    if (cfg_.verbose)
        inform("t=", toString(queue_.now()), label_, " request #",
               r.id, " completed (", r.generated, " tokens, e2e ",
               toString(r.completed - r.arrival), ")");
}

void
DeviceEngine::resetVictim(std::size_t idx)
{
    Request &r = requests_[idx];
    if (grants_[idx].admitted)
        allocator_.release(grants_[idx]);
    r.state = RequestState::Waiting;
    r.prefilled = 0;
    r.generated = 0;
    r.budgetRequested = 0;
    r.budgetGranted = 0;
}

void
DeviceEngine::recordFaultEvict(SimTime t, std::size_t idx,
                               std::uint64_t work)
{
    requests_[idx].faulted = true;
    if (trace_ != nullptr)
        trace_->faultEvicted(t, requests_[idx].id, work);
    if (wf_ != nullptr)
        wf_->onFaultEvict(idx, t);
}

void
DeviceEngine::crashAt(SimTime t, std::vector<std::size_t> *victims,
                      std::uint64_t *lost_tokens)
{
    KELLE_ASSERT(!crashed_, "crash on an already-down device");
    crashed_ = true;
    // Orphan the in-flight step: its completion event pops as a
    // no-op. Its latency/energy stay charged — the accelerator was
    // mid-step when it died.
    ++runEpoch_;
    engineBusy_ = false;
    lastStep_ = EngineStepKind::Idle;
    lastRoundAllDeferred_ = false;
    if (trace_ != nullptr)
        trace_->deviceFault(t, 0, 0.0);
    victims->clear();
    *lost_tokens = 0;
    // Deterministic drain order: running, admitted, waiting.
    for (std::size_t idx : running_)
        victims->push_back(idx);
    for (std::size_t idx : admitted_)
        victims->push_back(idx);
    for (std::size_t idx : waiting_)
        victims->push_back(idx);
    running_.clear();
    admitted_.clear();
    waiting_.clear();
    waitingPreempted_ = 0;
    inFlightBatch_.clear();
    for (std::size_t idx : *victims) {
        Request &r = requests_[idx];
        // Regeneration cost: every KV-resident token must rerun.
        const std::uint64_t work =
            static_cast<std::uint64_t>(r.prefilled + r.generated);
        r.lostTokens += work;
        *lost_tokens += work;
        resetVictim(idx);
        recordFaultEvict(t, idx, work);
    }
    if (trace_ != nullptr) {
        trace_->queueDepth(t, 0);
        trace_->kvInUse(t, allocator_.inUseBytes());
        tracePagedCounters(t);
    }
    if (cfg_.verbose)
        inform("t=", toString(t), label_, " DEVICE CRASH: ",
               victims->size(), " request(s) evicted, ",
               *lost_tokens, " token(s) of KV lost");
}

void
DeviceEngine::disruptAt(SimTime t, faults::FaultKind kind, double factor)
{
    const bool slow = kind == faults::FaultKind::Slowdown;
    KELLE_ASSERT(slow || kind == faults::FaultKind::PoolShrink,
                 "a crash disrupts through crashAt");
    if (slow) {
        KELLE_ASSERT(factor >= 1.0, "slowdown must not speed up");
        latencyScale_ = factor;
    } else {
        allocator_.setCapacityScale(factor);
        lastRoundAllDeferred_ = false; // admission verdicts changed
    }
    if (trace_ != nullptr)
        trace_->deviceFault(t, static_cast<int>(kind), factor);
    if (cfg_.verbose)
        inform("t=", toString(t), label_,
               slow ? " device slowdown: step latency x"
                    : " eDRAM degrade: KV capacity x",
               factor);
}

void
DeviceEngine::recoverAt(SimTime t, faults::FaultKind cause)
{
    using faults::FaultKind;
    if (cause == FaultKind::Crash) {
        KELLE_ASSERT(crashed_, "recovering a device that is not down");
        crashed_ = false;
    } else if (cause == FaultKind::Slowdown) {
        latencyScale_ = 1.0;
    } else {
        allocator_.setCapacityScale(1.0);
        lastRoundAllDeferred_ = false;
    }
    if (trace_ != nullptr)
        trace_->deviceRecover(t, static_cast<int>(cause));
    if (cfg_.verbose)
        inform("t=", toString(t), label_, " device recovered from ",
               cause == FaultKind::Crash      ? "crash, accepting work"
               : cause == FaultKind::Slowdown ? "slowdown"
                                              : "pool degrade");
    // Restored capacity can admit blocked waiters right away.
    if (cause == FaultKind::PoolShrink)
        dispatch();
}

void
DeviceEngine::degradeAt(SimTime t, std::vector<std::size_t> *shed)
{
    if (allocator_.paged()) { // contiguous reservations cache nothing
        lastRoundAllDeferred_ = false;
        const std::size_t freed = allocator_.dropCachedPrefixes();
        clampRunningBudgets();
        if (freed > 0 && trace_ != nullptr) {
            trace_->kvInUse(t, allocator_.inUseBytes());
            tracePagedCounters(t);
        }
        // Freed pages can admit blocked waiters right away.
        dispatch();
    }
    if (waiting_.empty())
        return;
    const std::size_t shed_before = shed->size();
    auto it = waiting_.begin();
    while (it != waiting_.end()) {
        Request &r = requests_[*it];
        // Only pre-first-token waiters whose TTFT deadline already
        // expired: their admission can no longer meet the SLO here,
        // so hand them back for re-dispatch instead of serving a
        // guaranteed miss under fleet-wide pressure.
        const bool expired = r.ttftDeadlineSec > 0.0 &&
                             r.firstToken == SimTime() &&
                             r.ttftDeadline() < t;
        if (!expired) {
            ++it;
            continue;
        }
        if (secondLife(r))
            --waitingPreempted_;
        shed->push_back(*it);
        recordFaultEvict(t, *it, 0);
        if (cfg_.verbose)
            inform("t=", toString(t), label_, " request #", r.id,
                   " shed under fleet pressure (TTFT deadline "
                   "expired)");
        it = waiting_.erase(it);
    }
    if (shed->size() != shed_before) {
        lastRoundAllDeferred_ = false;
        metrics_.sampleQueueDepth(waiting_.size());
        if (trace_ != nullptr)
            trace_->queueDepth(t, waiting_.size());
    }
}

void
DeviceEngine::failRequestAt(SimTime t, std::size_t idx)
{
    Request &r = requests_[idx];
    r.state = RequestState::Rejected;
    r.faultFailed = true;
    r.faulted = true;
    metrics_.onRejected(r);
    if (wf_ != nullptr)
        wf_->onFaultFailed(idx, t, wfDevice_);
    if (trace_ != nullptr)
        trace_->faultFailed(t, r.id);
    if (cfg_.verbose)
        inform("t=", toString(t), label_, " request #", r.id,
               " permanently failed: fault-retry budget exhausted");
}

} // namespace serving
} // namespace kelle
