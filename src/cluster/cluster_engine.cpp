#include "cluster/cluster_engine.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace kelle {
namespace cluster {

std::vector<DeviceSpec>
homogeneousFleet(std::size_t n, const accel::SystemConfig &system,
                 std::size_t pool_tokens, std::size_t max_batch)
{
    KELLE_ASSERT(n > 0, "a fleet needs at least one device");
    std::vector<DeviceSpec> fleet;
    fleet.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DeviceSpec d;
        d.name = "dev" + std::to_string(i);
        d.system = system;
        d.poolTokens = pool_tokens;
        d.maxBatch = max_batch;
        fleet.push_back(std::move(d));
    }
    return fleet;
}

std::vector<DeviceSpec>
heteroEdramSramFleet(std::size_t n, std::size_t budget,
                     std::size_t edram_pool_tokens,
                     std::size_t sram_pool_tokens,
                     std::size_t max_batch)
{
    KELLE_ASSERT(n > 0, "a fleet needs at least one device");
    std::vector<DeviceSpec> fleet;
    fleet.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DeviceSpec d;
        const bool edram = i % 2 == 0;
        d.name = (edram ? "edram" : "sram") + std::to_string(i);
        d.system = edram ? accel::kelleEdramSystem(budget)
                         : accel::aerpSramSystem(budget);
        d.poolTokens = edram ? edram_pool_tokens : sram_pool_tokens;
        d.maxBatch = max_batch;
        fleet.push_back(std::move(d));
    }
    return fleet;
}

ClusterConfig
clusterConfigFrom(const serving::ServingConfig &cfg,
                  std::size_t n_devices, DispatchKind dispatch)
{
    ClusterConfig c;
    c.engine = cfg;
    c.dispatch = dispatch;
    c.devices = homogeneousFleet(n_devices, cfg.system, cfg.poolTokens,
                                 cfg.maxBatch);
    return c;
}

ClusterEngine::ClusterEngine(const ClusterConfig &cfg)
    : cfg_(cfg), dispatch_(makeDispatchPolicy(cfg.dispatch))
{
    KELLE_ASSERT(!cfg_.devices.empty(),
                 "a cluster needs at least one device");
    if (cfg_.engine.trace != nullptr)
        clusterTrack_ = cfg_.engine.trace->requestsTrack();
    threads_ =
        cfg_.threads ? cfg_.threads : common::defaultParallelism();
    threads_ = std::min(threads_, cfg_.devices.size());
    // Verbose runs take one lane: the state is bit-identical at any
    // lane count, but concurrent windows would interleave log lines
    // nondeterministically.
    if (cfg_.engine.verbose)
        threads_ = 1;
    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<faults::FaultInjector>(
            cfg_.faults, cfg_.devices.size());
        health_.assign(cfg_.devices.size(), DeviceHealth::Healthy);
        downSince_.assign(cfg_.devices.size(), Time());
        faultDevs_.resize(cfg_.devices.size());
    }
    localQueues_.reserve(cfg_.devices.size());
    requeueBufs_.resize(cfg_.devices.size());
    requeueBufPos_.assign(cfg_.devices.size(), 0);
    devices_.reserve(cfg_.devices.size());
    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
        const DeviceSpec &spec = cfg_.devices[i];
        // The shared knobs, then what a DeviceSpec overrides.
        serving::DeviceConfig d = cfg_.engine;
        d.system = spec.system;
        d.poolTokens = spec.poolTokens;
        d.maxBatch = spec.maxBatch;
        // Each device steps its own event-queue partition so a
        // lookahead window touches no shared state.
        sim::EventQueue &q = *localQueues_.emplace_back(
            std::make_unique<sim::EventQueue>());
        // A 1-device fleet keeps the empty label: its verbose log
        // reads like a single-device session.
        devices_.push_back(std::make_unique<serving::DeviceEngine>(
            d, q, requests_,
            cfg_.devices.size() > 1 ? spec.name : std::string()));
        if (cfg_.engine.trace != nullptr)
            devices_.back()->setTrace(cfg_.engine.trace->addDeviceTrack(
                spec.name.empty() ? "device" : spec.name));
        // One shared waterfall across the fleet: entries are indexed
        // by request, each written only by the device serving that
        // request — the same single-writer handoff as the shared
        // request table.
        if (cfg_.engine.waterfall != nullptr)
            devices_.back()->setWaterfall(
                cfg_.engine.waterfall, static_cast<std::uint32_t>(i));

        // Emissions are buffered, never dispatched inline: the drive
        // loop merges them after the round in canonical order. The
        // fast-forward horizon is the loop's current window horizon,
        // constant while any lane is running.
        serving::DeviceEngine::Hooks hooks;
        hooks.requeue = [this, i](std::size_t idx) {
            requeueBufs_[i].push_back(idx);
        };
        hooks.nextExternalEvent = [this] { return windowHorizon_; };
        devices_.back()->setHooks(std::move(hooks));
    }
}

const std::vector<DeviceStatus> &
ClusterEngine::statuses()
{
    statusScratch_.clear();
    statusScratch_.reserve(devices_.size());
    for (const auto &dev : devices_) {
        DeviceStatus s;
        s.freeKvBytes = dev->freeKvBytes();
        s.kvCapacityBytes = dev->allocator().capacityBytes();
        s.waiting = dev->waitingCount();
        s.active = dev->activeCount();
        statusScratch_.push_back(s);
    }
    return statusScratch_;
}

std::size_t
ClusterEngine::pickDevice(Time t, std::size_t idx)
{
    std::size_t d;
    if (downCount_ == 0) {
        d = dispatch_->pick(requests_[idx], statuses());
        KELLE_ASSERT(d < devices_.size(),
                     "dispatch picked a device outside the fleet");
    } else {
        // Blacklist: crashed devices never see the status vector, so
        // no policy can route to them. All down -> the caller parks
        // the request on the retry path until something recovers.
        if (downCount_ >= devices_.size())
            return devices_.size();
        statusScratch_.clear();
        upIndexScratch_.clear();
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            if (health_[i] == DeviceHealth::Down)
                continue;
            DeviceStatus s;
            s.freeKvBytes = devices_[i]->freeKvBytes();
            s.kvCapacityBytes =
                devices_[i]->allocator().capacityBytes();
            s.waiting = devices_[i]->waitingCount();
            s.active = devices_[i]->activeCount();
            statusScratch_.push_back(s);
            upIndexScratch_.push_back(i);
        }
        const std::size_t p =
            dispatch_->pick(requests_[idx], statusScratch_);
        KELLE_ASSERT(p < upIndexScratch_.size(),
                     "dispatch picked a device outside the fleet");
        d = upIndexScratch_[p];
    }
    // Blind routing must not turn a serveable request into a
    // permanent rejection: if the picked device's whole pool can
    // never hold the request's floor, fall back to the feasible
    // device with the most free KV (ties: lowest index). When no
    // device can ever fit, the pick stands and the rejection is real.
    if (!devices_[d]->canEverAdmit(requests_[idx])) {
        std::size_t best = devices_.size();
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            if (downCount_ > 0 && health_[i] == DeviceHealth::Down)
                continue;
            if (!devices_[i]->canEverAdmit(requests_[idx]))
                continue;
            if (best == devices_.size() ||
                devices_[i]->freeKvBytes() >
                    devices_[best]->freeKvBytes())
                best = i;
        }
        if (best != devices_.size())
            d = best;
    }
    if (cfg_.engine.verbose && devices_.size() > 1) {
        const serving::Request &r = requests_[idx];
        inform("t=", toString(t), " dispatch request #",
               r.id,
               r.faultRetries > 0
                   ? " (fault retry)"
                   : (r.preemptions > 0 ? " (requeued)" : ""),
               " -> ",
               devices_[d]->name(), " (free KV ",
               Table::num(Bytes(devices_[d]->freeKvBytes()).inMib(),
                          1),
               " MiB, ", devices_[d]->waitingCount(), " waiting, ",
               devices_[d]->activeCount(), " resident)");
    }
    return d;
}

void
ClusterEngine::dispatchAt(Time t, std::size_t idx)
{
    const std::size_t d = pickDevice(t, idx);
    if (d == devices_.size()) {
        // Whole fleet down: park the request on the retry path until
        // a device recovers (or its retry budget runs out).
        scheduleRetry(idx, t);
        return;
    }
    if (injector_ != nullptr)
        lastDevice_[idx] = d;
    if (clusterTrack_ != nullptr)
        clusterTrack_->dispatched(t, requests_[idx].id, d);
    localQueues_[d]->advanceTo(t);
    devices_[d]->enqueue(idx);
}

Time
ClusterEngine::nextRequeueBound() const
{
    Time bound =
        Time::seconds(std::numeric_limits<double>::infinity());
    if (!cfg_.engine.preempt.enabled)
        return bound;
    // A device's future boundaries all lie at or after its next
    // pending event (no external work can reach it inside the window
    // being sized here), so its doom clocks for not-yet-decoding
    // members start no earlier than that.
    for (std::size_t i = 0; i < devices_.size(); ++i)
        bound = std::min(bound,
                         devices_[i]->nextPossibleRequeueTime(
                             localQueues_[i]->nextEventTime()));
    return bound;
}

void
ClusterEngine::drainRequeues(Time t)
{
    // Canonical order for same-time requeues: lowest emitting device
    // first, then per-device emission order — including victims
    // emitted by the dispatches this loop itself performs.
    for (;;) {
        std::size_t emitter = devices_.size();
        for (std::size_t i = 0; i < devices_.size(); ++i) {
            if (requeueBufPos_[i] < requeueBufs_[i].size()) {
                emitter = i;
                break;
            }
        }
        if (emitter == devices_.size())
            break;
        const std::size_t idx =
            requeueBufs_[emitter][requeueBufPos_[emitter]++];
        dispatchAt(t, idx);
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        requeueBufs_[i].clear();
        requeueBufPos_[i] = 0;
    }
}

Time
ClusterEngine::nextRetryTime() const
{
    Time t = Time::seconds(std::numeric_limits<double>::infinity());
    for (const PendingRetry &r : retryPending_)
        t = std::min(t, r.at);
    return t;
}

void
ClusterEngine::scheduleRetry(std::size_t idx, Time now)
{
    serving::Request &r = requests_[idx];
    if (r.faultRetries >= cfg_.faults.maxRetries) {
        permanentFail(idx, now);
        return;
    }
    ++r.faultRetries;
    ++retries_;
    // Capped exponential backoff, jittered 0.5-1.5x by a pure hash of
    // (request id, attempt) — no shared RNG stream, so retry timing
    // cannot perturb the fault or arrival draws.
    const std::uint32_t attempt = r.faultRetries;
    double backoff =
        cfg_.faults.retryBackoffSec *
        static_cast<double>(1ull << std::min(attempt - 1u, 62u));
    backoff = std::min(backoff, cfg_.faults.retryBackoffCapSec);
    backoff *= 0.5 + hashUnit(r.id, attempt);
    const Time at = now + Time::seconds(backoff);
    PendingRetry pr;
    pr.at = at;
    pr.seq = retrySeq_++;
    pr.req = idx;
    retryPending_.push_back(pr);
    if (cfg_.engine.verbose)
        inform("t=", toString(now), " request #", r.id,
               " fault retry ", attempt, "/", cfg_.faults.maxRetries,
               " scheduled at t=", toString(at));
}

void
ClusterEngine::permanentFail(std::size_t idx, Time now)
{
    ++permanentFailures_;
    const std::size_t d = lastDevice_[idx];
    // The target's clock may trail `now` when the failure lands off
    // its own partition; no event of its can be pending before the
    // round's t0.
    localQueues_[d]->advanceTo(now);
    devices_[d]->failRequestAt(now, idx);
}

void
ClusterEngine::drainRetries(Time t)
{
    for (;;) {
        std::size_t best = retryPending_.size();
        for (std::size_t i = 0; i < retryPending_.size(); ++i) {
            const PendingRetry &a = retryPending_[i];
            if (t < a.at)
                continue;
            if (best == retryPending_.size() ||
                a.at < retryPending_[best].at ||
                (a.at == retryPending_[best].at &&
                 a.seq < retryPending_[best].seq))
                best = i;
        }
        if (best == retryPending_.size())
            break;
        const std::size_t idx = retryPending_[best].req;
        retryPending_.erase(retryPending_.begin() +
                            static_cast<std::ptrdiff_t>(best));
        dispatchAt(t, idx);
        // A retry dispatch can cascade into same-time preemption
        // requeues; those dispatch before the next same-time retry.
        drainRequeues(t);
    }
}

void
ClusterEngine::applyFault(const faults::FaultEvent &ev)
{
    serving::DeviceEngine &dev = *devices_[ev.device];
    switch (ev.kind) {
      case faults::FaultKind::Crash: {
        health_[ev.device] = DeviceHealth::Down;
        ++downCount_;
        downSince_[ev.device] = ev.at;
        ++faultDevs_[ev.device].crashes;
        ++crashes_;
        std::uint64_t lost = 0;
        dev.crashAt(ev.at, &victimScratch_, &lost);
        lostTokens_ += lost;
        for (std::size_t idx : victimScratch_)
            scheduleRetry(idx, ev.at);
        // Graceful-degradation ladder on the survivors: the crashed
        // device's load is about to land on them, so free what can be
        // freed (cached prefixes), stop running grants from growing,
        // and shed waiters whose TTFT deadline already expired back to
        // the retry path.
        for (std::size_t j = 0; j < devices_.size(); ++j) {
            if (j == ev.device || health_[j] == DeviceHealth::Down)
                continue;
            devices_[j]->pressureReclaimAt(ev.at);
            shedScratch_.clear();
            devices_[j]->shedStaleWaitingAt(ev.at, &shedScratch_);
            shedRequests_ += shedScratch_.size();
            for (std::size_t idx : shedScratch_)
                scheduleRetry(idx, ev.at);
        }
        break;
      }
      case faults::FaultKind::Slowdown:
        health_[ev.device] = DeviceHealth::Degraded;
        ++slowdowns_;
        dev.slowdownAt(ev.at, cfg_.faults.slowdownFactor);
        break;
      case faults::FaultKind::PoolShrink: {
        health_[ev.device] = DeviceHealth::Degraded;
        ++shrinks_;
        dev.shrinkPoolAt(ev.at, cfg_.faults.shrinkFactor);
        // Self ladder: shrink grants back under the scaled capacity
        // and shed hopeless waiters rather than serving sure misses.
        dev.pressureReclaimAt(ev.at);
        shedScratch_.clear();
        dev.shedStaleWaitingAt(ev.at, &shedScratch_);
        shedRequests_ += shedScratch_.size();
        for (std::size_t idx : shedScratch_)
            scheduleRetry(idx, ev.at);
        break;
      }
      case faults::FaultKind::Recover:
        if (ev.cause == faults::FaultKind::Crash) {
            faultDevs_[ev.device].downtimeSec +=
                (ev.at - downSince_[ev.device]).sec();
            --downCount_;
            health_[ev.device] =
                cfg_.faults.recoverWarmupSec > 0.0
                    ? DeviceHealth::Recovering
                    : DeviceHealth::Healthy;
            dev.recoverAt(ev.at);
        } else {
            health_[ev.device] = DeviceHealth::Healthy;
            dev.restoreAt(ev.at,
                          ev.cause == faults::FaultKind::Slowdown
                              ? 1
                              : 2);
        }
        break;
      case faults::FaultKind::RecoverDone:
        health_[ev.device] = DeviceHealth::Healthy;
        break;
    }
}

void
ClusterEngine::fillFaultReport(ClusterReport *rep, Time last) const
{
    ClusterFaultReport &f = rep->faults;
    f.enabled = true;
    f.crashes = crashes_;
    f.slowdowns = slowdowns_;
    f.shrinks = shrinks_;
    f.lostTokens = lostTokens_;
    f.retries = retries_;
    f.shedRequests = shedRequests_;
    f.permanentFailures = permanentFailures_;
    f.devices = faultDevs_;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        // A device still down at the end of the run is down until the
        // last completion (or its own crash, whichever is later).
        if (health_[i] == DeviceHealth::Down)
            f.devices[i].downtimeSec +=
                (std::max(last, downSince_[i]) - downSince_[i]).sec();
        f.totalDowntimeSec += f.devices[i].downtimeSec;
    }
    for (const serving::Request &r : requests_)
        if (r.state == serving::RequestState::Completed &&
            r.faultRetries > 0)
            ++f.retrySuccesses;
}

void
ClusterEngine::drive()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    common::ThreadPool pool(threads_);
    const std::size_t nd = devices_.size();
    for (auto &q : localQueues_)
        q->reserve(8);
    // Earliest fault-side external event: the next fault instant or
    // the next pending fault re-dispatch (+inf faults-off). Neither
    // commutes with a lookahead window, so both bound horizons.
    const auto nextExtra = [this, inf] {
        return injector_ != nullptr
                   ? std::min(injector_->nextEventTime(),
                              nextRetryTime())
                   : Time::seconds(inf);
    };
    for (;;) {
        const Time arrival =
            arrivalCursor_ < requests_.size()
                ? requests_[arrivalCursor_].arrival
                : Time::seconds(inf);
        Time nextEvent = Time::seconds(inf);
        for (const auto &q : localQueues_)
            nextEvent = std::min(nextEvent, q->nextEventTime());
        // Drained: no arrivals, no local events, no parked retries
        // (requeue buffers never persist a round; the infinite fault
        // stream alone never keeps a run alive).
        if (!(arrival.sec() < inf) && !(nextEvent.sec() < inf) &&
            retryPending_.empty())
            break;
        const Time extra = nextExtra();
        const Time horizon = std::min(
            std::min(arrival, nextRequeueBound()), extra);
        if (nextEvent < horizon) {
            // Lookahead window: every device advances its own
            // partition to the horizon concurrently. Nothing crosses
            // devices before it — arrivals land at or after it, and
            // no device can emit a requeue before `nextRequeueBound`
            // (its own in-window preemptions are stopped by the
            // engine's doom check, everyone else's by the bound).
            windowHorizon_ = horizon;
            // A window with one active partition needs no barrier:
            // run it inline and leave the workers parked (the common
            // shape between sparse arrivals).
            std::size_t active = 0, only = 0;
            for (std::size_t i = 0; i < nd; ++i) {
                if (localQueues_[i]->nextEventTime() < horizon) {
                    ++active;
                    only = i;
                }
            }
            {
                obs::PhaseProfiler::Timer timer(
                    cfg_.engine.profiler,
                    obs::PhaseProfiler::Phase::Window);
                if (active == 1)
                    localQueues_[only]->runBefore(windowHorizon_);
                else
                    pool.forEach(nd, [this](std::size_t i) {
                        localQueues_[i]->runBefore(windowHorizon_);
                    });
            }
            for (std::size_t i = 0; i < nd; ++i)
                KELLE_ASSERT(requeueBufs_[i].empty(),
                             "a lookahead window emitted a requeue");
            continue;
        }
        // Serialized round at t0 — the earliest pending work — in
        // phases: faults, arrivals in trace order, then same-time step
        // boundaries (they commute across devices, so device-index
        // order is safe), then requeues in canonical order, then fault
        // re-dispatches. With preemption on, an injection can cascade
        // into same-time emissions targeting devices already stepped,
        // so lookahead is disabled for the round; with it off, a
        // boundary may fast-forward up to the next still-pending
        // arrival.
        const Time t0 =
            std::min(std::min(arrival, nextEvent), extra);
        obs::PhaseProfiler::Timer round_timer(
            cfg_.engine.profiler,
            obs::PhaseProfiler::Phase::SerialRound);
        const bool lookahead = !cfg_.engine.preempt.enabled;
        windowHorizon_ = t0;
        if (injector_ != nullptr &&
            injector_->nextEventTime() <= t0) {
            // Fault instants precede any same-time queue event (the
            // injector's contract). No partition holds an event
            // before t0, so every clock can line up with the fault —
            // the ladder and eviction handling may touch any device.
            for (auto &q : localQueues_)
                q->advanceTo(t0);
            while (injector_->nextEventTime() <= t0)
                applyFault(injector_->pop());
        }
        if (arrival == t0) {
            while (arrivalCursor_ < requests_.size() &&
                   requests_[arrivalCursor_].arrival == t0) {
                const std::size_t idx = arrivalCursor_++;
                if (lookahead)
                    windowHorizon_ = std::min(
                        arrivalCursor_ < requests_.size()
                            ? requests_[arrivalCursor_].arrival
                            : Time::seconds(inf),
                        nextExtra());
                dispatchAt(t0, idx);
            }
        }
        if (lookahead)
            windowHorizon_ =
                std::min(arrivalCursor_ < requests_.size()
                             ? requests_[arrivalCursor_].arrival
                             : Time::seconds(inf),
                         nextExtra());
        for (std::size_t i = 0; i < nd; ++i) {
            while (localQueues_[i]->nextEventTime() == t0)
                localQueues_[i]->runNext();
        }
        drainRequeues(t0);
        if (injector_ != nullptr)
            drainRetries(t0);
    }
}

ClusterReport
ClusterEngine::run()
{
    {
        obs::PhaseProfiler::Timer timer(
            cfg_.engine.profiler,
            obs::PhaseProfiler::Phase::TraceGen);
        requests_ = serving::generateTrace(cfg_.engine.traffic);
    }
    if (cfg_.engine.waterfall != nullptr)
        cfg_.engine.waterfall->beginRun(requests_.size());
    if (injector_ != nullptr)
        lastDevice_.assign(requests_.size(), 0);
    drive();

    // Makespan is first arrival to last completion anywhere in the
    // fleet; the idle lead-in before the first arrival is not serving
    // time.
    Time last;
    for (const auto &dev : devices_)
        last = std::max(last, dev->lastCompletion());
    Time makespan;
    if (last.sec() > 0.0)
        makespan = last - requests_.front().arrival;

    std::vector<const serving::DeviceEngine *> devs;
    devs.reserve(devices_.size());
    for (const auto &dev : devices_)
        devs.push_back(dev.get());
    obs::PhaseProfiler::Timer timer(
        cfg_.engine.profiler, obs::PhaseProfiler::Phase::RollUp);
    ClusterReport rep = rollUpCluster(devs, makespan);
    if (cfg_.engine.waterfall != nullptr)
        rep.aggregate.attribution =
            cfg_.engine.waterfall->report(devices_.size());
    if (injector_ != nullptr)
        fillFaultReport(&rep, last);
    return rep;
}

} // namespace cluster
} // namespace kelle
