/**
 * @file
 * The layer-6 edge-cluster serving engine: one shared request stream
 * served by N simulated accelerators, each stepping its own
 * `sim::EventQueue` partition under one drive loop.
 *
 *   arrivals --DispatchPolicy--> DeviceEngine[i] (own KV pool, own
 *   policy-driven step loop, own timing/energy model instance)
 *                                  --> ClusterReport roll-up
 *
 * `ClusterEngine` generates the seeded arrival trace once, routes
 * every arrival through a pluggable `DispatchPolicy` (round-robin /
 * join-shortest-kv / deadline-aware) to one of N per-device executors,
 * and drives the fleet to completion. Devices are fully
 * independent after dispatch — each owns a `KvBudgetAllocator` over
 * its own KV pool, a scheduling `Policy`, and its accelerator config —
 * so heterogeneous fleets (eDRAM- and SRAM-backed devices, different
 * pool sizes or batch caps) mix freely in one cluster.
 *
 * Preempt-and-requeue is the cluster-level budget-reclamation knob:
 * with `ClusterConfig::preempt.enabled`, a device reclaims the KV
 * grant of a deadline-doomed decode (see device_engine.hpp) and hands
 * the victim back to the cluster, which re-dispatches it through the
 * same dispatch policy — possibly onto a different device with more
 * free budget.
 *
 * Everything is a pure function of the config: reruns are
 * bit-identical at any lane count, and a 1-device cluster is the
 * single-device serving engine (every dispatch policy gives it the
 * same report).
 */

#ifndef KELLE_CLUSTER_CLUSTER_ENGINE_HPP
#define KELLE_CLUSTER_CLUSTER_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_metrics.hpp"
#include "cluster/dispatch_policy.hpp"
#include "faults/fault_injector.hpp"
#include "serving/device_engine.hpp"
#include "serving/request_generator.hpp"
#include "sim/event_queue.hpp"

namespace kelle {
namespace cluster {

/** What differs per device in a (possibly heterogeneous) fleet. */
struct DeviceSpec
{
    std::string name;
    accel::SystemConfig system = accel::kelleEdramSystem(2048);
    /** KV pool tokens; 0 = §8.4.1 capacity analysis of `system`. */
    std::size_t poolTokens = 0;
    std::size_t maxBatch = 16;
};

/** Full configuration of a cluster run. */
struct ClusterConfig
{
    /**
     * The traffic of the shared stream plus every engine knob the
     * devices inherit — model, scheduling policy, chunking and its
     * slack rule, preemption, budget override, watermark, step cap,
     * verbosity. Each device engine gets this config's
     * `serving::DeviceConfig` base with its `DeviceSpec` applied, so
     * `system` / `poolTokens` / `maxBatch` here are overridden per
     * device (`clusterConfigFrom` builds a fleet from them).
     */
    serving::ServingConfig engine;
    DispatchKind dispatch = DispatchKind::RoundRobin;
    /** The fleet; must not be empty. */
    std::vector<DeviceSpec> devices;
    /**
     * Worker lanes for the drive loop's lookahead windows: 1 (default)
     * runs every window inline on the calling thread; 0 means one
     * lane per hardware thread; N caps at N lanes. Lanes are clamped
     * to the fleet size, and verbose runs always take one lane so the
     * log order is deterministic. Every value yields a bit-identical
     * ClusterReport — each device advances only to a conservative
     * lookahead horizon and cross-device effects merge in serialized
     * rounds in a canonical order (see docs/ARCHITECTURE.md, "Cluster
     * drive loop").
     */
    std::size_t threads = 1;
    /**
     * Deterministic fault injection (src/faults): seeded per-device
     * crash / slowdown / pool-shrink disruptions with recovery,
     * crash-eviction re-dispatch under a capped-backoff retry budget,
     * and the graceful-degradation ladder. Disabled (the default) the
     * engine never constructs an injector and every lane count is
     * bit-identical to the pre-fault build.
     */
    faults::FaultConfig faults;
};

/** N identical devices named dev0..devN-1. */
std::vector<DeviceSpec> homogeneousFleet(
    std::size_t n,
    const accel::SystemConfig &system = accel::kelleEdramSystem(2048),
    std::size_t pool_tokens = 0, std::size_t max_batch = 16);

/**
 * An alternating eDRAM/SRAM fleet (edram0, sram1, edram2, ...): the
 * heterogeneity study of the source paper's co-design at fleet scale.
 * eDRAM-backed devices take `edram_pool_tokens`, SRAM-backed ones
 * `sram_pool_tokens` (0 = capacity analysis for either), so the KV
 * capacity asymmetry the dispatch policies must balance is explicit.
 */
std::vector<DeviceSpec> heteroEdramSramFleet(
    std::size_t n, std::size_t budget = 2048,
    std::size_t edram_pool_tokens = 0,
    std::size_t sram_pool_tokens = 0, std::size_t max_batch = 16);

/**
 * Lift a single-device ServingConfig onto an n-device homogeneous
 * cluster; n = 1 is how a single-device session runs.
 */
ClusterConfig clusterConfigFrom(const serving::ServingConfig &cfg,
                                std::size_t n_devices,
                                DispatchKind dispatch);

/** Cluster-side health of one device (driven by the fault stream). */
enum class DeviceHealth : std::uint8_t
{
    Healthy,
    Degraded,   ///< slowdown or pool-shrink disruption active
    Down,       ///< crashed: blacklisted from dispatch
    Recovering, ///< crash repaired, warm-up running (dispatchable)
};

class ClusterEngine
{
  public:
    explicit ClusterEngine(const ClusterConfig &cfg);

    /** Generate the trace, serve it across the fleet, roll up. */
    ClusterReport run();

    std::size_t deviceCount() const { return devices_.size(); }
    /** Per-device engine state after run() (tests/examples). */
    const serving::DeviceEngine &device(std::size_t i) const
    {
        return *devices_[i];
    }
    /** The shared request table after run(). */
    const std::vector<serving::Request> &requests() const
    {
        return requests_;
    }

    /** Per-device health after run() (Healthy without faults). */
    DeviceHealth health(std::size_t i) const
    {
        return health_.empty() ? DeviceHealth::Healthy : health_[i];
    }

  private:
    /** Dispatch-policy pick plus the canEverAdmit fallback at round
     *  time `t` (which stamps the verbose dispatch line). Down
     *  devices are blacklisted; `devices_.size()` is returned when
     *  the whole fleet is down (the caller schedules a retry). */
    std::size_t pickDevice(Time t, std::size_t idx);
    /** Dispatch at round time `t`: line the target's partition clock
     *  up with the globally-timestamped injection, then enqueue. */
    void dispatchAt(Time t, std::size_t idx);
    /** Refresh and return the reusable status-snapshot scratch. */
    const std::vector<DeviceStatus> &statuses();
    /** The drive loop: lookahead windows and serialized rounds until
     *  the fleet drains. */
    void drive();
    /** Dispatch buffered preemption requeues in canonical order:
     *  (emitting device index, per-device emission order). */
    void drainRequeues(Time t);
    /** Earliest requeue any device could still emit (+inf when none). */
    Time nextRequeueBound() const;
    /** @name Fault machinery (injector_ != nullptr only). @{ */
    /** Apply one fault instant: flip health, drive the device's fault
     *  surface, schedule eviction retries, run the degradation
     *  ladder. Requires every (relevant) event queue advanced to
     *  `ev.at`. */
    void applyFault(const faults::FaultEvent &ev);
    /** Re-dispatch `idx` after a capped exponential backoff, or fail
     *  it permanently once the retry budget is spent. */
    void scheduleRetry(std::size_t idx, Time now);
    /** Terminal failure of `idx` on its last device. */
    void permanentFail(std::size_t idx, Time now);
    /** Round phase: dispatch retries due at `t` in (at, seq) order,
     *  draining cascaded requeues after each. */
    void drainRetries(Time t);
    /** Earliest pending fault re-dispatch (+inf when none). */
    Time nextRetryTime() const;
    /** Fill ClusterReport::faults after the roll-up. */
    void fillFaultReport(ClusterReport *rep, Time last) const;
    /** @} */

    ClusterConfig cfg_;
    /** `cfg_.engine.trace`'s requests track (dispatch instants);
     *  null when tracing is off. */
    obs::TraceTrack *clusterTrack_ = nullptr;
    std::vector<serving::Request> requests_;
    std::unique_ptr<DispatchPolicy> dispatch_;
    std::vector<std::unique_ptr<serving::DeviceEngine>> devices_;
    /** Per-arrival DeviceStatus scratch (dispatch is allocation-free). */
    std::vector<DeviceStatus> statusScratch_;
    /** Index of the earliest trace arrival not yet dispatched (feeds
     *  the devices' fast-forward horizon; see Hooks). */
    std::size_t arrivalCursor_ = 0;

    /** Resolved worker lanes (1 = every window runs inline). */
    std::size_t threads_ = 1;
    /** @name Drive-loop state
     * Each device steps its own event-queue partition; the drive loop
     * alternates lock-free lookahead windows (no cross-device effect
     * can occur before the horizon) with serialized rounds that merge
     * arrivals, same-time boundaries and requeues in canonical order.
     * `windowHorizon_` backs Hooks::nextExternalEvent: it is written
     * by the loop only while the workers are joined, and read by them
     * only inside a window.
     * @{ */
    std::vector<std::unique_ptr<sim::EventQueue>> localQueues_;
    Time windowHorizon_;
    /** Preemption victims emitted this round, one buffer per emitting
     *  device, consumed from `requeueBufPos_`. */
    std::vector<std::vector<std::size_t>> requeueBufs_;
    std::vector<std::size_t> requeueBufPos_;
    /** @} */

    /** @name Fault state (null/empty when cfg_.faults.enabled off;
     * every guard below is a pointer test, so the faults-off paths
     * are byte-identical to the pre-fault build). @{ */
    std::unique_ptr<faults::FaultInjector> injector_;
    std::vector<DeviceHealth> health_;
    std::size_t downCount_ = 0;
    /** Crash-start instant per device (meaningful while Down). */
    std::vector<Time> downSince_;
    /** Last device each request was dispatched to (terminal fault
     *  failures land on it). */
    std::vector<std::size_t> lastDevice_;
    /** One pending fault re-dispatch; `seq` breaks same-time ties in
     *  scheduling order. */
    struct PendingRetry
    {
        Time at;
        std::uint64_t seq = 0;
        std::size_t req = 0;
    };
    std::vector<PendingRetry> retryPending_; ///< unordered, rare
    std::uint64_t retrySeq_ = 0;
    std::vector<std::size_t> victimScratch_;
    std::vector<std::size_t> shedScratch_;
    /** Compacted-status index map: statusScratch_ row -> device. */
    std::vector<std::size_t> upIndexScratch_;
    /** Aggregate fault accounting (ClusterFaultReport source). */
    std::uint64_t crashes_ = 0;
    std::uint64_t slowdowns_ = 0;
    std::uint64_t shrinks_ = 0;
    std::uint64_t lostTokens_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t shedRequests_ = 0;
    std::uint64_t permanentFailures_ = 0;
    std::vector<ClusterFaultReport::Device> faultDevs_;
    /** @} */
};

} // namespace cluster
} // namespace kelle

#endif // KELLE_CLUSTER_CLUSTER_ENGINE_HPP
