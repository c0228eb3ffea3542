/**
 * @file
 * Seeded, fully deterministic fault injection for the edge fleet.
 *
 * Each device runs an independent alternating-renewal process: an
 * "up" phase whose length is exponential with mean `mtbfSec` ends in
 * a disruption (crash, transient slowdown, or KV-pool shrink, drawn
 * from the configured weights), and a "disrupted" phase whose length
 * is exponential with mean `mttrSec` ends in a recovery, which restores
 * the device at once. A crash repair's warm-up of `recoverWarmupSec`
 * delays the next disruption and emits no event.
 *
 * `FaultInjector` seeds one Rng per device (`seed ^ mix(d + 1)`, with
 * `mix` a SplitMix64 finalizer), so a device's fault history is a pure
 * function of (seed, device index, mtbf, mttr, weights) — independent
 * of fleet size ordering, of how far any other device's stream was
 * consumed, and of the engine mode consuming it. It merges the
 * per-device streams into one chronological feed keyed (time, device
 * index); the cluster engine drains it interleaved with its event
 * queue, applying each fault *before* any same-time queue event, and
 * publishes `nextEventTime()` into the drive loop's lookahead horizon
 * so no device can fast-forward across a fault instant. Streams are
 * generated lazily (one pending event per device), so the injector
 * never materializes the infinite renewal process.
 *
 * Determinism contract (pinned by tests/test_faults.cpp): for a fixed
 * config the sequence of popped `FaultEvent`s is byte-identical
 * across `ClusterConfig::threads` values and fastSim on/off, and a
 * default-constructed (disabled) config makes the whole subsystem a
 * null test — the cluster engine never constructs an injector and all
 * pre-fault golden digests are unchanged.
 */

#ifndef KELLE_FAULTS_FAULT_INJECTOR_HPP
#define KELLE_FAULTS_FAULT_INJECTOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/sim_time.hpp"

namespace kelle {
namespace faults {

/** Step-latency multiplier while a device is slowed down. */
constexpr double kSlowdownFactor = 2.0;
/** KV-capacity multiplier while a device's pool is degraded. */
constexpr double kShrinkFactor = 0.5;

/** Configuration of the fleet-wide fault model. */
struct FaultConfig
{
    /** Master switch; false keeps every engine path bit-identical to
     *  the pre-fault build (no injector is ever constructed). */
    bool enabled = false;
    /** Mean up-phase length per device, seconds (exponential). */
    double mtbfSec = 120.0;
    /** Mean disrupted-phase length, seconds (exponential). */
    double mttrSec = 15.0;
    /** @name Relative weights of the disruption kinds. @{ */
    double crashWeight = 1.0;
    double slowdownWeight = 1.0;
    double shrinkWeight = 1.0;
    /** @} */
    /** Added to the up phase that follows a crash repair. */
    double recoverWarmupSec = 5.0;
    /** At-most-N re-dispatches per crash-evicted request; the N+1-th
     *  eviction is a permanent, accounted failure. */
    std::uint32_t maxRetries = 3;
    /** Capped exponential backoff base for fault re-dispatch. */
    double retryBackoffSec = 1.0;
    double retryBackoffCapSec = 30.0;
    /** Fault-stream seed (independent of the arrival-trace seed). */
    std::uint64_t seed = 42;
};

/** What happened to a device at a fault instant. A disruption's value
 *  is its code in the `device_fault` and `device_recover` trace
 *  events. */
enum class FaultKind : std::uint8_t
{
    Crash,       ///< device lost: KV chains dropped, work evicted
    Slowdown,    ///< transient compute degradation (latency scale)
    PoolShrink,  ///< eDRAM degrade: KV capacity scaled down
    Recover,     ///< disruption over: the device is restored
};

const char *toString(FaultKind k);

/** One scheduled fault-lifecycle instant. */
struct FaultEvent
{
    sim::SimTime at;
    std::size_t device = 0;
    FaultKind kind = FaultKind::Crash;
    /** The disruption: the event's own kind, or the one a Recover
     *  ends. */
    FaultKind cause = FaultKind::Crash;
};

/**
 * The merged, lazily generated fault stream for an `nDevices` fleet.
 * `pop` never runs the renewal processes further than one
 * pending event per device.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &cfg, std::size_t n_devices);

    /** Earliest pending fault instant; ties break by device index. */
    sim::SimTime nextEventTime() const;
    /** Consume the earliest event and advance that device's stream. */
    FaultEvent pop();

  private:
    struct DeviceStream
    {
        Rng rng;
        /** The renewal clock in `double` seconds; `next.at` is it
         *  rounded to ticks, once per instant. */
        double atSec = 0.0;
        FaultEvent next;
        DeviceStream() : rng(0) {}
    };

    double expDraw(DeviceStream &s, double mean);
    FaultKind drawKind(DeviceStream &s);
    void advance(DeviceStream &s);
    std::size_t earliest() const;

    FaultConfig cfg_;
    std::vector<DeviceStream> streams_;
};

} // namespace faults
} // namespace kelle

#endif // KELLE_FAULTS_FAULT_INJECTOR_HPP
