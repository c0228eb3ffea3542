/**
 * @file
 * Roll-up of a multi-device serving run: per-device `ServingReport`s
 * plus fleet-level aggregates.
 *
 * Every device keeps its own `ServingMetrics`; the roll-up merges
 * them into one record set and summarizes once over the *cluster*
 * makespan (first arrival to last completion anywhere), so aggregate
 * percentiles are computed over the union of completed requests, not
 * averaged per device. Per-device summaries use the same makespan, so
 * per-device goodput numbers add up to the aggregate. For a 1-device
 * cluster the aggregate is bit-identical to the device's own report.
 *
 * Fleet-level figures beyond the merged summary:
 *  - load imbalance: the population coefficient of variation
 *    (stddev / mean) of per-device busy time — 0 for a perfectly
 *    balanced fleet, growing as dispatch skews work;
 *  - KV utilization: per-device peak pool fraction and its fleet mean;
 *  - total eDRAM refresh energy across every device.
 */

#ifndef KELLE_CLUSTER_CLUSTER_METRICS_HPP
#define KELLE_CLUSTER_CLUSTER_METRICS_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "serving/device_engine.hpp"

namespace kelle {
namespace cluster {

/** One device's slice of the run. */
struct ClusterDeviceReport
{
    std::string name;
    serving::ServingReport report; ///< summarized on cluster makespan
    std::size_t dispatched = 0;    ///< requests routed to this device
    double busySec = 0.0;          ///< wall-clock executing steps
    double kvPeakUtilization = 0.0; ///< peak reserved / pool capacity
};

/**
 * Fault-tolerance accounting of a run (src/faults). `enabled` false
 * (the default, faults off) leaves every other field zero and keeps
 * all printers/exports byte-identical to the pre-fault build.
 */
struct ClusterFaultReport
{
    bool enabled = false;
    /** Sum of per-device crash downtime, seconds. Availability is
     *  `1 - totalDowntimeSec / (devices x makespan)`. */
    double totalDowntimeSec = 0.0;
    std::uint64_t crashes = 0;
    std::uint64_t slowdowns = 0;
    std::uint64_t shrinks = 0;
    /** KV tokens discarded by crash evictions (regeneration cost). */
    std::uint64_t lostTokens = 0;
    /** Fault re-dispatches scheduled (crash evictions + sheds). */
    std::uint64_t retries = 0;
    /** Requests that completed after >= 1 fault retry. */
    std::uint64_t retrySuccesses = 0;
    /** Waiting requests shed by the degradation ladder. */
    std::uint64_t shedRequests = 0;
    /** Requests whose fault-retry budget ran out (terminal). */
    std::uint64_t permanentFailures = 0;
    struct Device
    {
        std::uint64_t crashes = 0;
        double downtimeSec = 0.0;
    };
    std::vector<Device> devices;
};

/** The whole fleet's outcome. */
struct ClusterReport
{
    /** Merged-and-summarized roll-up over every device. */
    serving::ServingReport aggregate;
    std::vector<ClusterDeviceReport> devices;
    /** Population CV of per-device busy time (0 = balanced). */
    double loadImbalanceCv = 0.0;
    /** Mean of per-device peak KV pool utilization. */
    double meanKvPeakUtilization = 0.0;
    /** Total eDRAM refresh energy across the fleet, joules. */
    double refreshEnergyJ = 0.0;
    /** Fault/recovery accounting (enabled only on fault runs). */
    ClusterFaultReport faults;
};

/** Population coefficient of variation; 0 for empty or zero-mean. */
double coefficientOfVariation(const std::vector<double> &xs);

/** Merge every device into the fleet-level ClusterReport. */
ClusterReport rollUpCluster(
    const std::vector<const serving::DeviceEngine *> &devices,
    Time makespan);

/**
 * Register the fleet roll-up's scalars in an `obs::MetricsRegistry`:
 * `cluster.*` gauges (completed/rejected/goodput/SLO attainment/load
 * imbalance CV/mean KV peak utilization/refresh energy/preemptions)
 * plus per-device `<name>.busy_sec`, `<name>.busy_frac` (busy time
 * over cluster makespan), `<name>.dispatched`, `<name>.completed` and
 * `<name>.kv_peak_utilization`. bench_cluster prints its summary
 * figures out of this registry so the printed numbers and the
 * `--metrics-out` dump cannot diverge.
 */
void exportClusterMetrics(const ClusterReport &rep,
                          obs::MetricsRegistry &reg);

} // namespace cluster
} // namespace kelle

#endif // KELLE_CLUSTER_CLUSTER_METRICS_HPP
