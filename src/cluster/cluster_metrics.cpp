#include "cluster/cluster_metrics.hpp"

#include <cmath>

namespace kelle {
namespace cluster {

double
coefficientOfVariation(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size());
    return std::sqrt(var) / mean;
}

ClusterReport
rollUpCluster(const std::vector<const serving::DeviceEngine *> &devices,
              Time makespan)
{
    ClusterReport out;
    serving::ServingMetrics merged;
    std::vector<double> busy;
    busy.reserve(devices.size());

    serving::ServingReport &agg = out.aggregate;
    agg.drained = true;
    for (const serving::DeviceEngine *dev : devices) {
        merged.merge(dev->metrics());

        ClusterDeviceReport d;
        d.name = dev->name();
        d.report = serving::deviceReport(*dev, makespan);
        d.dispatched = dev->dispatched();
        d.busySec = dev->busyTime().sec();
        d.kvPeakUtilization =
            d.report.poolCapacityBytes > 0.0
                ? d.report.poolPeakBytes / d.report.poolCapacityBytes
                : 0.0;
        busy.push_back(d.busySec);

        agg.engineSteps += d.report.engineSteps;
        agg.decodeSteps += d.report.decodeSteps;
        agg.prefillChunks += d.report.prefillChunks;
        agg.prefills += d.report.prefills;
        agg.poolTokens += d.report.poolTokens;
        agg.poolCapacityBytes += d.report.poolCapacityBytes;
        agg.poolPeakBytes += d.report.poolPeakBytes;
        agg.shrunkGrants += d.report.shrunkGrants;
        agg.deferrals += d.report.deferrals;
        agg.peakLogicalTokens += d.report.peakLogicalTokens;
        if (d.report.paged.enabled) {
            agg.paged.enabled = true;
            agg.paged.totalPages += d.report.paged.totalPages;
            agg.paged.blockTokens = d.report.paged.blockTokens;
            agg.paged.peakUsedPages += d.report.paged.peakUsedPages;
            agg.paged.peakSharedPages +=
                d.report.paged.peakSharedPages;
            agg.paged.prefixHitTokens +=
                d.report.paged.prefixHitTokens;
            agg.paged.cowCopies += d.report.paged.cowCopies;
            agg.paged.cachedReclaims +=
                d.report.paged.cachedReclaims;
            agg.paged.budgetClips += d.report.paged.budgetClips;
        }
        agg.drained = agg.drained && d.report.drained;
        out.meanKvPeakUtilization += d.kvPeakUtilization;
        out.devices.push_back(std::move(d));
    }
    agg.summary = merged.summarize(makespan);
    if (!devices.empty())
        out.meanKvPeakUtilization /=
            static_cast<double>(devices.size());
    out.loadImbalanceCv = coefficientOfVariation(busy);
    out.refreshEnergyJ = agg.summary.energy.refresh.j();
    return out;
}

void
exportClusterMetrics(const ClusterReport &rep,
                     obs::MetricsRegistry &reg)
{
    const serving::ServingSummary &sum = rep.aggregate.summary;
    reg.setGauge("cluster.completed",
                 static_cast<double>(sum.completed));
    reg.setGauge("cluster.rejected",
                 static_cast<double>(sum.rejected));
    reg.setGauge("cluster.goodput_tok_per_s",
                 sum.goodputTokensPerSec);
    reg.setGauge("cluster.slo_attainment", sum.sloAttainment);
    reg.setGauge("cluster.preemptions",
                 static_cast<double>(sum.preemptions));
    reg.setGauge("cluster.load_imbalance_cv", rep.loadImbalanceCv);
    reg.setGauge("cluster.mean_kv_peak_utilization",
                 rep.meanKvPeakUtilization);
    reg.setGauge("cluster.refresh_energy_j", rep.refreshEnergyJ);
    reg.setGauge("cluster.kv_peak_logical_tokens",
                 static_cast<double>(
                     rep.aggregate.peakLogicalTokens));
    if (rep.aggregate.paged.enabled) {
        const serving::PagedPoolStats &p = rep.aggregate.paged;
        reg.setGauge("cluster.kv_pages_total",
                     static_cast<double>(p.totalPages));
        reg.setGauge("cluster.kv_pages_peak_used",
                     static_cast<double>(p.peakUsedPages));
        reg.setGauge("cluster.kv_pages_peak_shared",
                     static_cast<double>(p.peakSharedPages));
        reg.setGauge("cluster.kv_prefix_hit_tokens",
                     static_cast<double>(p.prefixHitTokens));
        reg.setGauge("cluster.kv_cow_copies",
                     static_cast<double>(p.cowCopies));
        reg.setGauge("cluster.kv_cached_reclaims",
                     static_cast<double>(p.cachedReclaims));
        reg.setGauge("cluster.kv_tail_reclaims",
                     static_cast<double>(p.tailReclaims));
        reg.setGauge("cluster.kv_budget_clips",
                     static_cast<double>(p.budgetClips));
    }
    if (rep.faults.enabled) {
        const ClusterFaultReport &f = rep.faults;
        reg.setGauge("cluster.fault_crashes",
                     static_cast<double>(f.crashes));
        reg.setGauge("cluster.fault_slowdowns",
                     static_cast<double>(f.slowdowns));
        reg.setGauge("cluster.fault_pool_shrinks",
                     static_cast<double>(f.shrinks));
        reg.setGauge("cluster.fault_downtime_sec",
                     f.totalDowntimeSec);
        reg.setGauge("cluster.fault_lost_tokens",
                     static_cast<double>(f.lostTokens));
        reg.setGauge("cluster.fault_retries",
                     static_cast<double>(f.retries));
        reg.setGauge("cluster.fault_retry_successes",
                     static_cast<double>(f.retrySuccesses));
        reg.setGauge("cluster.fault_shed_requests",
                     static_cast<double>(f.shedRequests));
        reg.setGauge("cluster.fault_permanent_failures",
                     static_cast<double>(f.permanentFailures));
        const double span = sum.makespan.sec() *
                            static_cast<double>(rep.devices.size());
        reg.setGauge("cluster.availability",
                     span > 0.0
                         ? 1.0 - f.totalDowntimeSec / span
                         : 1.0);
    }
    const double makespan = sum.makespan.sec();
    for (const ClusterDeviceReport &d : rep.devices) {
        const std::string prefix =
            d.name.empty() ? "device" : d.name;
        reg.setGauge(prefix + ".busy_sec", d.busySec);
        reg.setGauge(prefix + ".busy_frac",
                     makespan > 0.0 ? d.busySec / makespan : 0.0);
        reg.setGauge(prefix + ".dispatched",
                     static_cast<double>(d.dispatched));
        reg.setGauge(prefix + ".completed",
                     static_cast<double>(d.report.summary.completed));
        reg.setGauge(prefix + ".kv_peak_utilization",
                     d.kvPeakUtilization);
    }
}

} // namespace cluster
} // namespace kelle
