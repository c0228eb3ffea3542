/**
 * @file
 * A narrated edge serving session: a small burst of users hits a
 * Kelle deployment, and the engine logs every request's lifecycle —
 * arrival, admission (with the AERP budget N' the KV allocator
 * granted, shrunk under pool pressure), first token, completion —
 * followed by the SLO summary. A deliberately small KV pool makes the
 * admission control and eviction-pressure feedback visible.
 *
 * With `--devices N` (N > 1) the same burst hits an N-device edge
 * cluster instead: every arrival is routed by the chosen dispatch
 * policy (the narration shows the routing decision and each device's
 * free KV at that moment), `--hetero` mixes eDRAM- and SRAM-backed
 * devices, and `--preempt` lets a device reclaim the KV grant of a
 * deadline-doomed decode and throw the victim back to the dispatcher.
 *
 * With `--faults` the session runs on a >= 2-device cluster under
 * seeded fault injection: the narration shows crashes evicting
 * in-flight requests, the dispatcher blacklisting the down device,
 * retries landing the victims on survivors, and the fault report
 * totals the downtime and lost work.
 *
 * Try: ./edge_server --rate 0.1 --policy fcfs --seed 7
 *      ./edge_server --devices 2 --hetero --dispatch join-shortest-kv
 *      ./edge_server --faults --mtbf 40 --mttr 10
 */

#include <algorithm>
#include <cstdio>

#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_metrics.hpp"
#include "common/arg_parser.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace kelle;

namespace {

void
printSummary(const serving::ServingReport &rep)
{
    const auto &s = rep.summary;
    Table t({"metric", "value"});
    t.addRow({"completed / rejected", std::to_string(s.completed) + " / " +
                                          std::to_string(s.rejected)});
    t.addRow({"makespan", toString(s.makespan)});
    t.addRow({"TTFT p50 / p95", toString(Time::seconds(s.ttftP50)) +
                                    " / " +
                                    toString(Time::seconds(s.ttftP95))});
    t.addRow({"TPOT mean", toString(Time::seconds(s.tpotMean))});
    t.addRow({"decode stall p95", toString(Time::seconds(s.tokenGapP95))});
    t.addRow({"SLO attainment (TTFT / TPOT / both)",
              Table::pct(s.sloTtftAttainment) + " / " +
                  Table::pct(s.sloTpotAttainment) + " / " +
                  Table::pct(s.sloAttainment)});
    t.addRow({"admission bypasses / max queue wait",
              std::to_string(s.admissionBypasses) + " / " +
                  toString(Time::seconds(s.maxQueueWaitSec))});
    t.addRow({"preemptions (doomed decodes reclaimed)",
              std::to_string(s.preemptions)});
    t.addRow({"goodput", Table::num(s.goodputTokensPerSec, 1) + " tok/s"});
    t.addRow({"queue depth mean / max",
              Table::num(s.meanQueueDepth, 1) + " / " +
                  std::to_string(s.maxQueueDepth)});
    t.addRow({"budgets kept at N'", Table::pct(s.meanBudgetFraction)});
    t.addRow({"shrunk grants / admission retries",
              std::to_string(rep.shrunkGrants) + " / " +
                  std::to_string(rep.deferrals)});
    t.addRow({"KV pool peak",
              Table::pct(rep.poolPeakBytes /
                         std::max(rep.poolCapacityBytes, 1.0))});
    t.addRow({"energy (refresh share)",
              toString(s.energy.total()) + " (" +
                  Table::pct(s.energy.total().j() > 0.0
                                 ? s.energy.refresh.j() /
                                       s.energy.total().j()
                                 : 0.0) +
                  ")"});
    std::printf("\n");
    t.print("session summary");
}

/**
 * Write the trace and the metrics registry the flags ask for (the same
 * `.csv` / `.json` metrics formats bench_serving and bench_cluster
 * emit, after lifting the per-device time series and latency
 * histograms off the recorder). False, after the writer's one-line
 * message, when a file cannot be written.
 */
bool
writeOutputs(obs::MetricsRegistry &reg,
             const obs::TraceRecorder &recorder,
             const std::string &trace_out,
             const std::string &metrics_out, double interval_sec)
{
    if (!trace_out.empty()) {
        if (!recorder.writeJson(trace_out))
            return false;
        std::printf("\nwrote trace: %s (load at "
                    "https://ui.perfetto.dev)\n",
                    trace_out.c_str());
    }
    if (metrics_out.empty())
        return true;
    reg.ingestTrace(recorder);
    if (!reg.writeFile(metrics_out, interval_sec))
        return false;
    std::printf("\nwrote metrics: %s\n", metrics_out.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    common::ArgParser args("edge_server",
                           "narrated multi-user edge serving session");
    args.addDouble("rate", 0.05, "mean arrival rate in req/s",
                   common::NumRange::PositiveFinite);
    args.addString("policy", "contbatch",
                   serving::schedulePolicyNames());
    args.addInt("chunk-tokens", 0,
                "prefill chunk size (0 = whole prompt per step)",
                common::IntRange::NonNegative);
    args.addInt("requests", 12, "number of user requests",
                common::IntRange::AtLeastOne);
    args.addInt("seed", 7, "arrival-trace seed");
    args.addInt("budget", 0, "per-request KV budget N' (0 = task N')",
                common::IntRange::NonNegative);
    args.addInt("steps", 0, "max engine steps (0 = run to completion)",
                common::IntRange::NonNegative);
    args.addInt("devices", 1,
                "edge devices; > 1 serves the burst on a cluster",
                common::IntRange::AtLeastOne);
    args.addString("dispatch", "join-shortest-kv",
                   "cluster dispatch policy: " +
                       cluster::dispatchPolicyNames());
    args.addBool("hetero", false,
                 "alternate eDRAM/SRAM devices (clusters only)");
    args.addBool("preempt", false,
                 "reclaim KV grants of deadline-doomed decodes");
    args.addBool("faults", false,
                 "inject seeded device faults (crash / slowdown / "
                 "pool shrink with recovery) into the session; "
                 "forces a cluster of >= 2 devices so the narration "
                 "shows failover");
    args.addDouble("mtbf", 40.0,
                   "mean time between faults per device, sim seconds "
                   "(with --faults)",
                   common::NumRange::PositiveFinite);
    args.addDouble("mttr", 10.0,
                   "mean time to recovery per fault, sim seconds "
                   "(with --faults)",
                   common::NumRange::PositiveFinite);
    args.addString("trace-out", "",
                   "also record the session as Chrome trace-event "
                   "JSON (open in https://ui.perfetto.dev; see "
                   "docs/TRACING.md)");
    args.addString("metrics-out", "",
                   "dump session metrics (.csv time series or .json) "
                   "for parity with bench_serving/bench_cluster");
    args.addDouble("metrics-interval", 60.0,
                   "time-series sampling interval for --metrics-out "
                   "CSV, sim seconds",
                   common::NumRange::PositiveFinite);
    if (!args.parse(argc, argv))
        return args.exitCode();

    serving::ServingConfig cfg;
    cfg.traffic.ratePerSec = args.getDouble("rate");
    cfg.traffic.numRequests = args.getSize("requests");
    cfg.traffic.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    cfg.traffic.process = serving::ArrivalProcess::Bursty;
    cfg.budgetOverride = args.getSize("budget");
    cfg.maxEngineSteps = args.getSize("steps");
    cfg.chunkTokens = args.getSize("chunk-tokens");
    cfg.preempt.enabled = args.getBool("preempt");
    if (!serving::parseSchedulePolicy(args.getString("policy"),
                                      &cfg.policy)) {
        std::fprintf(stderr, "unknown --policy '%s' (%s)\n",
                     args.getString("policy").c_str(),
                     serving::schedulePolicyNames().c_str());
        return 1;
    }
    cluster::DispatchKind dispatch;
    if (!cluster::parseDispatchPolicy(args.getString("dispatch"),
                                      &dispatch)) {
        std::fprintf(stderr, "unknown --dispatch '%s' (%s)\n",
                     args.getString("dispatch").c_str(),
                     cluster::dispatchPolicyNames().c_str());
        return 1;
    }
    // A pool of ~6 concurrent TQ-sized budgets: small enough that a
    // burst pushes utilization over the watermark and later grants
    // come back shrunk.
    constexpr std::size_t kPoolTokens = 6144;
    constexpr std::size_t kMaxBatch = 8;
    cfg.verbose = true;
    setLogLevel(LogLevel::Verbose); // lifecycle lines use inform()

    // One recorder serves every fleet size: the cluster engine threads
    // it to its devices. The narrated stdout is byte-identical with or
    // without it.
    const std::string trace_out = args.getString("trace-out");
    const std::string metrics_out = args.getString("metrics-out");
    obs::TraceRecorder recorder;
    if (!trace_out.empty() || !metrics_out.empty())
        cfg.trace = &recorder;

    // Faults need somewhere to fail over to: lift the session onto a
    // cluster of at least two devices.
    const bool faults = args.getBool("faults");
    const std::size_t devices =
        faults ? std::max<std::size_t>(2, args.getSize("devices"))
               : args.getSize("devices");
    cluster::ClusterConfig ccfg;
    ccfg.engine = cfg;
    if (devices <= 1) {
        std::printf("edge_server: %zu requests at %.3f req/s (bursty), "
                    "policy %s, KV pool %zu tokens\n\n",
                    cfg.traffic.numRequests, cfg.traffic.ratePerSec,
                    toString(cfg.policy).c_str(), kPoolTokens);

        ccfg.devices = cluster::homogeneousFleet(
            1, accel::kelleEdramSystem(2048), kPoolTokens, kMaxBatch);
        cluster::ClusterEngine engine(ccfg);
        const serving::ServingReport rep = engine.run().aggregate;
        printSummary(rep);
        obs::MetricsRegistry reg;
        reg.setGauge("serving.completed",
                     static_cast<double>(rep.summary.completed));
        reg.setGauge("serving.rejected",
                     static_cast<double>(rep.summary.rejected));
        reg.setGauge("serving.goodput_tok_per_s",
                     rep.summary.goodputTokensPerSec);
        reg.setGauge("serving.slo_attainment", rep.summary.sloAttainment);
        return writeOutputs(reg, recorder, trace_out, metrics_out,
                            args.getDouble("metrics-interval"))
                   ? 0
                   : 1;
    }

    // ---- Multi-device session: the same burst over a cluster ------
    ccfg.dispatch = dispatch;
    // Hetero SRAM-backed devices run half the pool: the KV-capacity
    // asymmetry the dispatch policy has to balance.
    ccfg.devices =
        args.getBool("hetero")
            ? cluster::heteroEdramSramFleet(devices, 2048, kPoolTokens,
                                            kPoolTokens / 2, kMaxBatch)
            : cluster::homogeneousFleet(devices,
                                        accel::kelleEdramSystem(2048),
                                        kPoolTokens, kMaxBatch);
    if (faults) {
        ccfg.faults.enabled = true;
        ccfg.faults.mtbfSec = args.getDouble("mtbf");
        ccfg.faults.mttrSec = args.getDouble("mttr");
    }

    std::printf("edge_server: %zu requests at %.3f req/s (bursty) on "
                "%zu devices (%s), dispatch %s, policy %s%s%s\n\n",
                ccfg.engine.traffic.numRequests, ccfg.engine.traffic.ratePerSec,
                devices, args.getBool("hetero") ? "eDRAM/SRAM" : "eDRAM",
                toString(dispatch).c_str(),
                toString(ccfg.engine.policy).c_str(),
                ccfg.engine.preempt.enabled ? ", preempt-and-requeue on" : "",
                faults ? ", fault injection on" : "");

    cluster::ClusterEngine engine(ccfg);
    const auto rep = engine.run();

    std::printf("\n");
    Table per_dev({"device", "dispatched", "done", "TTFT p95",
                   "busy", "KV peak", "pool tok"});
    for (const auto &d : rep.devices) {
        per_dev.addRow(
            {d.name, std::to_string(d.dispatched),
             std::to_string(d.report.summary.completed),
             toString(Time::seconds(d.report.summary.ttftP95)),
             toString(Time::seconds(d.busySec)),
             Table::pct(d.kvPeakUtilization),
             std::to_string(d.report.poolTokens)});
    }
    per_dev.print("per-device breakdown; load imbalance CV " +
                  Table::num(rep.loadImbalanceCv, 2));
    if (rep.faults.enabled) {
        const cluster::ClusterFaultReport &f = rep.faults;
        const double span =
            rep.aggregate.summary.makespan.sec() *
            static_cast<double>(rep.devices.size());
        Table ft({"metric", "value"});
        ft.addRow({"availability",
                   Table::pct(span > 0.0
                                  ? 1.0 - f.totalDowntimeSec / span
                                  : 1.0)});
        ft.addRow({"crashes / slowdowns / pool shrinks",
                   std::to_string(f.crashes) + " / " +
                       std::to_string(f.slowdowns) + " / " +
                       std::to_string(f.shrinks)});
        ft.addRow({"downtime",
                   toString(Time::seconds(f.totalDowntimeSec))});
        ft.addRow({"KV tokens lost to crashes",
                   std::to_string(f.lostTokens)});
        ft.addRow({"fault retries (completed after retry)",
                   std::to_string(f.retries) + " (" +
                       std::to_string(f.retrySuccesses) + ")"});
        ft.addRow({"requests shed / permanently failed",
                   std::to_string(f.shedRequests) + " / " +
                       std::to_string(f.permanentFailures)});
        std::printf("\n");
        ft.print("fault report");
    }
    printSummary(rep.aggregate);
    obs::MetricsRegistry reg;
    cluster::exportClusterMetrics(rep, reg);
    return writeOutputs(reg, recorder, trace_out, metrics_out,
                        args.getDouble("metrics-interval"))
               ? 0
               : 1;
}
