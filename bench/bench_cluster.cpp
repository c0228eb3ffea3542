/**
 * @file
 * Multi-device edge-cluster serving: fleet size x dispatch policy x
 * heterogeneity (eDRAM- vs SRAM-backed devices) on the layer-6
 * `ClusterEngine`, one shared request stream over N per-device KV
 * pools.
 *
 * The headline section serves one seeded trace on the configured fleet
 * under every selected dispatch policy and breaks the first policy's
 * run down per device. The knee study serves a 2-device heterogeneous
 * fleet at the fleet's saturation knee, where routing by free KV
 * budget (join-shortest-kv) must beat blind rotation (round-robin) on
 * p95 TTFT — the asymmetric-pool setting the co-design implies. The
 * preemption study toggles deadline-doomed budget reclamation on the
 * same fleet. The sweep fans devices x dispatch x fleet cells across
 * cores via common::ThreadPool; every number is a pure function of
 * the flags and rerunning with the same seed is bit-identical.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/capacity.hpp"
#include "bench_util.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/arg_parser.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace kelle;

namespace {

/** The §8.4.1 KV pool of one device (capacity analysis). */
std::size_t
analysisPoolTokens(const accel::SystemConfig &sys,
                   const model::ModelConfig &m)
{
    return accel::maxSupportedTokens(m, accel::capacitySpecOf(sys))
        .maxTokens;
}

struct FleetSpec
{
    std::string label;
    std::vector<cluster::DeviceSpec> devices;
};

/**
 * Build the benchmark fleet: homogeneous Kelle+eDRAM devices, or the
 * alternating eDRAM/SRAM mix. SRAM-backed devices default to half the
 * eDRAM KV pool (`--sram-pool 0`): at matched area the SRAM macro
 * holds a fraction of the eDRAM KV bytes (§3), so the device class is
 * provisioned KV-tight — the asymmetry dispatch has to balance.
 */
FleetSpec
makeFleet(std::size_t n, bool hetero, std::size_t pool_tokens,
          std::size_t sram_pool_tokens, std::size_t max_batch,
          const model::ModelConfig &m)
{
    const auto edram_sys = accel::kelleEdramSystem(2048);
    const std::size_t edram_pool =
        pool_tokens ? pool_tokens : analysisPoolTokens(edram_sys, m);
    if (!hetero) {
        FleetSpec f;
        f.label = "homog eDRAM";
        f.devices = cluster::homogeneousFleet(n, edram_sys, edram_pool,
                                              max_batch);
        return f;
    }
    FleetSpec f;
    f.label = "hetero eDRAM/SRAM";
    const std::size_t sram_pool =
        sram_pool_tokens ? sram_pool_tokens : edram_pool / 2;
    f.devices = cluster::heteroEdramSramFleet(n, 2048, edram_pool,
                                              sram_pool, max_batch);
    return f;
}

cluster::ClusterReport
runCell(cluster::ClusterConfig cfg, cluster::DispatchKind dispatch)
{
    cfg.dispatch = dispatch;
    cluster::ClusterEngine engine(cfg);
    return engine.run();
}

void
addClusterRow(Table &t, const std::string &label,
              const cluster::ClusterReport &rep)
{
    const auto &s = rep.aggregate.summary;
    const double total_j = s.energy.total().j();
    t.addRow({label, std::to_string(s.completed),
              std::to_string(s.rejected),
              toString(Time::seconds(s.ttftP50)),
              toString(Time::seconds(s.ttftP95)),
              toString(Time::seconds(s.tpotMean)),
              Table::pct(s.sloTtftAttainment),
              Table::pct(s.sloAttainment),
              Table::num(s.goodputTokensPerSec, 1),
              std::to_string(s.preemptions),
              Table::num(rep.loadImbalanceCv, 2),
              Table::pct(rep.meanKvPeakUtilization),
              Table::pct(total_j > 0.0 ? rep.refreshEnergyJ / total_j
                                       : 0.0),
              toString(Energy::joules(s.energyPerToken))});
}

const std::vector<std::string> kClusterHeader = {
    "dispatch", "done", "rej", "TTFT p50", "TTFT p95", "TPOT",
    "SLO ttft", "SLO all", "goodput tok/s", "preempt", "imbalance",
    "KV peak", "refresh share", "E/token"};

} // namespace

int
main(int argc, char **argv)
{
    common::ArgParser args(
        "bench_cluster",
        "multi-device edge cluster: fleet size x dispatch policy x "
        "eDRAM/SRAM heterogeneity");
    args.addDouble("rate", 0.04,
                   "mean arrival rate in req/s (whole fleet)",
                   common::NumRange::PositiveFinite);
    args.addInt("devices", 2, "fleet size for the headline section",
                common::IntRange::AtLeastOne);
    args.addString("dispatch", "all",
                   cluster::dispatchPolicyNames() + " | all");
    args.addBool("hetero", false,
                 "headline fleet alternates eDRAM/SRAM devices");
    args.addString("policy", "contbatch",
                   "per-device scheduling policy: " +
                       serving::schedulePolicyNames());
    args.addInt("chunk-tokens", 0,
                "prefill chunk size (0 = whole prompt per step)",
                common::IntRange::NonNegative);
    args.addDouble("chunk-slack", 0.0,
                   "edf-chunked slack-aware alternation fraction "
                   "(0 = unconditional alternation)",
                   common::NumRange::NonNegativeFinite);
    args.addBool("preempt", false,
                 "reclaim KV grants of deadline-doomed decodes and "
                 "re-dispatch the victims");
    args.addDouble("slo-tpot", 0.0,
                   "override the per-request TPOT target in seconds "
                   "(0 = trace default); tight targets doom stalled "
                   "decodes, which is what --preempt reclaims",
                   common::NumRange::NonNegativeFinite);
    args.addInt("requests", 48, "trace length in requests",
                common::IntRange::AtLeastOne);
    args.addInt("seed", 42, "arrival-trace seed");
    args.addInt("maxbatch", 16, "per-device decode-batch cap",
                common::IntRange::AtLeastOne);
    args.addInt("pool", 0,
                "per-device KV pool tokens (0 = capacity analysis)",
                common::IntRange::NonNegative);
    args.addInt("sram-pool", 0,
                "KV pool tokens of SRAM-backed devices in hetero "
                "fleets (0 = half the eDRAM pool)",
                common::IntRange::NonNegative);
    args.addInt("steps", 0,
                "max engine steps per device (0 = run to completion)",
                common::IntRange::NonNegative);
    args.addInt("threads", 1,
                "worker lanes per cluster run (1 = one lane, run "
                "inline, 0 = hardware threads); output is "
                "bit-identical for every value",
                common::IntRange::NonNegative);
    args.addBool("burst", false, "bursty (MMPP) arrivals");
    args.addBool("study", true,
                 "run the knee (join-shortest-kv vs round-robin) and "
                 "preemption studies");
    args.addBool("sweep", true,
                 "run the devices x dispatch x fleet sweep");
    args.addBool("fastsim", true,
                 "fast-forward silent decode windows (off replays "
                 "every boundary as an event; output is identical)");
    args.addString("trace-out", "",
                   "write the first headline cell's request-lifecycle "
                   "trace as Chrome trace-event JSON (Perfetto)");
    args.addString("metrics-out", "",
                   "dump the first headline cell's metrics registry "
                   "(.csv = sampled time series, else JSON)");
    args.addDouble("metrics-interval", 60.0,
                   "time-series sampling interval for --metrics-out "
                   "CSV, sim seconds",
                   common::NumRange::PositiveFinite);
    args.addBool("attribution", false,
                 "per-request latency waterfalls on the first "
                 "headline cell: print the SLO miss-cause breakdown, "
                 "add attribution.* metrics to --metrics-out and SLO "
                 "targets to --trace-out");
    args.addBool("faults", false,
                 "seeded fault injection (src/faults): crashes, "
                 "slowdowns and pool shrinks with recovery; adds the "
                 "fault report and the goodput-vs-availability study");
    args.addDouble("mtbf", 120.0,
                   "mean time between faults per device, sim seconds",
                   common::NumRange::PositiveFinite);
    args.addDouble("mttr", 15.0,
                   "mean time to recovery per fault, sim seconds",
                   common::NumRange::PositiveFinite);
    args.addInt("retries", 3,
                "fault re-dispatch budget per request before a "
                "permanent failure",
                common::IntRange::Uint32);
    if (!args.parse(argc, argv))
        return args.exitCode();

    serving::SchedulePolicy policy;
    if (!serving::parseSchedulePolicy(args.getString("policy"),
                                      &policy)) {
        std::fprintf(stderr, "unknown --policy '%s' (%s)\n",
                     args.getString("policy").c_str(),
                     serving::schedulePolicyNames().c_str());
        return 1;
    }
    std::vector<cluster::DispatchKind> dispatches;
    const std::string dispatch_text = args.getString("dispatch");
    if (dispatch_text == "all") {
        dispatches = cluster::allDispatchPolicies();
    } else {
        cluster::DispatchKind k;
        if (!cluster::parseDispatchPolicy(dispatch_text, &k)) {
            std::fprintf(stderr, "unknown --dispatch '%s' (%s|all)\n",
                         dispatch_text.c_str(),
                         cluster::dispatchPolicyNames().c_str());
            return 1;
        }
        dispatches = {k};
    }

    cluster::ClusterConfig base;
    base.engine.traffic.ratePerSec = args.getDouble("rate");
    base.engine.traffic.numRequests = args.getSize("requests");
    base.engine.traffic.seed =
        static_cast<std::uint64_t>(args.getInt("seed"));
    base.engine.traffic.process = args.getBool("burst")
                               ? serving::ArrivalProcess::Bursty
                               : serving::ArrivalProcess::Poisson;
    base.engine.policy = policy;
    base.engine.chunkTokens = args.getSize("chunk-tokens");
    base.engine.chunkSlackFrac = args.getDouble("chunk-slack");
    base.engine.preempt.enabled = args.getBool("preempt");
    if (args.getDouble("slo-tpot") > 0.0)
        base.engine.traffic.slo.tpotSec = args.getDouble("slo-tpot");
    base.engine.maxEngineSteps = args.getSize("steps");
    base.engine.fastSim = args.getBool("fastsim");
    base.threads = args.getSize("threads");
    base.faults.enabled = args.getBool("faults");
    base.faults.mtbfSec = args.getDouble("mtbf");
    base.faults.mttrSec = args.getDouble("mttr");
    base.faults.maxRetries =
        static_cast<std::uint32_t>(args.getInt("retries"));

    const std::size_t n_devices = args.getSize("devices");
    const std::size_t max_batch = args.getSize("maxbatch");
    const std::size_t pool = args.getSize("pool");
    const std::size_t sram_pool = args.getSize("sram-pool");
    const FleetSpec headline_fleet =
        makeFleet(n_devices, args.getBool("hetero"), pool, sram_pool,
                  max_batch, base.engine.model);
    base.devices = headline_fleet.devices;

    bench::banner(
        "Cluster: " + std::to_string(base.engine.traffic.numRequests) +
        " requests at " + Table::num(base.engine.traffic.ratePerSec, 4) +
        " req/s (" + toString(base.engine.traffic.process) + "), " +
        std::to_string(n_devices) + " devices (" +
        headline_fleet.label + "), per-device policy " +
        toString(base.engine.policy) + ", seed " +
        std::to_string(base.engine.traffic.seed));

    // ---- Headline: the configured fleet under every dispatch ------
    // The trace recorder rides on the first dispatch cell only: each
    // cell runs on its own pool lane, so exactly one lane ever
    // touches the recorder and the trace bytes stay a pure function of
    // that cell's config.
    const std::string trace_out = args.getString("trace-out");
    const std::string metrics_out = args.getString("metrics-out");
    obs::TraceRecorder recorder;
    obs::LatencyWaterfall waterfall;
    const bool attribution = args.getBool("attribution");
    const bool record = !trace_out.empty() || !metrics_out.empty();
    std::vector<cluster::ClusterReport> runs(dispatches.size());
    common::ThreadPool lanes(
        std::min(dispatches.size(), common::defaultParallelism()));
    lanes.forEach(dispatches.size(), [&](std::size_t i) {
        cluster::ClusterConfig cfg = base;
        if (i == 0 && record)
            cfg.engine.trace = &recorder;
        if (i == 0 && attribution)
            cfg.engine.waterfall = &waterfall;
        runs[i] = runCell(cfg, dispatches[i]);
    });
    Table headline(kClusterHeader);
    for (std::size_t i = 0; i < dispatches.size(); ++i)
        addClusterRow(headline, toString(dispatches[i]), runs[i]);
    headline.print("per-device pool " +
                   std::to_string(base.devices.front().poolTokens) +
                   " KV tokens on " + base.devices.front().name +
                   "; aggregate percentiles over the union of "
                   "completed requests");

    // Per-device breakdown of the first dispatch policy's run. The
    // busy-fraction column and the caption's imbalance CV are read
    // back out of the metrics registry the same roll-up feeds, so the
    // printed figures and a --metrics-out dump cannot diverge.
    obs::MetricsRegistry fleet_metrics;
    cluster::exportClusterMetrics(runs.front(), fleet_metrics);
    {
        Table breakdown({"device", "dispatched", "done", "TTFT p95",
                         "busy", "busy frac", "KV peak", "pool tok",
                         "refresh"});
        for (const auto &d : runs.front().devices) {
            const std::string key =
                (d.name.empty() ? "device" : d.name) + ".busy_frac";
            breakdown.addRow(
                {d.name, std::to_string(d.dispatched),
                 std::to_string(d.report.summary.completed),
                 toString(Time::seconds(d.report.summary.ttftP95)),
                 toString(Time::seconds(d.busySec)),
                 Table::pct(fleet_metrics.gauge(key, 0.0)),
                 Table::pct(d.kvPeakUtilization),
                 std::to_string(d.report.poolTokens),
                 toString(d.report.summary.energy.refresh)});
        }
        breakdown.print(
            "device breakdown under " + toString(dispatches.front()) +
            "; imbalance CV " +
            Table::num(
                fleet_metrics.gauge("cluster.load_imbalance_cv", 0.0),
                2) +
            " (busy fractions are of the cluster makespan)");
    }

    if (base.faults.enabled) {
        const cluster::ClusterFaultReport &f = runs.front().faults;
        const double avail =
            fleet_metrics.gauge("cluster.availability", 1.0);
        Table ft({"device", "crashes", "downtime", "down frac"});
        const double mk =
            runs.front().aggregate.summary.makespan.sec();
        for (std::size_t d = 0; d < f.devices.size(); ++d) {
            ft.addRow(
                {runs.front().devices[d].name,
                 std::to_string(f.devices[d].crashes),
                 toString(Time::seconds(f.devices[d].downtimeSec)),
                 Table::pct(mk > 0.0 ? f.devices[d].downtimeSec / mk
                                     : 0.0)});
        }
        ft.print(
            "fault report under " + toString(dispatches.front()) +
            ": availability " + Table::pct(avail) + ", " +
            std::to_string(f.crashes) + " crashes / " +
            std::to_string(f.slowdowns) + " slowdowns / " +
            std::to_string(f.shrinks) + " pool shrinks, lost " +
            std::to_string(f.lostTokens) + " KV tokens, " +
            std::to_string(f.retries) + " retries (" +
            std::to_string(f.retrySuccesses) + " completed), " +
            std::to_string(f.shedRequests) + " shed, " +
            std::to_string(f.permanentFailures) +
            " permanent failures");
    }

    if (attribution) {
        std::vector<std::string> names;
        for (const auto &d : runs.front().devices)
            names.push_back(d.name);
        bench::printAttribution(
            runs.front().aggregate.attribution, names,
            toString(dispatches.front()) + " dispatch");
    }

    if (!trace_out.empty()) {
        if (!recorder.writeJson(trace_out))
            return 1;
        std::printf("\nwrote trace: %s (%s dispatch; load at "
                    "https://ui.perfetto.dev)\n",
                    trace_out.c_str(),
                    toString(dispatches.front()).c_str());
    }
    if (!metrics_out.empty()) {
        if (attribution)
            obs::exportAttributionMetrics(waterfall, fleet_metrics);
        fleet_metrics.ingestTrace(recorder);
        if (!fleet_metrics.writeFile(
                metrics_out, args.getDouble("metrics-interval")))
            return 1;
        std::printf("\nwrote metrics: %s\n", metrics_out.c_str());
    }

    // ---- Knee study: 2-device hetero fleet at the saturation knee -
    if (args.getBool("study")) {
        cluster::ClusterConfig knee = base;
        knee.devices = makeFleet(2, true, pool, sram_pool, max_batch,
                                 base.engine.model)
                           .devices;
        // The knee sits where the offered load crosses what the
        // asymmetric fleet can drain: queueing shows in the TTFT tail
        // but the run still completes.
        knee.engine.traffic.ratePerSec = args.getDouble("rate") * 0.75;
        const auto all = cluster::allDispatchPolicies();
        std::vector<cluster::ClusterReport> reps(all.size());
        common::ThreadPool lanes(
            std::min(all.size(), common::defaultParallelism()));
        lanes.forEach(all.size(), [&](std::size_t i) {
            reps[i] = runCell(knee, all[i]);
        });
        bench::banner(
            "Knee study: 2-device hetero eDRAM/SRAM fleet at " +
            Table::num(knee.engine.traffic.ratePerSec, 4) + " req/s");
        Table t(kClusterHeader);
        for (std::size_t i = 0; i < all.size(); ++i)
            addClusterRow(t, toString(all[i]), reps[i]);
        t.print("same trace per row; SRAM device runs the smaller "
                "pool");

        // Derive the two compared cells from `all` so reordering the
        // policy list cannot silently decouple the note from the data.
        auto dispatchIndex = [&all](cluster::DispatchKind k) {
            for (std::size_t i = 0; i < all.size(); ++i)
                if (all[i] == k)
                    return i;
            KELLE_ASSERT(false, "dispatch policy missing from the "
                                "knee study: ",
                         toString(k));
            return all.size();
        };
        const auto &rr =
            reps[dispatchIndex(cluster::DispatchKind::RoundRobin)]
                .aggregate.summary;
        const auto &jsk =
            reps[dispatchIndex(cluster::DispatchKind::JoinShortestKv)]
                .aggregate.summary;
        if (jsk.ttftP95 < rr.ttftP95) {
            bench::note(
                "join-shortest-kv beats round-robin on p95 TTFT at "
                "the knee: " +
                toString(Time::seconds(jsk.ttftP95)) + " vs " +
                toString(Time::seconds(rr.ttftP95)) + " (" +
                Table::mult(rr.ttftP95 /
                            std::max(jsk.ttftP95, 1e-12)) +
                "), SLO attainment " + Table::pct(jsk.sloAttainment) +
                " vs " + Table::pct(rr.sloAttainment) +
                ", imbalance CV " +
                Table::num(
                    reps[dispatchIndex(
                             cluster::DispatchKind::JoinShortestKv)]
                        .loadImbalanceCv,
                    2) +
                " vs " +
                Table::num(
                    reps[dispatchIndex(
                             cluster::DispatchKind::RoundRobin)]
                        .loadImbalanceCv,
                    2));
        } else {
            bench::note("join-shortest-kv did not beat round-robin "
                        "on p95 TTFT in this configuration");
        }

        // Preemption study: the same fleet pushed into overload with
        // a TPOT target near the achievable mean, so stalled batch
        // members become provably doomed mid-flight and reclamation
        // has something to reclaim.
        cluster::ClusterConfig pre = knee;
        pre.dispatch = cluster::DispatchKind::JoinShortestKv;
        pre.engine.traffic.ratePerSec = args.getDouble("rate") * 2.0;
        pre.engine.traffic.slo.tpotSec = 0.15;
        // Quarter the pools: preemption only pays where KV is the
        // binding constraint, i.e. requests actually wait for budget.
        for (auto &d : pre.devices)
            d.poolTokens = std::max<std::size_t>(1, d.poolTokens / 4);
        std::vector<cluster::ClusterReport> pruns(2);
        lanes.forEach(2, [&](std::size_t i) {
            auto cfg = pre;
            cfg.engine.preempt.enabled = i == 1;
            cluster::ClusterEngine engine(cfg);
            pruns[i] = engine.run();
        });
        bench::banner("Preemption study: join-shortest-kv, doomed "
                      "decodes reclaimed vs kept");
        Table pt(kClusterHeader);
        addClusterRow(pt, "preempt off", pruns[0]);
        addClusterRow(pt, "preempt on", pruns[1]);
        pt.print("a doomed decode already misses TPOT; reclaiming "
                 "its grant re-opens the pool to waiting requests");
    }

    // ---- Fault study: goodput vs availability ---------------------
    // The robustness trade the injector makes measurable: the same
    // trace on the same fleet while the per-device MTBF shrinks from
    // "never fails" to a quarter of the configured value. Goodput
    // should degrade gracefully with availability (retries recover
    // crash victims) rather than collapse.
    if (base.faults.enabled) {
        const double mtbf = base.faults.mtbfSec;
        struct FaultCell
        {
            std::string label;
            bool enabled;
            double mtbfSec;
        };
        const std::vector<FaultCell> fcells = {
            {"off", false, mtbf},
            {Table::num(mtbf * 4.0, 0) + " s", true, mtbf * 4.0},
            {Table::num(mtbf, 0) + " s", true, mtbf},
            {Table::num(mtbf / 4.0, 0) + " s", true, mtbf / 4.0},
        };
        std::vector<cluster::ClusterReport> freps(fcells.size());
        common::ThreadPool lanes(
            std::min(fcells.size(), common::defaultParallelism()));
        lanes.forEach(fcells.size(), [&](std::size_t i) {
            cluster::ClusterConfig cfg = base;
            cfg.faults.enabled = fcells[i].enabled;
            cfg.faults.mtbfSec = fcells[i].mtbfSec;
            freps[i] = runCell(cfg, dispatches.front());
        });
        bench::banner("Fault study: goodput vs availability (" +
                      toString(dispatches.front()) + " dispatch, "
                      "MTTR " + Table::num(base.faults.mttrSec, 0) +
                      " s, retry budget " +
                      std::to_string(base.faults.maxRetries) + ")");
        Table ft({"MTBF", "availability", "done", "failed", "crashes",
                  "goodput tok/s", "SLO all", "lost tok", "retries"});
        for (std::size_t i = 0; i < fcells.size(); ++i) {
            const auto &s = freps[i].aggregate.summary;
            const cluster::ClusterFaultReport &f = freps[i].faults;
            const double span =
                s.makespan.sec() *
                static_cast<double>(freps[i].devices.size());
            const double avail =
                span > 0.0 ? 1.0 - f.totalDowntimeSec / span : 1.0;
            ft.addRow({fcells[i].label, Table::pct(avail),
                       std::to_string(s.completed),
                       std::to_string(f.permanentFailures),
                       std::to_string(f.crashes),
                       Table::num(s.goodputTokensPerSec, 1),
                       Table::pct(s.sloAttainment),
                       std::to_string(f.lostTokens),
                       std::to_string(f.retries)});
        }
        ft.print("same arrival trace per row; only the fault stream "
                 "changes");
    }

    // ---- Sweep: devices x dispatch x fleet -------------------------
    if (args.getBool("sweep")) {
        struct SweepCell
        {
            std::size_t devices;
            bool hetero;
            cluster::DispatchKind dispatch;
        };
        std::vector<SweepCell> cells;
        for (std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}})
            for (bool hetero : {false, true})
                for (auto dispatch : dispatches)
                    cells.push_back({n, hetero, dispatch});

        std::vector<cluster::ClusterReport> reps(cells.size());
        common::ThreadPool lanes(
            std::min(cells.size(), common::defaultParallelism()));
        lanes.forEach(cells.size(), [&](std::size_t i) {
            cluster::ClusterConfig cfg = base;
            cfg.devices = makeFleet(cells[i].devices, cells[i].hetero,
                                    pool, sram_pool, max_batch,
                                    base.engine.model)
                              .devices;
            cfg.engine.traffic.numRequests = std::min<std::size_t>(
                cfg.engine.traffic.numRequests, 40);
            reps[i] = runCell(cfg, cells[i].dispatch);
        });

        bench::banner("Sweep: fleet size x dispatch x heterogeneity");
        Table sweep({"devices", "fleet", "dispatch", "TTFT p95",
                     "SLO all", "goodput tok/s", "imbalance",
                     "refresh share", "E/token"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &s = reps[i].aggregate.summary;
            const double total_j = s.energy.total().j();
            sweep.addRow(
                {std::to_string(cells[i].devices),
                 cells[i].hetero ? "eDRAM/SRAM" : "eDRAM",
                 toString(cells[i].dispatch),
                 toString(Time::seconds(s.ttftP95)),
                 Table::pct(s.sloAttainment),
                 Table::num(s.goodputTokensPerSec, 1),
                 Table::num(reps[i].loadImbalanceCv, 2),
                 Table::pct(total_j > 0.0
                                ? reps[i].refreshEnergyJ / total_j
                                : 0.0),
                 toString(Energy::joules(s.energyPerToken))});
        }
        sweep.print("<= 40 requests per cell, same seed and offered "
                    "rate per cell (adding devices relieves load)");
        bench::note("KV-aware dispatch narrows the TTFT tail as the "
                    "fleet grows and absorbs the hetero fleet's pool "
                    "asymmetry; refresh energy stays a small share on "
                    "the eDRAM devices");
    }
    return 0;
}
