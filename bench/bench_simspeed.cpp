/**
 * @file
 * Simulator-throughput harness: how fast the serving/cluster core
 * itself runs, as opposed to what it predicts. Drives the 2-device
 * heterogeneous eDRAM/SRAM knee sweep of bench_cluster (same fleet,
 * same trace generator, every dispatch policy) under wall-clock
 * instrumentation and reports simulated-requests/sec,
 * engine-steps/sec, the step-cost-cache hit rate and the share of
 * decode boundaries the engine fast-forwarded, plus peak RSS.
 *
 * Emits `BENCH_simspeed.json` (schema v2 in bench/README.md) so the
 * repo's performance trajectory is tracked. The CI gate is
 * self-relative — `--ref` times the same sweep with the fast path off
 * (`ServingConfig::fastSim = false`, the uncached step-at-a-time
 * core) on the same runner and CI fails when the speedup over that
 * reference drops below its floor — so a slower CI machine cannot
 * fail the gate and a faster one cannot hide a regression, unlike the
 * absolute steps/sec floor it replaces.
 *
 * `--devices` scales the alternating eDRAM/SRAM fleet and `--threads`
 * sets the cluster drive loop's worker lanes; with threads > 1 the
 * sweep is additionally timed at `threads = 1` and the report
 * carries a `thread_scaling` section with the speedup (outputs are
 * bit-identical by construction — only wall-clock varies).
 *
 * Cells run serially (never on a ThreadPool): each wall-clock sample
 * must own the machine (the only intra-cell parallelism is the
 * cluster engine's own worker lanes when --threads > 1).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "accel/capacity.hpp"
#include "bench_util.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/arg_parser.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/profile.hpp"

using namespace kelle;

namespace {

/** Peak resident set size in bytes (0 where unsupported). */
double
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage u
    {
    };
    if (getrusage(RUSAGE_SELF, &u) != 0)
        return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(u.ru_maxrss); // bytes
#else
    return static_cast<double>(u.ru_maxrss) * 1024.0; // KiB
#endif
#else
    return 0.0;
#endif
}

/** The bench_cluster knee fleet scaled to n devices: alternating
 *  full-pool eDRAM and half-pool SRAM. */
std::vector<cluster::DeviceSpec>
kneeFleet(const model::ModelConfig &m, std::size_t n)
{
    const auto edram_sys = accel::kelleEdramSystem(2048);
    accel::CapacitySpec spec;
    spec.dramCapacity = edram_sys.tech.dram.capacity();
    spec.weightBits = edram_sys.tech.weightBits;
    spec.kvBits = edram_sys.kv.kvBits;
    const std::size_t edram_pool =
        accel::maxSupportedTokens(m, spec).maxTokens;
    return cluster::heteroEdramSramFleet(n, 2048, edram_pool,
                                         edram_pool / 2, 16);
}

struct CellResult
{
    std::string dispatch;
    double wallSec = 0.0;
    std::size_t completed = 0;
    std::uint64_t engineSteps = 0;
    std::uint64_t fastForwarded = 0;
    accel::StepCostCache::Stats cache;
};

CellResult
runCell(const cluster::ClusterConfig &base,
        cluster::DispatchKind dispatch)
{
    cluster::ClusterConfig cfg = base;
    cfg.dispatch = dispatch;
    const auto t0 = std::chrono::steady_clock::now();
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport rep = engine.run();
    const auto t1 = std::chrono::steady_clock::now();

    CellResult c;
    c.dispatch = toString(dispatch);
    c.wallSec = std::chrono::duration<double>(t1 - t0).count();
    c.completed = rep.aggregate.summary.completed;
    for (std::size_t i = 0; i < engine.deviceCount(); ++i) {
        c.engineSteps += engine.device(i).engineSteps();
        c.fastForwarded += engine.device(i).fastForwardedSteps();
        c.cache += engine.device(i).costCacheStats();
    }
    return c;
}

struct Aggregate
{
    double wallSec = 0.0;
    std::size_t completed = 0;
    std::uint64_t engineSteps = 0;
    std::uint64_t fastForwarded = 0;
    accel::StepCostCache::Stats cache;

    void
    add(const CellResult &c)
    {
        wallSec += c.wallSec;
        completed += c.completed;
        engineSteps += c.engineSteps;
        fastForwarded += c.fastForwarded;
        cache += c.cache;
    }
    double
    requestsPerSec() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(completed) / wallSec
                   : 0.0;
    }
    double
    stepsPerSec() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(engineSteps) / wallSec
                   : 0.0;
    }
    double
    fastForwardShare() const
    {
        return engineSteps
                   ? static_cast<double>(fastForwarded) /
                         static_cast<double>(engineSteps)
                   : 0.0;
    }
};

void
writeJson(const std::string &path, const cluster::ClusterConfig &base,
          bool quick, const std::vector<CellResult> &cells,
          const Aggregate &fast, const Aggregate *ref,
          const Aggregate *serial, const obs::PhaseProfiler &prof)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"schema\": \"kelle.bench_simspeed/v3\",\n");
    std::fprintf(f,
                 "  \"config\": {\"devices\": %zu, \"hetero\": true, "
                 "\"threads\": %zu, \"hardware_threads\": %zu, "
                 "\"requests\": %zu, \"rate_per_sec\": %.6g, "
                 "\"seed\": %llu, \"policy\": \"%s\", "
                 "\"quick\": %s},\n",
                 base.devices.size(), base.threads,
                 common::defaultParallelism(),
                 base.engine.traffic.numRequests,
                 base.engine.traffic.ratePerSec,
                 static_cast<unsigned long long>(
                     base.engine.traffic.seed),
                 toString(base.engine.policy).c_str(),
                 quick ? "true" : "false");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        std::fprintf(
            f,
            "    {\"dispatch\": \"%s\", \"wall_sec\": %.6f, "
            "\"completed\": %zu, \"engine_steps\": %llu, "
            "\"fast_forwarded\": %llu, \"cache_hits\": %llu, "
            "\"cache_misses\": %llu, \"cache_hit_rate\": %.4f}%s\n",
            c.dispatch.c_str(), c.wallSec, c.completed,
            static_cast<unsigned long long>(c.engineSteps),
            static_cast<unsigned long long>(c.fastForwarded),
            static_cast<unsigned long long>(c.cache.hits),
            static_cast<unsigned long long>(c.cache.misses),
            c.cache.hitRate(), i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"aggregate\": {\"wall_sec\": %.6f, "
        "\"simulated_requests_per_sec\": %.1f, "
        "\"engine_steps_per_sec\": %.1f, "
        "\"cost_cache_hit_rate\": %.4f, "
        "\"fast_forward_share\": %.4f}",
        fast.wallSec, fast.requestsPerSec(), fast.stepsPerSec(),
        fast.cache.hitRate(), fast.fastForwardShare());
    if (ref != nullptr) {
        std::fprintf(
            f,
            ",\n  \"reference\": {\"wall_sec\": %.6f, "
            "\"simulated_requests_per_sec\": %.1f, "
            "\"engine_steps_per_sec\": %.1f, "
            "\"speedup\": %.2f}",
            ref->wallSec, ref->requestsPerSec(), ref->stepsPerSec(),
            ref->wallSec > 0.0 && fast.wallSec > 0.0
                ? ref->wallSec / fast.wallSec
                : 0.0);
    }
    if (serial != nullptr) {
        std::fprintf(
            f,
            ",\n  \"thread_scaling\": {\"threads\": %zu, "
            "\"serial_wall_sec\": %.6f, "
            "\"serial_engine_steps_per_sec\": %.1f, "
            "\"speedup\": %.2f}",
            base.threads, serial->wallSec, serial->stepsPerSec(),
            serial->wallSec > 0.0 && fast.wallSec > 0.0
                ? serial->wallSec / fast.wallSec
                : 0.0);
    }
    std::fprintf(f, ",\n  \"phases\": {");
    bool first_phase = true;
    for (std::size_t p = 0; p < obs::PhaseProfiler::kPhases; ++p) {
        const auto ph = static_cast<obs::PhaseProfiler::Phase>(p);
        if (prof.count(ph) == 0)
            continue;
        std::fprintf(f,
                     "%s\n    \"%s\": {\"wall_sec\": %.6f, "
                     "\"count\": %llu}",
                     first_phase ? "" : ",",
                     obs::PhaseProfiler::phaseName(ph),
                     prof.seconds(ph),
                     static_cast<unsigned long long>(prof.count(ph)));
        first_phase = false;
    }
    std::fprintf(f, "\n  }");
    std::fprintf(f, ",\n  \"peak_rss_bytes\": %.0f\n}\n",
                 peakRssBytes());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    common::ArgParser args(
        "bench_simspeed",
        "simulator wall-clock throughput on the 2-device hetero knee "
        "sweep (emits BENCH_simspeed.json)");
    args.addInt("requests", 0,
                "trace length per cell (0 = 4000, or 800 with "
                "--quick; an explicit value always wins)");
    args.addDouble("rate", 0.03,
                   "mean arrival rate in req/s (the 2-device hetero "
                   "knee of bench_cluster's study)");
    args.addInt("devices", 2,
                "fleet size (alternating eDRAM/SRAM knee fleet)");
    args.addInt("threads", 1,
                "worker lanes per cluster run (1 = one lane, run "
                "inline, 0 = hardware threads); outputs stay "
                "bit-identical — with threads > 1 the sweep is also "
                "timed on one lane and the report gains a "
                "thread_scaling section");
    args.addInt("seed", 42, "arrival-trace seed");
    args.addString("policy", "contbatch",
                   "per-device scheduling policy: " +
                       serving::schedulePolicyNames());
    args.addBool("quick", false,
                 "CI-sized run (800 requests per cell)");
    args.addBool("ref", false,
                 "also time the sweep with the fast path off and "
                 "report the speedup");
    args.addString("json", "BENCH_simspeed.json",
                   "output path for the JSON report");
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

    cluster::ClusterConfig base;
    base.engine.traffic.ratePerSec = args.getDouble("rate");
    const std::size_t explicit_requests = args.getSize("requests");
    base.engine.traffic.numRequests =
        explicit_requests ? explicit_requests
                          : (args.getBool("quick") ? 800 : 4000);
    base.engine.traffic.seed =
        static_cast<std::uint64_t>(args.getInt("seed"));
    base.engine.policy = policy;
    base.devices =
        kneeFleet(base.engine.model,
                  std::max<std::size_t>(1, args.getSize("devices")));
    base.threads = args.getSize("threads");

    bench::banner(
        "Sim throughput: " + std::to_string(base.devices.size()) +
        "-device hetero knee sweep, " +
        std::to_string(base.engine.traffic.numRequests) +
        " requests/cell at " +
        Table::num(base.engine.traffic.ratePerSec, 4) +
        " req/s, policy " + toString(base.engine.policy) + ", " +
        std::to_string(base.threads) + " worker lane(s), seed " +
        std::to_string(base.engine.traffic.seed));

    // Self-profile the fast sweep only: the serial and reference
    // sweeps below run with the profiler detached so the phase table
    // attributes every second to the configuration being reported.
    obs::PhaseProfiler prof;
    base.engine.profiler = &prof;

    const auto dispatches = cluster::allDispatchPolicies();
    std::vector<CellResult> cells;
    Aggregate fast;
    Table t({"dispatch", "wall", "done", "engine steps", "steps/s",
             "req/s", "cache hit", "fast-forwarded"});
    for (const auto d : dispatches) {
        CellResult c = runCell(base, d);
        fast.add(c);
        t.addRow({c.dispatch, Table::num(c.wallSec, 3) + " s",
                  std::to_string(c.completed),
                  std::to_string(c.engineSteps),
                  Table::num(c.engineSteps /
                                 std::max(c.wallSec, 1e-9),
                             0),
                  Table::num(c.completed / std::max(c.wallSec, 1e-9),
                             0),
                  Table::pct(c.cache.hitRate()),
                  Table::pct(c.engineSteps
                                 ? static_cast<double>(
                                       c.fastForwarded) /
                                       static_cast<double>(
                                           c.engineSteps)
                                 : 0.0)});
        cells.push_back(std::move(c));
    }
    t.print("wall-clock per cell; simulation outputs are the same "
            "pure function of the flags as bench_cluster's");

    bench::note(
        "aggregate: " + Table::num(fast.requestsPerSec(), 0) +
        " simulated requests/s, " + Table::num(fast.stepsPerSec(), 0) +
        " engine steps/s, cost-cache hit " +
        Table::pct(fast.cache.hitRate()) + ", fast-forwarded " +
        Table::pct(fast.fastForwardShare()) + " of boundaries");

    {
        Table pt({"phase", "wall", "count", "share"});
        const double total = prof.totalSeconds();
        for (std::size_t p = 0; p < obs::PhaseProfiler::kPhases;
             ++p) {
            const auto ph =
                static_cast<obs::PhaseProfiler::Phase>(p);
            if (prof.count(ph) == 0)
                continue;
            pt.addRow({obs::PhaseProfiler::phaseName(ph),
                       Table::num(prof.seconds(ph), 3) + " s",
                       std::to_string(prof.count(ph)),
                       Table::pct(total > 0.0
                                      ? prof.seconds(ph) / total
                                      : 0.0)});
        }
        pt.print("engine self-profile of the fast sweep; "
                 "fast_forward counts replayed boundaries, window "
                 "time sums across worker lanes");
    }

    Aggregate serial;
    const bool with_scaling = base.threads != 1;
    if (with_scaling) {
        cluster::ClusterConfig one = base;
        one.threads = 1;
        one.engine.profiler = nullptr;
        bench::banner("Thread scaling: the same sweep on one lane, "
                      "run inline");
        Table st({"dispatch", "wall", "steps/s"});
        for (const auto d : dispatches) {
            CellResult c = runCell(one, d);
            serial.add(c);
            st.addRow({c.dispatch, Table::num(c.wallSec, 3) + " s",
                       Table::num(c.engineSteps /
                                      std::max(c.wallSec, 1e-9),
                                  0)});
        }
        st.print("bit-identical outputs; only wall-clock differs");
        bench::note("thread scaling at " +
                    std::to_string(base.threads) + " lanes: " +
                    Table::mult(serial.wallSec /
                                std::max(fast.wallSec, 1e-9)));
    }

    Aggregate ref;
    const bool with_ref = args.getBool("ref");
    if (with_ref) {
        cluster::ClusterConfig slow = base;
        slow.engine.fastSim = false;
        slow.engine.profiler = nullptr;
        bench::banner("Reference: fast path off (uncached "
                      "step-at-a-time core)");
        Table rt({"dispatch", "wall", "steps/s"});
        for (const auto d : dispatches) {
            CellResult c = runCell(slow, d);
            ref.add(c);
            rt.addRow({c.dispatch, Table::num(c.wallSec, 3) + " s",
                       Table::num(c.engineSteps /
                                      std::max(c.wallSec, 1e-9),
                                  0)});
        }
        rt.print("same traces, same outputs, no memoization or "
                 "fast-forward");
        bench::note("fast path speedup: " +
                    Table::mult(ref.wallSec /
                                std::max(fast.wallSec, 1e-9)));
    }

    writeJson(args.getString("json"), base, args.getBool("quick"),
              cells, fast, with_ref ? &ref : nullptr,
              with_scaling ? &serial : nullptr, prof);
    return 0;
}
