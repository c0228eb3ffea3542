/**
 * @file
 * kelle_bench: the repository benchmark (see benchmark/README.md).
 *
 *   kelle_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *               [--smoke] [--trace-out F]
 *
 * One workload per process, so peak RSS is per workload. The run:
 *  1. an untimed warm-up rep on the rep-0 trace;
 *  2. timed reps for `--seconds` (at least kSimReps), one cell after
 *     another from one client: closed loop on the host, open loop in
 *     simulated time. Rep r runs trace repSeed(N, r). Each rep is
 *     followed by one fresh `--setup-only` process, timed from spawn
 *     to exit (setup_s is their median). Each cell's and set-up's host
 *     time is scaled by a calibration kernel timed on either side;
 *  3. the correctness gate: conservation in every cell of every rep,
 *     timed rep 0 bit-equal to the warm-up, the rep-0 headline cell
 *     bit-equal with fastSim off and on 1 and 2 cluster lanes, traced
 *     reps bit-equal to the untraced reps of the same traces;
 *  4. with `--trace 1`, the accel micro-timings and kTracedReps traced
 *     reps (spans, PhaseProfiler, LatencyWaterfall on every cell).
 *
 * Prints every metric as `workload metric value unit`, then one JSON
 * line {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
 * Exits 1 when a correctness check fails.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "obs/attribution.hpp"
#include "obs/profile.hpp"
#include "sim/experiments.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace kelle;
using namespace kelle::benchmark;

namespace {

using Clock = std::chrono::steady_clock;

/** Timed reps (distinct traces) the sim_* metrics take the mean over;
 *  a run makes at least this many. With the median of 16 traces, the
 *  bursty workload's goodput still spread 3.9% between seeds. */
constexpr std::size_t kSimReps = 40;
/** Traced reps after the timed ones (never in end-to-end metrics). */
constexpr std::size_t kTracedReps = 5;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage u
    {
    };
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Instrumentation threaded through a traced rep. */
struct TraceHooks
{
    SpanRecorder *spans;
    obs::PhaseProfiler *profiler;
    obs::LatencyWaterfall *waterfall;
};

constexpr double kCalibrationNominalSec = 0.004;
volatile double calibrationSink = 0.0;

/**
 * Calibration kernel: a fixed, allocation-free mix of the host work the
 * simulator does (random probes into a 4 MiB table, binary-heap pushes
 * and pops, floating-point math) that shares no code with the library.
 * Run between cells it takes about 5 ms on the 4-vCPU Xeon VM the
 * baseline was recorded on; its measured time tracks how fast the
 * machine runs right now.
 */
double
calibrationSeconds()
{
    static std::array<std::uint64_t, 1 << 19> table;
    static std::array<double, 1 << 15> heap;
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    double acc = 0.0;
    for (int i = 0; i < (1 << 17); ++i) {
        std::uint64_t &slot = table[next() & (table.size() - 1)];
        slot += x >> 32;
        acc += std::sqrt(static_cast<double>(slot & 0xffff));
    }
    for (std::size_t n = 0; n < heap.size(); ++n) {
        heap[n] = static_cast<double>(next() >> 11);
        std::push_heap(heap.begin(), heap.begin() + n + 1);
    }
    for (std::size_t n = heap.size(); n > 0; --n) {
        std::pop_heap(heap.begin(), heap.begin() + n);
        acc += heap[n - 1] * 1e-20;
    }
    calibrationSink = acc;
    return since(t0);
}

/**
 * How much more the simulator slows than the calibration kernel when
 * other tenants load the machine. Fitted on knee_ladder: over four
 * probes of 4-15 minutes, scaling by (nominal / kernel)^1.25 rather than
 * ^1 narrowed the range of 10- or 20-rep median times by 23-42% in each.
 */
constexpr double kContentionExponent = 1.25;

/**
 * Scales host times to nominal seconds: the seconds on a machine where
 * the calibration kernel takes kCalibrationNominalSec. Each time is
 * scaled by the mean of the kernel times measured right before and
 * right after it, raised to kContentionExponent, so a machine-wide
 * slowdown (other tenants of a shared host) largely cancels out. Timing
 * the kernel after every cell rather than every rep makes it sample the
 * same stretch of time the rep ran in.
 */
class Calibrator
{
  public:
    Calibrator()
    {
        calibrationSeconds(); // first touch of its tables
        last_ = calibrationSeconds();
    }

    /** `sec`, measured since the previous call (or construction), in
     *  nominal seconds. */
    double
    nominal(double sec)
    {
        const double next = calibrationSeconds();
        kernelSec_.push_back(next);
        const double scaled =
            sec * std::pow(2.0 * kCalibrationNominalSec / (last_ + next),
                           kContentionExponent);
        last_ = next;
        return scaled;
    }

    /** Median kernel time so far: how fast the machine ran. */
    double medianKernelSec() const { return quantile(kernelSec_, 0.5); }

  private:
    double last_ = 0.0;
    std::vector<double> kernelSec_;
};

/** Everything one rep (every cell once, in order) produced. */
struct RepTotals
{
    double wallSec = 0.0;
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    bool conserved = true;
    std::vector<std::uint64_t> digests;
    std::uint64_t steps = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0;
    std::uint64_t fastForwarded = 0;
    accel::StepCostCache::Stats cache;
    std::uint64_t deferrals = 0;
    std::uint64_t shrunkGrants = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t preemptions = 0;
    std::vector<double> sloAttainment; ///< per cell
    CellResult headline;
};

/** Run every cell once on trace `seed`. With `cal`, `wallSec` sums the
 *  cells' nominal times; without, their raw times. */
RepTotals
runRep(const Workload &w, std::uint64_t seed, Calibrator *cal,
       const TraceHooks *hooks = nullptr)
{
    RepTotals t;
    SpanRecorder *spans = hooks != nullptr ? hooks->spans : nullptr;
    SpanScope rep(spans, "rep", 0);
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        cluster::ClusterConfig cfg = w.cells[i];
        cfg.engine.traffic.seed = seed;
        CellTrace trace;
        if (hooks != nullptr) {
            cfg.engine.profiler = hooks->profiler;
            cfg.engine.waterfall = hooks->waterfall;
            trace = {spans, rep.id(), spans->newCellRun()};
        }
        const auto t0 = Clock::now();
        CellResult c = runCell(cfg, trace);
        const double cell_sec = since(t0);
        {
            SpanScope k(spans, "calibrate", rep.id());
            t.wallSec += cal != nullptr ? cal->nominal(cell_sec) : cell_sec;
        }
        const serving::ServingReport &a = c.report.aggregate;
        t.sent += c.sent;
        t.completed += a.summary.completed;
        t.rejected += a.summary.rejected;
        t.conserved = t.conserved && c.conserved;
        t.digests.push_back(c.digest);
        t.steps += c.steps;
        t.decodeSteps += c.decodeSteps;
        t.prefillChunks += c.prefillChunks;
        t.fastForwarded += c.fastForwarded;
        t.cache += c.cache;
        t.deferrals += a.deferrals;
        t.shrunkGrants += a.shrunkGrants;
        t.bypasses += a.summary.admissionBypasses;
        t.preemptions += a.summary.preemptions;
        t.sloAttainment.push_back(a.summary.sloAttainment);
        if (i == w.headline)
            t.headline = std::move(c);
    }
    return t;
}

/** Median of `fn(rep)` over `reps`. */
template <typename F>
double
medianOver(const std::vector<RepTotals> &reps, F &&fn)
{
    std::vector<double> v;
    for (const RepTotals &r : reps)
        v.push_back(static_cast<double>(fn(r)));
    return quantile(v, 0.5);
}

/**
 * Wall seconds of one fresh `kelle_bench --setup-only` process: exec,
 * static initialisation, the workload's configs (capacity analysis
 * included) and every cell's ClusterEngine constructed. Negative when
 * the child fails.
 */
double
spawnSetupSeconds(const std::string &name, bool smoke)
{
    std::vector<std::string> words = {"kelle_bench", "--workload", name,
                                      "--setup-only"};
    if (smoke)
        words.push_back("--smoke");
    std::vector<char *> argv;
    for (std::string &s : words)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    const auto t0 = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        return -1.0;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1.0;
    return since(t0);
}

/** Median host ns per call of `f`, which makes `calls` calls per
 *  pass; at least 5 passes and 0.1 s. */
template <typename F>
double
nsPerCall(F &&f, std::size_t calls)
{
    std::vector<double> passes;
    const auto start = Clock::now();
    while (passes.size() < 5 || since(start) < 0.1) {
        const auto t0 = Clock::now();
        f();
        passes.push_back(since(t0));
    }
    return quantile(passes, 0.5) / static_cast<double>(calls) * 1e9;
}

/**
 * Uncached accel step costing over a fixed grid: decode batches of
 * B in {1, 4, 16} members at N' in {256, 1024, 2048} resident tokens
 * each, and 256-token prefill chunks at KV offsets {0, 1024, 4096}.
 * A pass runs the grid 100 times so clock reads stay negligible.
 */
void
accelMicroMetrics(SpanRecorder *spans, std::vector<Metric> *out)
{
    const accel::SystemConfig sys = accel::kelleEdramSystem(2048);
    const model::ModelConfig m = model::llama2_7b();
    std::vector<std::vector<std::size_t>> batches;
    for (const std::size_t b : {1, 4, 16})
        for (const std::size_t n : {256, 1024, 2048})
            batches.emplace_back(b, n);
    const std::size_t offsets[] = {0, 1024, 4096};
    constexpr std::size_t kGridsPerPass = 100;
    volatile double sink = 0.0;

    SpanScope micro(spans, "accel.micro", 0);
    double decode_ns = 0.0, prefill_ns = 0.0;
    {
        SpanScope s(spans, "accel.decode_grid", micro.id());
        decode_ns = nsPerCall(
            [&] {
                for (std::size_t i = 0; i < kGridsPerPass; ++i)
                    for (const auto &b : batches)
                        sink = sink +
                               accel::simulateBatchedDecodeStep(sys, m, b)
                                   .latency.sec();
            },
            kGridsPerPass * batches.size());
    }
    {
        SpanScope s(spans, "accel.prefill_grid", micro.id());
        prefill_ns = nsPerCall(
            [&] {
                for (std::size_t i = 0; i < kGridsPerPass; ++i)
                    for (const std::size_t off : offsets)
                        sink = sink + accel::simulatePrefillChunk(
                                          sys, m, off, 256)
                                          .latency.sec();
            },
            kGridsPerPass * std::size(offsets));
    }
    out->push_back({"accel.decode_cost_ns", decode_ns, "ns"});
    out->push_back({"accel.prefill_cost_ns", prefill_ns, "ns"});
}

/**
 * Fig. 13 fidelity against the paper: the five systems on LA/TQ/QP/
 * PG19 with LLaMA2-7B at batch 16. Appends the three end-to-end
 * errors to `e2e` and the per-system / per-step / pie figures to
 * `layer`. The eDRAM-alone and eviction steps of §8.1.3 start from
 * Original+SRAM, so they equal fig13.original_edram and fig13.aep_sram.
 */
void
fig13Metrics(std::vector<Metric> *e2e, std::vector<Metric> *layer)
{
    const model::ModelConfig m = model::llama2_7b();
    const auto tasks = sim::hardwareTasks();
    std::vector<std::vector<sim::SystemResult>> per_task;
    for (const auto &task : tasks)
        per_task.push_back(sim::runFigure13(task, m, 16));
    const double nt = static_cast<double>(tasks.size());

    auto avg = [&](auto &&fn) {
        double s = 0.0;
        for (const auto &r : per_task)
            s += fn(r);
        return s / nt;
    };
    const char *systems[] = {"original_sram", "original_edram",
                             "aep_sram", "aerp_sram", "kelle_edram"};
    for (std::size_t s = 1; s < 5; ++s) {
        const std::string p = std::string("fig13.") + systems[s];
        layer->push_back(
            {p + ".speedup", avg([&](auto &r) { return r[s].speedup; }),
             "x"});
        layer->push_back({p + ".energy_eff", avg([&](auto &r) {
                              return r[s].energyEfficiency;
                          }),
                          "x"});
    }

    // §8.1.3: task-averaged ratios between consecutive systems.
    struct Step
    {
        const char *name;
        std::size_t from, to;
        double paperSpeedup, paperEnergy;
    };
    const Step steps[] = {{"edram", 0, 1, 1.32, 0.72},
                          {"evict", 0, 2, 2.39, 2.41},
                          {"recompute", 2, 3, 1.19, 1.27},
                          {"kelle", 3, 4, 1.29, 1.45}};
    double log_err = 0.0;
    for (const Step &st : steps) {
        const double sp = avg([&](auto &r) {
            return r[st.to].speedup / r[st.from].speedup;
        });
        const double ee = avg([&](auto &r) {
            return r[st.to].energyEfficiency / r[st.from].energyEfficiency;
        });
        log_err += std::fabs(std::log(sp / st.paperSpeedup)) +
                   std::fabs(std::log(ee / st.paperEnergy));
        if (st.from == 0)
            continue;
        const std::string p = std::string("fig13.step.") + st.name;
        layer->push_back({p + ".speedup", sp, "x"});
        layer->push_back({p + ".energy_eff", ee, "x"});
    }

    // Kelle+eDRAM on-chip energy pies (Figure 13 insets).
    auto pie = [&](auto &&part) {
        return avg([&](auto &r) {
            accel::EnergyBreakdown e = r[4].report.prefillEnergy;
            e += r[4].report.decodeEnergy;
            return part(e) / e.onChipTotal().j();
        });
    };
    layer->push_back(
        {"fig13.pie.rsa", pie([](auto &e) { return e.rsa.j(); }),
         "fraction"});
    layer->push_back({"fig13.pie.kv", pie([](auto &e) {
                          return (e.kvMem + e.refresh).j();
                      }),
                      "fraction"});
    layer->push_back({"fig13.pie.sram",
                      pie([](auto &e) { return e.weightSram.j(); }),
                      "fraction"});
    layer->push_back(
        {"fig13.pie.sfu", pie([](auto &e) { return e.sfu.j(); }),
         "fraction"});
    layer->push_back({"fig13.aerp.recomputed_tokens_per_step",
                      avg([](auto &r) {
                          return r[3].report.recomputedTokensPerStep;
                      }),
                      "tokens"});

    e2e->push_back(
        {"fig13_speedup_err",
         std::fabs(avg([](auto &r) { return r[4].speedup; }) / 3.94 - 1.0),
         "fraction"});
    e2e->push_back({"fig13_energy_eff_err",
                    std::fabs(avg([](auto &r) {
                                  return r[4].energyEfficiency;
                              }) / 4.46 -
                              1.0),
                    "fraction"});
    e2e->push_back({"contrib_step_err", log_err / 8.0, "ln"});
}

/**
 * The headline dispatch's SLO-attainment curve over the rate ladder,
 * linearly interpolated at 0.9 (0 when it never crosses 0.9).
 */
double
capacityRps(const Workload &w, const std::vector<double> &slo)
{
    for (std::size_t i = 0; i + 1 < w.ladder.size(); ++i) {
        const double a0 = slo[w.ladder[i]];
        const double a1 = slo[w.ladder[i + 1]];
        const double r0 = w.cells[w.ladder[i]].engine.traffic.ratePerSec;
        const double r1 =
            w.cells[w.ladder[i + 1]].engine.traffic.ratePerSec;
        if (a0 >= 0.9 && a1 < 0.9)
            return r0 + (a0 - 0.9) / (a0 - a1) * (r1 - r0);
    }
    return 0.0;
}

void
printResult(const std::string &workload, bool correct,
            std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Report a failed check on stderr; returns `ok`. */
bool
check(bool ok, const std::string &workload, const char *what)
{
    if (!ok)
        std::fprintf(stderr,
                     "kelle_bench: %s: correctness check failed: %s\n",
                     workload.c_str(), what);
    return ok;
}

/** The per-layer metrics (see benchmark/README.md for the map to the
 *  end-to-end metrics they should move). */
std::vector<Metric>
layerMetrics(const std::vector<RepTotals> &timed,
             const std::vector<RepTotals> &traced, const SpanRecorder &spans,
             const obs::PhaseProfiler &prof, double lane_speedup)
{
    using Phase = obs::PhaseProfiler::Phase;
    const double n_traced = static_cast<double>(traced.size());
    const auto self = spans.selfSeconds();
    auto self_of = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second / n_traced;
    };
    auto phase = [&](Phase p) { return prof.seconds(p) / n_traced; };
    auto phase_count = [&](Phase p) {
        return static_cast<double>(prof.count(p)) / n_traced;
    };
    auto timed_median = [&](auto &&fn) { return medianOver(timed, fn); };
    auto head = [](const RepTotals &r) -> const cluster::ClusterReport & {
        return r.headline.report;
    };
    auto sum = [](const RepTotals &r) -> const serving::ServingSummary & {
        return r.headline.report.aggregate.summary;
    };
    auto paged = [&](const RepTotals &r) -> const serving::PagedPoolStats & {
        return head(r).aggregate.paged;
    };
    auto share = [&](auto &&part) {
        return timed_median([&](const RepTotals &r) {
            const accel::EnergyBreakdown &e = sum(r).energy;
            return ratio(part(e).j(), e.total().j());
        });
    };
    const double run_s = self_of("cluster.run");
    double timed_wall = 0.0, traced_wall = 0.0, traced_steps = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        timed_wall += timed[i].wallSec;
        traced_wall += traced[i].wallSec;
        traced_steps += static_cast<double>(traced[i].steps);
    }

    std::vector<Metric> out = {
        {"cluster.ctor_s", self_of("cluster.ctor"), "s"},
        {"cluster.run_s", run_s, "s"},
        {"cluster.window_s", phase(Phase::Window), "s"},
        {"cluster.windows", phase_count(Phase::Window), "count"},
        {"cluster.serial_round_s", phase(Phase::SerialRound), "s"},
        {"cluster.serial_rounds", phase_count(Phase::SerialRound),
         "count"},
        {"cluster.serial_drive_s", phase(Phase::SerialDrive), "s"},
        {"cluster.load_imbalance_cv",
         timed_median([&](auto &r) { return head(r).loadImbalanceCv; }),
         "ratio"},
        {"cluster.busy_frac_mean", timed_median([&](auto &r) {
             double busy = 0.0;
             for (const auto &d : head(r).devices)
                 busy += ratio(d.busySec, sum(r).makespan.sec());
             return busy / static_cast<double>(head(r).devices.size());
         }),
         "fraction"},
        {"cluster.lane_speedup", lane_speedup, "x"},
        {"engine.steps", timed_median([](auto &r) { return r.steps; }),
         "count"},
        {"engine.decode_steps",
         timed_median([](auto &r) { return r.decodeSteps; }), "count"},
        {"engine.prefill_chunks",
         timed_median([](auto &r) { return r.prefillChunks; }), "count"},
        {"engine.ff_steps",
         timed_median([](auto &r) { return r.fastForwarded; }), "count"},
        {"engine.ff_share", timed_median([](auto &r) {
             return ratio(static_cast<double>(r.fastForwarded),
                          static_cast<double>(r.steps));
         }),
         "fraction"},
        {"engine.queue_boundaries",
         timed_median([](auto &r) { return r.steps - r.fastForwarded; }),
         "count"},
        {"engine.ff_s", phase(Phase::FastForward), "s"},
        {"engine.rollup_s", phase(Phase::RollUp), "s"},
        {"engine.host_ns_per_step",
         ratio(run_s * n_traced, traced_steps) * 1e9, "ns"},
        {"accel.cache_hits",
         timed_median([](auto &r) { return r.cache.hits; }), "count"},
        {"accel.cache_misses",
         timed_median([](auto &r) { return r.cache.misses; }), "count"},
        {"accel.cache_bypasses",
         timed_median([](auto &r) { return r.cache.bypasses; }), "count"},
        {"accel.cache_hit_rate",
         timed_median([](auto &r) { return r.cache.hitRate(); }),
         "fraction"},
    };
    out.insert(
        out.end(),
        {
            {"energy.rsa_share", share([](auto &e) { return e.rsa; }),
             "fraction"},
            {"energy.sfu_share", share([](auto &e) { return e.sfu; }),
             "fraction"},
            {"energy.weight_sram_share",
             share([](auto &e) { return e.weightSram; }), "fraction"},
            {"energy.kv_mem_share", share([](auto &e) { return e.kvMem; }),
             "fraction"},
            {"energy.refresh_share",
             share([](auto &e) { return e.refresh; }), "fraction"},
            {"energy.dram_share", share([](auto &e) { return e.dram; }),
             "fraction"},
            {"energy.leakage_share",
             share([](auto &e) { return e.leakage; }), "fraction"},
            {"admit.deferrals",
             timed_median([](auto &r) { return r.deferrals; }), "count"},
            {"admit.shrunk_grants",
             timed_median([](auto &r) { return r.shrunkGrants; }),
             "count"},
            {"admit.bypasses",
             timed_median([](auto &r) { return r.bypasses; }), "count"},
            {"admit.preemptions",
             timed_median([](auto &r) { return r.preemptions; }), "count"},
            {"admit.mean_budget_frac",
             timed_median([&](auto &r) { return sum(r).meanBudgetFraction; }),
             "fraction"},
            {"admit.mean_queue_depth",
             timed_median([&](auto &r) { return sum(r).meanQueueDepth; }),
             "count"},
            {"admit.max_queue_wait_s",
             timed_median([&](auto &r) { return sum(r).maxQueueWaitSec; }),
             "s"},
            {"kv.pool_peak_util", timed_median([&](auto &r) {
                 return head(r).meanKvPeakUtilization;
             }),
             "fraction"},
            {"kv.peak_logical_tokens", timed_median([&](auto &r) {
                 return head(r).aggregate.peakLogicalTokens;
             }),
             "tokens"},
            {"kv.peak_used_pages",
             timed_median([&](auto &r) { return paged(r).peakUsedPages; }),
             "pages"},
            {"kv.peak_shared_pages",
             timed_median([&](auto &r) { return paged(r).peakSharedPages; }),
             "pages"},
            {"kv.prefix_hit_tokens",
             timed_median([&](auto &r) { return paged(r).prefixHitTokens; }),
             "tokens"},
            {"kv.prefix_hit_share", timed_median([&](auto &r) {
                 return ratio(static_cast<double>(paged(r).prefixHitTokens),
                              static_cast<double>(
                                  r.headline.promptTokens));
             }),
             "fraction"},
            {"kv.cow_copies",
             timed_median([&](auto &r) { return paged(r).cowCopies; }),
             "count"},
            {"kv.cached_reclaims",
             timed_median([&](auto &r) { return paged(r).cachedReclaims; }),
             "count"},
            {"kv.tail_reclaims",
             timed_median([&](auto &r) { return paged(r).tailReclaims; }),
             "count"},
            {"kv.budget_clips",
             timed_median([&](auto &r) { return paged(r).budgetClips; }),
             "count"},
            {"sim_ttft_p99_s",
             timed_median([&](auto &r) { return sum(r).ttftP99; }), "s"},
        });
    for (std::size_t c = 0; c < obs::kLatencyComponentCount; ++c)
        out.push_back(
            {std::string("attr.") +
                 obs::toString(static_cast<obs::LatencyComponent>(c)) +
                 "_s",
             medianOver(traced,
                        [&](const RepTotals &r) {
                            const obs::AttributionReport &a =
                                head(r).aggregate.attribution;
                            return ratio(a.componentTotals[c],
                                         static_cast<double>(a.terminal));
                        }),
             "s"});
    out.push_back({"obs.trace_overhead_frac",
                   traced_wall / timed_wall - 1.0, "fraction"});
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    common::ArgParser args("kelle_bench",
                           "Kelle repository benchmark: one workload per "
                           "process (see benchmark/README.md)");
    args.addString("workload", "",
                   "knee_ladder | fleet16_preempt | sessions_paged");
    args.addInt("seed", 42, "seed of the rep-0 trace; later reps derive "
                            "theirs from it");
    args.addInt("seconds", 15, "host seconds of timed reps");
    args.addBool("trace", false,
                 "also run the traced reps and report the per-layer "
                 "metrics instead of the end-to-end ones");
    args.addBool("smoke", false,
                 "100-request cells, one set-up, one timed and one "
                 "traced rep");
    args.addString("trace-out", "",
                   "write the traced reps' spans here as Chrome "
                   "trace-event JSON (with --trace 1)");
    args.addBool("setup-only", false,
                 "build the workload's configs and engines, then exit "
                 "(the child process setup_s times)");
    if (!args.parse(argc, argv))
        return args.exitCode();

    const std::string name = args.getString("workload");
    const std::uint64_t seed = static_cast<std::uint64_t>(args.getInt("seed"));
    const bool smoke = args.getBool("smoke");
    const double seconds = static_cast<double>(args.getSize("seconds"));
    const std::size_t sim_reps = smoke ? 1 : kSimReps;
    const std::size_t traced_reps = smoke ? 1 : kTracedReps;
    Workload w;
    if (!makeWorkload(name, smoke, &w)) {
        std::fprintf(stderr, "kelle_bench: unknown --workload '%s'\n%s",
                     name.c_str(), args.usage().c_str());
        return 2;
    }
    if (args.getBool("setup-only")) {
        for (const cluster::ClusterConfig &cfg : w.cells)
            cluster::ClusterEngine engine(cfg);
        return 0;
    }

    bool ok = true;
    const RepTotals warm = runRep(w, seed, nullptr);

    // Timed reps: the first sim_reps are kept for the sim_* metrics
    // and the per-layer counters. One set-up process follows each rep,
    // so the set-up samples span the whole run as the rep times do.
    std::vector<RepTotals> timed;
    std::vector<double> rep_wall, setups;
    std::size_t sent = 0, completed = 0, rejected = 0;
    bool conserved = warm.conserved;
    Calibrator cal;
    const auto start = Clock::now();
    for (std::size_t r = 0;
         r < sim_reps || (!smoke && since(start) < seconds); ++r) {
        RepTotals t = runRep(w, repSeed(seed, r), &cal);
        rep_wall.push_back(t.wallSec);
        setups.push_back(cal.nominal(spawnSetupSeconds(name, smoke)));
        sent += t.sent;
        completed += t.completed;
        rejected += t.rejected;
        conserved = conserved && t.conserved;
        if (r < sim_reps)
            timed.push_back(std::move(t));
    }
    // Taken before the gate's reruns: on fleet16_preempt its 1- and
    // 2-lane reruns alone raised the peak from 85 to 105 MB.
    const double peak_rss = peakRssMb();
    ok = check(*std::min_element(setups.begin(), setups.end()) > 0.0, name,
               "set-up process") &&
         ok;
    ok = check(conserved, name, "request conservation") && ok;
    ok = check(timed[0].digests == warm.digests, name,
               "rep 0 bit-equal to the warm-up") &&
         ok;

    cluster::ClusterConfig head = w.cells[w.headline];
    head.engine.traffic.seed = seed;
    const std::uint64_t head_digest = warm.digests[w.headline];
    {
        cluster::ClusterConfig slow = head;
        slow.engine.fastSim = false;
        ok = check(runCell(slow).digest == head_digest, name,
                   "headline cell bit-equal with fastSim off") &&
             ok;
    }
    double lane_sec[3] = {};
    for (const std::size_t lanes : {1, 2}) {
        cluster::ClusterConfig cfg = head;
        cfg.threads = lanes;
        const auto t0 = Clock::now();
        const std::uint64_t digest = runCell(cfg).digest;
        lane_sec[lanes] = since(t0);
        ok = check(digest == head_digest, name,
                   "headline cell bit-equal on 1 and 2 lanes") &&
             ok;
    }
    const double lane_speedup = lane_sec[1] / lane_sec[2];

    auto sim = [&](auto &&fn) {
        double total = 0.0;
        for (const RepTotals &r : timed)
            total += fn(r.headline.report.aggregate.summary);
        return total / static_cast<double>(timed.size());
    };
    if (!w.ladder.empty())
        std::printf("%s info.sim_capacity_rps %.17g req/s\n", name.c_str(),
                    medianOver(timed, [&](const RepTotals &r) {
                        return capacityRps(w, r.sloAttainment);
                    }));

    double wall_sum = 0.0;
    for (const double s : rep_wall)
        wall_sum += s;
    std::vector<Metric> e2e = {
        {"setup_s", quantile(setups, 0.5), "s"},
        {"host_s_p50", quantile(rep_wall, 0.5), "s"},
        {"host_s_p75", quantile(rep_wall, 0.75), "s"},
        {"sim_req_per_s", static_cast<double>(completed) / wall_sum,
         "req/s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"sim_ttft_p50_s", sim([](auto &s) { return s.ttftP50; }), "s"},
        {"sim_tpot_p95_s", sim([](auto &s) { return s.tpotP95; }), "s"},
        {"sim_slo_attainment", sim([](auto &s) { return s.sloAttainment; }),
         "fraction"},
        {"sim_goodput_tok_per_s",
         sim([](auto &s) { return s.goodputTokensPerSec; }), "tok/s"},
        {"sim_energy_mj_per_token",
         sim([](auto &s) { return s.energyPerToken * 1e3; }), "mJ"},
    };
    std::vector<Metric> fig13;
    fig13Metrics(&e2e, &fig13);

    if (!args.getBool("trace")) {
        printResult(name, ok, sent, rejected, e2e);
        return ok ? 0 : 1;
    }

    // ---- Traced reps: per-layer metrics -----------------------------
    SpanRecorder spans;
    obs::PhaseProfiler prof;
    obs::LatencyWaterfall wf;
    const TraceHooks hooks{&spans, &prof, &wf};
    std::vector<Metric> micro;
    accelMicroMetrics(&spans, &micro);
    std::vector<RepTotals> traced;
    bool traced_equal = true;
    Calibrator traced_cal;
    for (std::size_t i = 0; i < traced_reps; ++i) {
        traced.push_back(runRep(w, repSeed(seed, i), &traced_cal, &hooks));
        traced_equal = traced_equal && traced[i].digests == timed[i].digests;
    }
    ok = check(traced_equal, name, "traced reps bit-equal to untraced") &&
         ok;

    std::vector<Metric> layer =
        layerMetrics(timed, traced, spans, prof, lane_speedup);
    layer.insert(layer.end(), micro.begin(), micro.end());
    layer.push_back({"host.calibration_s", cal.medianKernelSec(), "s"});
    layer.insert(layer.end(), fig13.begin(), fig13.end());
    const std::string trace_out = args.getString("trace-out");
    if (!trace_out.empty()) {
        ok = check(spans.writeChromeJson(trace_out), name,
                   "writing --trace-out") &&
             ok;
        std::printf("%s info.trace_out %s\n", name.c_str(),
                    trace_out.c_str());
    }
    printResult(name, ok, sent, rejected, layer);
    return ok ? 0 : 1;
}
