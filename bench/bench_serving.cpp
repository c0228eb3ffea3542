/**
 * @file
 * Multi-request edge serving: arrival rate x scheduling policy x
 * prefill chunking x eDRAM-vs-SRAM on-chip memory, on the event-driven
 * serving engine (src/serving) over the Section 8 task mix
 * (LA/TQ/QP/PG19).
 *
 * The headline section serves one seeded trace under every selected
 * policy and reports the SLO metrics (TTFT/TPOT latency percentiles,
 * SLO attainment against the per-task deadlines, goodput, admission
 * bypasses, refresh energy). The chunked-prefill study compares
 * monolithic and chunked prefill on the PG19-heavy mix, where long
 * decodes hog the pool and long prompts stall the batch. The sweep
 * section scales the arrival rate from idle to saturating across
 * platform variants and chunk sizes, with independent cells evaluated
 * by common::ThreadPool. Every number is a pure function of the
 * flags; rerunning with the same seed is bit-identical.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/arg_parser.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace kelle;

namespace {

serving::ServingConfig
baseConfig(const common::ArgParser &args)
{
    serving::ServingConfig cfg;
    cfg.traffic.ratePerSec = args.getDouble("rate");
    cfg.traffic.numRequests = args.getSize("requests");
    cfg.traffic.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    cfg.traffic.process = args.getBool("burst")
                              ? serving::ArrivalProcess::Bursty
                              : serving::ArrivalProcess::Poisson;
    if (args.getString("mix") == "pg19")
        cfg.traffic.mix = serving::pg19HeavyMix();
    cfg.maxBatch = args.getSize("maxbatch");
    cfg.chunkSlackFrac = args.getDouble("chunk-slack");
    cfg.budgetOverride = args.getSize("budget");
    cfg.poolTokens = args.getSize("pool");
    cfg.maxEngineSteps = args.getSize("steps");
    cfg.clientRetries =
        static_cast<std::uint32_t>(args.getInt("client-retries"));
    cfg.clientRetryBackoffSec =
        args.getDouble("client-retry-backoff");
    cfg.fastSim = args.getBool("fastsim");
    cfg.traffic.sessions = args.getSize("sessions");
    cfg.traffic.sessionPrefixFrac = args.getDouble("prefix-frac");
    if (args.getBool("paged")) {
        cfg.paged.enabled = true;
        cfg.paged.blockTokens = args.getSize("block-tokens");
        cfg.paged.quantBits = args.getInt("kv-quant");
    }
    return cfg;
}

serving::ServingReport
runCell(serving::ServingConfig cfg, serving::SchedulePolicy policy,
        std::size_t chunk_tokens)
{
    cfg.policy = policy;
    cfg.chunkTokens = chunk_tokens;
    return cluster::ClusterEngine(
               cluster::clusterConfigFrom(
                   cfg, 1, cluster::DispatchKind::RoundRobin))
        .run()
        .aggregate;
}

std::string
chunkLabel(std::size_t chunk)
{
    return chunk == 0 ? "whole" : std::to_string(chunk);
}

void
addSummaryRow(Table &t, const std::string &label, std::size_t chunk,
              const serving::ServingReport &rep)
{
    const auto &s = rep.summary;
    t.addRow({label, chunkLabel(chunk), std::to_string(s.completed),
              std::to_string(s.rejected),
              toString(Time::seconds(s.ttftP50)),
              toString(Time::seconds(s.ttftP95)),
              toString(Time::seconds(s.tpotMean)),
              toString(Time::seconds(s.tokenGapP95)),
              Table::pct(s.sloTtftAttainment),
              Table::pct(s.sloAttainment),
              Table::num(s.goodputTokensPerSec, 1),
              std::to_string(s.admissionBypasses),
              toString(Time::seconds(s.maxQueueWaitSec)),
              Table::pct(rep.poolPeakBytes /
                         std::max(rep.poolCapacityBytes, 1.0)),
              Table::pct(s.meanBudgetFraction),
              toString(Energy::joules(s.energyPerToken))});
}

} // namespace

int
main(int argc, char **argv)
{
    common::ArgParser args(
        "bench_serving",
        "event-driven multi-request serving: rate x policy x chunking "
        "x memory");
    args.addDouble("rate", 0.02, "mean arrival rate in req/s");
    args.addString("policy", "all",
                   serving::schedulePolicyNames() + " | both | all");
    args.addInt("chunk-tokens", 256,
                "prefill chunk size for the chunked study/sweep cells; "
                "passing the flag explicitly applies it to the "
                "headline too (0 disables chunking everywhere)");
    args.addDouble("chunk-slack", 0.0,
                   "edf-chunked slack-aware alternation: run "
                   "consecutive chunks when the prefilling request's "
                   "TTFT slack is below this fraction of its budget "
                   "(0 = unconditional alternation)");
    args.addInt("budget", 0, "per-request KV budget N' (0 = task N')");
    args.addInt("seed", 42, "arrival-trace seed");
    args.addInt("steps", 0, "max engine steps (0 = run to completion)");
    args.addInt("requests", 64, "trace length in requests");
    args.addBool("burst", false, "bursty (MMPP) arrivals");
    args.addInt("client-retries", 0,
                "client-side resubmits of an overload-rejected "
                "request after a jittered backoff (0 = reject is "
                "final; the base arrival trace is unchanged)");
    args.addDouble("client-retry-backoff", 5.0,
                   "client retry backoff base, seconds (doubles per "
                   "attempt, seeded jitter)");
    args.addInt("maxbatch", 16, "continuous-batching batch cap");
    args.addInt("pool", 0, "KV pool tokens (0 = capacity analysis)");
    args.addString("mix", "even",
                   "task mix: even | pg19 (PG19-heavy)");
    args.addDouble("slo-scale", 1.0,
                   "scale the default TTFT/TPOT deadlines");
    args.addBool("study", true,
                 "run the chunked-prefill study (PG19-heavy mix)");
    args.addBool("sweep", true,
                 "run the rate x policy x chunk x memory sweep");
    args.addBool("fastsim", true,
                 "fast-forward silent decode windows (off replays "
                 "every boundary as an event; output is identical)");
    args.addBool("paged", false,
                 "paged KV pool: page-granular admission/eviction with "
                 "copy-free shared prefixes (adds the contiguous-vs-"
                 "paged comparison section)");
    args.addInt("block-tokens", 64, "paged mode: tokens per KV page");
    args.addInt("kv-quant", 0,
                "paged mode: stored KV bits per value (0 = system "
                "default; 8/4 shrink pages through group quantization)");
    args.addInt("sessions", 0,
                "multi-turn sessions sharing a system prompt per task "
                "class (0 = every prompt unique)");
    args.addDouble("prefix-frac", 0.5,
                   "fraction of each prompt covered by the shared "
                   "session prefix");
    args.addString("trace-out", "",
                   "write the first headline policy's request-"
                   "lifecycle trace as Chrome trace-event JSON "
                   "(Perfetto)");
    args.addString("metrics-out", "",
                   "dump the first headline policy's metrics registry "
                   "(.csv = sampled time series, else JSON)");
    args.addDouble("metrics-interval", 60.0,
                   "time-series sampling interval for --metrics-out "
                   "CSV, sim seconds");
    args.addBool("attribution", false,
                 "per-request latency waterfalls on the first "
                 "headline policy: print the SLO miss-cause "
                 "breakdown, add attribution.* metrics to "
                 "--metrics-out and SLO targets to --trace-out");
    if (!args.parse(argc, argv))
        return args.exitCode();

    const std::string mix_text = args.getString("mix");
    if (mix_text != "even" && mix_text != "pg19") {
        std::fprintf(stderr, "unknown --mix '%s' (even|pg19)\n",
                     mix_text.c_str());
        return 1;
    }
    for (const char *flag : {"block-tokens", "maxbatch"}) {
        if (!bench::atLeastOne(args, flag))
            return 1;
    }
    for (const char *flag : {"rate", "slo-scale"}) {
        if (!bench::positiveFinite(args, flag))
            return 1;
    }
    const long long kv_quant = args.getInt("kv-quant");
    if (kv_quant != 0 && kv_quant != 4 && kv_quant != 8) {
        std::fprintf(stderr, "unsupported --kv-quant %lld (0|4|8)\n",
                     kv_quant);
        return 1;
    }

    std::vector<serving::SchedulePolicy> policies;
    const std::string policy_text = args.getString("policy");
    if (policy_text == "all") {
        policies = serving::allSchedulePolicies();
    } else if (policy_text == "both") {
        policies = {serving::SchedulePolicy::Fcfs,
                    serving::SchedulePolicy::ContinuousBatching};
    } else {
        serving::SchedulePolicy p;
        if (!serving::parseSchedulePolicy(policy_text, &p)) {
            std::fprintf(stderr,
                         "unknown --policy '%s' (%s|both|all)\n",
                         policy_text.c_str(),
                         serving::schedulePolicyNames().c_str());
            return 1;
        }
        policies = {p};
    }

    serving::ServingConfig base = baseConfig(args);
    const double slo_scale = args.getDouble("slo-scale");
    base.traffic.slo.ttftBaseSec *= slo_scale;
    base.traffic.slo.ttftPerCtxTokenSec *= slo_scale;
    base.traffic.slo.tpotSec *= slo_scale;
    const std::size_t chunk = args.getSize("chunk-tokens");

    bench::banner("Serving: " + std::to_string(base.traffic.numRequests) +
                  " requests, rate " +
                  Table::num(base.traffic.ratePerSec, 4) + " req/s (" +
                  Table::num(serving::offeredTokensPerSec(base.traffic),
                             1) +
                  " tok/s offered), " + toString(base.traffic.process) +
                  " arrivals, " + mix_text + " mix, seed " +
                  std::to_string(base.traffic.seed));

    const std::vector<std::string> kSummaryHeader = {
        "policy", "chunk", "done", "rej", "TTFT p50", "TTFT p95",
        "TPOT", "stall p95", "SLO ttft", "SLO all", "goodput tok/s",
        "bypass", "max wait", "pool peak", "N' kept", "E/token"};

    // ---- Headline: every policy on the same trace. Default runs are
    // monolithic (chunking is studied separately below); an explicit
    // --chunk-tokens applies here too. ------------------------------
    const std::size_t headline_chunk =
        args.provided("chunk-tokens") ? chunk : 0;
    // The trace recorder rides on the first policy cell only: each
    // cell runs on its own pool lane, so exactly one lane ever
    // touches the recorder.
    const std::string trace_out = args.getString("trace-out");
    const std::string metrics_out = args.getString("metrics-out");
    obs::TraceRecorder recorder;
    obs::LatencyWaterfall waterfall;
    const bool attribution = args.getBool("attribution");
    const bool record = !trace_out.empty() || !metrics_out.empty();
    std::vector<serving::ServingReport> runs(policies.size());
    common::ThreadPool lanes(
        std::min(policies.size(), common::defaultParallelism()));
    lanes.forEach(policies.size(), [&](std::size_t i) {
        serving::ServingConfig cfg = base;
        if (i == 0 && record)
            cfg.trace = &recorder;
        if (i == 0 && attribution)
            cfg.waterfall = &waterfall;
        runs[i] = runCell(cfg, policies[i], headline_chunk);
    });
    Table headline(kSummaryHeader);
    for (std::size_t i = 0; i < policies.size(); ++i)
        addSummaryRow(headline, toString(policies[i]), headline_chunk,
                      runs[i]);
    headline.print(
        "system " + base.system.name + ", model " + base.model.name +
        ", KV pool " + std::to_string(runs.front().poolTokens) +
        " tokens, TTFT deadline " +
        Table::num(base.traffic.slo.ttftBaseSec, 0) + "s + " +
        Table::num(base.traffic.slo.ttftPerCtxTokenSec * 1e3, 0) +
        "ms/ctx-token, TPOT " +
        Table::num(base.traffic.slo.tpotSec * 1e3, 0) + "ms");

    if (attribution)
        bench::printAttribution(runs.front().attribution, {},
                                toString(policies.front()) +
                                    " policy");

    if (!trace_out.empty()) {
        if (recorder.writeJson(trace_out))
            std::printf("\nwrote trace: %s (%s policy; load at "
                        "https://ui.perfetto.dev)\n",
                        trace_out.c_str(),
                        toString(policies.front()).c_str());
    }
    if (!metrics_out.empty()) {
        obs::MetricsRegistry reg;
        reg.setGauge("serving.completed",
                     static_cast<double>(runs.front().summary.completed));
        reg.setGauge("serving.rejected",
                     static_cast<double>(runs.front().summary.rejected));
        reg.setGauge("serving.goodput_tok_per_s",
                     runs.front().summary.goodputTokensPerSec);
        reg.setGauge("serving.slo_attainment",
                     runs.front().summary.sloAttainment);
        if (attribution)
            obs::exportAttributionMetrics(waterfall, reg);
        reg.ingestTrace(recorder);
        if (reg.writeFile(metrics_out,
                          args.getDouble("metrics-interval")))
            std::printf("\nwrote metrics: %s\n", metrics_out.c_str());
    }

    // ---- Paged KV pool: contiguous vs paged on the same trace -----
    if (args.getBool("paged")) {
        const serving::SchedulePolicy pol = policies.front();
        serving::ServingConfig contig = base;
        contig.paged = serving::PagedKvConfig{};
        serving::ServingConfig shared_off = base;
        shared_off.paged.sharePrefixes = false;
        // The paged cell records its trace so the prefix-hit column
        // below is read back out of the metrics registry the trace
        // counters feed — the printed figure and a metrics dump
        // cannot diverge.
        obs::TraceRecorder paged_rec;
        serving::ServingConfig paged_cfg = base;
        paged_cfg.trace = &paged_rec;
        const auto c_rep = runCell(contig, pol, headline_chunk);
        const auto n_rep = runCell(shared_off, pol, headline_chunk);
        const auto p_rep = runCell(paged_cfg, pol, headline_chunk);

        obs::MetricsRegistry reg;
        reg.ingestTrace(paged_rec);
        const obs::TimeSeries &hits = reg.series(
            paged_rec.deviceTracks().front()->name() +
            ".kv_prefix_hit_tokens");
        reg.setGauge("paged.prefix_hit_tokens",
                     hits.valueAt(hits.endSec(), 0.0));

        bench::banner(
            "Paged KV pool: contiguous vs paged, policy " +
            toString(pol) + ", block " +
            std::to_string(base.paged.blockTokens) + " tokens" +
            (base.paged.quantBits > 0
                 ? ", INT" + std::to_string(base.paged.quantBits) +
                       " pages"
                 : "") +
            (base.traffic.sessions > 0
                 ? ", " + std::to_string(base.traffic.sessions) +
                       " sessions"
                 : ""));
        Table t({"mode", "done", "rej", "TTFT p95", "SLO all",
                 "goodput tok/s", "peak resident N'", "pool pages",
                 "peak pages", "shared peak", "prefix-hit tok", "CoW",
                 "clips"});
        const auto addPagedRow =
            [&t](const std::string &mode,
                 const serving::ServingReport &rep,
                 double hit_tokens) {
                const auto &s = rep.summary;
                t.addRow(
                    {mode, std::to_string(s.completed),
                     std::to_string(s.rejected),
                     toString(Time::seconds(s.ttftP95)),
                     Table::pct(s.sloAttainment),
                     Table::num(s.goodputTokensPerSec, 1),
                     std::to_string(rep.peakLogicalTokens),
                     rep.paged.enabled
                         ? std::to_string(rep.paged.totalPages)
                         : "-",
                     rep.paged.enabled
                         ? std::to_string(rep.paged.peakUsedPages)
                         : "-",
                     rep.paged.enabled
                         ? std::to_string(rep.paged.peakSharedPages)
                         : "-",
                     rep.paged.enabled
                         ? Table::num(hit_tokens, 0)
                         : "-",
                     rep.paged.enabled
                         ? std::to_string(rep.paged.cowCopies)
                         : "-",
                     rep.paged.enabled
                         ? std::to_string(rep.paged.budgetClips)
                         : "-"});
            };
        addPagedRow("contiguous", c_rep, 0.0);
        addPagedRow("paged", n_rep,
                    static_cast<double>(n_rep.paged.prefixHitTokens));
        addPagedRow("paged+shared", p_rep,
                    reg.gauge("paged.prefix_hit_tokens", 0.0));
        t.print("same trace per row; 'peak resident N'' is the peak "
                "sum of live grants' logical budgets (shared prefix "
                "pages are stored once but granted to every sharer)");
        const double mult =
            static_cast<double>(p_rep.peakLogicalTokens) /
            std::max<double>(1.0,
                             static_cast<double>(
                                 c_rep.peakLogicalTokens));
        bench::note(
            "paged+shared holds " + Table::mult(mult) +
            " the contiguous peak resident tokens (" +
            std::to_string(p_rep.peakLogicalTokens) + " vs " +
            std::to_string(c_rep.peakLogicalTokens) + "); " +
            // No pool harvests tail pages any more, so both counts
            // read 0; the wording is pinned by a golden digest.
            std::to_string(p_rep.paged.tailReclaims) +
            " tail reclaims freed 0 pages, " +
            std::to_string(p_rep.paged.cachedReclaims) +
            " cached prefixes evicted");
    }

    // ---- Chunked-prefill study: PG19-heavy mix, where long decodes
    // hog the KV pool and long prompts stall the batch. -------------
    if (args.getBool("study") && chunk > 0) {
        struct StudyCase
        {
            serving::SchedulePolicy policy;
            std::size_t chunk;
        };
        const std::vector<StudyCase> cases = {
            {serving::SchedulePolicy::ContinuousBatching, 0},
            {serving::SchedulePolicy::ContinuousBatching, chunk},
            {serving::SchedulePolicy::SjfWithinDeadline, chunk},
            {serving::SchedulePolicy::EdfChunked, 0},
            {serving::SchedulePolicy::EdfChunked, chunk},
        };
        // The comparison notes below contrast these two cells; derive
        // the indices so reordering `cases` cannot silently decouple
        // them.
        auto caseIndex = [&cases](serving::SchedulePolicy p,
                                  std::size_t c) {
            for (std::size_t i = 0; i < cases.size(); ++i)
                if (cases[i].policy == p && cases[i].chunk == c)
                    return i;
            KELLE_ASSERT(false, "study case missing: ", toString(p),
                         " chunk ", c);
            return cases.size();
        };
        const std::size_t cb_mono_idx = caseIndex(
            serving::SchedulePolicy::ContinuousBatching, 0);
        const std::size_t edf_chunked_idx =
            caseIndex(serving::SchedulePolicy::EdfChunked, chunk);
        // The knee (0.3x) keeps the TTFT tail transient queue jitter;
        // 1x is steady-state overload on this mix.
        const std::vector<std::pair<std::string, double>> regimes = {
            {"saturation knee", 0.3},
            {"overload", 1.0},
        };
        for (const auto &[regime, rate_scale] : regimes) {
            serving::ServingConfig study = base;
            study.traffic.mix = serving::pg19HeavyMix();
            study.traffic.ratePerSec *= rate_scale;
            std::vector<serving::ServingReport> reps(cases.size());
            common::ThreadPool lanes(
                std::min(cases.size(), common::defaultParallelism()));
            lanes.forEach(cases.size(), [&](std::size_t i) {
                reps[i] =
                    runCell(study, cases[i].policy, cases[i].chunk);
            });

            bench::banner(
                "Chunked prefill study: PG19-heavy mix, chunk " +
                std::to_string(chunk) + " tokens, " + regime +
                " (rate " + Table::num(study.traffic.ratePerSec, 4) +
                " req/s)");
            Table t(kSummaryHeader);
            for (std::size_t i = 0; i < cases.size(); ++i)
                addSummaryRow(t, toString(cases[i].policy),
                              cases[i].chunk, reps[i]);
            // With the slack-aware knob on, add the unconditional
            // alternation baseline so the recovered TTFT tax is
            // visible in one table.
            if (study.chunkSlackFrac > 0.0) {
                serving::ServingConfig noslack = study;
                noslack.chunkSlackFrac = 0.0;
                const auto base_rep = runCell(
                    noslack, serving::SchedulePolicy::EdfChunked,
                    chunk);
                addSummaryRow(t, "edf-chunked slack0", chunk,
                              base_rep);
                const double tax = base_rep.summary.ttftP95;
                const double rec = reps[edf_chunked_idx].summary.ttftP95;
                bench::note(
                    "slack-aware alternation (frac " +
                    Table::num(study.chunkSlackFrac, 2) +
                    ") p95 TTFT " + toString(Time::seconds(rec)) +
                    " vs unconditional " +
                    toString(Time::seconds(tax)) +
                    (rec < tax ? " - tax recovered" : ""));
            }
            t.print("same trace per row; 'stall p95' is the worst "
                    "decode gap a prefill inflicted on the batch");

            const auto &cb = reps[cb_mono_idx].summary;  // contbatch, monolithic
            const auto &edf = reps[edf_chunked_idx].summary; // edf-chunked, chunked
            if (edf.ttftP95 < cb.ttftP95) {
                bench::note(
                    "edf-chunked (chunk " + std::to_string(chunk) +
                    ") beats monolithic contbatch on p95 TTFT: " +
                    toString(Time::seconds(edf.ttftP95)) + " vs " +
                    toString(Time::seconds(cb.ttftP95)) + " (" +
                    Table::mult(cb.ttftP95 /
                                std::max(edf.ttftP95, 1e-12)) +
                    "); decode stall p95 " +
                    toString(Time::seconds(edf.tokenGapP95)) + " vs " +
                    toString(Time::seconds(cb.tokenGapP95)) +
                    ", SLO attainment " +
                    Table::pct(edf.sloAttainment) + " vs " +
                    Table::pct(cb.sloAttainment));
            } else {
                bench::note("edf-chunked did not beat monolithic "
                            "contbatch on p95 TTFT in this regime");
            }
        }
    }

    // ---- Sweep: arrival rate x policy x chunk x on-chip memory ----
    if (args.getBool("sweep")) {
        struct SystemCase
        {
            std::string label;
            accel::SystemConfig sys;
        };
        std::vector<SystemCase> systems;
        systems.push_back({"Kelle+eDRAM 4MB",
                           accel::kelleEdramSystem(2048)});
        {
            accel::SystemConfig s = accel::kelleEdramSystem(2048);
            s.tech = accel::edramSystemTech(Bytes::mib(8));
            s.name = "Kelle+eDRAM-8MB";
            systems.push_back({"Kelle+eDRAM 8MB", s});
        }
        systems.push_back({"AERP+SRAM 4MB", accel::aerpSramSystem(2048)});

        const std::vector<double> rate_scales = {0.5, 1.0, 2.0};
        std::vector<std::size_t> chunks = {0};
        if (chunk > 0)
            chunks.push_back(chunk);

        struct SweepCell
        {
            const SystemCase *system;
            serving::SchedulePolicy policy;
            double rateScale;
            std::size_t chunk;
        };
        std::vector<SweepCell> cells;
        for (const auto &sc : systems)
            for (auto policy : policies)
                for (double scale : rate_scales)
                    for (std::size_t c : chunks)
                        cells.push_back({&sc, policy, scale, c});

        // Cells are independent and seeded: evaluate them across the
        // machine, print in serial order — bit-identical to a serial
        // sweep.
        std::vector<serving::ServingReport> reps(cells.size());
        common::ThreadPool lanes(
            std::min(cells.size(), common::defaultParallelism()));
        lanes.forEach(cells.size(), [&](std::size_t i) {
            serving::ServingConfig cfg = base;
            cfg.system = cells[i].system->sys;
            cfg.traffic.ratePerSec *= cells[i].rateScale;
            cfg.traffic.numRequests =
                std::min<std::size_t>(cfg.traffic.numRequests, 48);
            reps[i] = runCell(cfg, cells[i].policy, cells[i].chunk);
        });

        bench::banner(
            "Sweep: arrival rate x policy x chunk x on-chip memory");
        Table sweep({"system", "policy", "chunk", "rate req/s",
                     "TTFT p95", "SLO all", "goodput tok/s", "E/token",
                     "refresh share"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cell = cells[i];
            const auto &s = reps[i].summary;
            const double total_j = s.energy.total().j();
            sweep.addRow(
                {cell.system->label, toString(cell.policy),
                 chunkLabel(cell.chunk),
                 Table::num(base.traffic.ratePerSec * cell.rateScale,
                            4),
                 toString(Time::seconds(s.ttftP95)),
                 Table::pct(s.sloAttainment),
                 Table::num(s.goodputTokensPerSec, 1),
                 toString(Energy::joules(s.energyPerToken)),
                 Table::pct(total_j > 0.0
                                ? s.energy.refresh.j() / total_j
                                : 0.0)});
        }
        sweep.print("<= 48 requests per cell, same seed per cell");
        bench::note("deadline-aware admission lifts SLO attainment at "
                    "saturating rates; eDRAM's denser on-chip KV "
                    "raises goodput at equal area while 2DRP keeps "
                    "refresh energy a small share");
    }
    return 0;
}
