/**
 * @file
 * Table 3 reproduction: accuracy vs KV cache budget N' for the Kelle
 * policy, plus the per-head vs per-token eviction ablation DESIGN.md
 * calls out. The paper sweeps N' in {512..16} on LLaMA2-7B; the
 * functional substrate sweeps the same budget-to-sequence ratios.
 */

#include "bench_util.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/arg_parser.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace kelle;

int
main(int argc, char **argv)
{
    common::ArgParser args("bench_table3_budget",
                           "Table 3 accuracy-vs-budget sweep");
    args.addBool("paged", false,
                 "add the paged KV pool axis: a multi-turn serving "
                 "knee sweep of peak resident N', contiguous vs "
                 "paged + shared prefixes, over the same budgets");
    if (!args.parse(argc, argv))
        return args.exitCode();
    // Sequence ~192 tokens; budgets mirror the paper's 512..16 sweep
    // relative to its 2048-token WK2 contexts.
    sim::Task task = sim::scaledForTiny(sim::wikitext2(), 192);
    sim::AccuracyBench bench_ctx(task, /*seed=*/555);

    bench::banner("Table 3: accuracy vs KV budget N' (Kelle AERP, "
                  "fault-free)");
    Table t({"N'", "PPL (down)", "Agreement@1 (up)"});

    const auto full = bench_ctx.run(kv::makeFullConfig());
    t.addRow({"Full", Table::num(full.perplexity, 3),
              Table::pct(full.agreementTop1)});

    for (std::size_t budget : {96u, 64u, 48u, 32u, 24u, 16u}) {
        auto cfg = sim::cacheConfigFor(task, kv::Policy::Aerp);
        cfg.budget = budget;
        // Shrink protected regions with the budget, as the paper does
        // per task (Section 7.1).
        cfg.recentWindow = std::max<std::size_t>(4, budget / 3);
        cfg.sinkTokens = std::max<std::size_t>(2, budget / 16);
        const auto r = bench_ctx.run(cfg);
        t.addRow({std::to_string(budget), Table::num(r.perplexity, 3),
                  Table::pct(r.agreementTop1)});
    }
    t.print();
    bench::note("paper Table 3: accuracy declines slowly until "
                "N' < 128 (of 2048), then drops sharply — i.e. below "
                "~1/16 of the sequence budget");

    // ---- ablation: per-head vs per-token eviction ---------------------
    bench::banner("Ablation: per-head eviction (paper) vs per-token "
                  "eviction (all heads evict the same token)");
    Table ab({"budget", "per-head PPL", "per-token PPL (proxy)",
              "per-head Agr", "per-token Agr"});
    for (std::size_t budget : {48u, 24u}) {
        auto per_head = sim::cacheConfigFor(task, kv::Policy::Aerp);
        per_head.budget = budget;
        per_head.recentWindow = budget / 3;
        per_head.sinkTokens = 2;
        const auto rh = bench_ctx.run(per_head);

        // Per-token proxy: H2O-style single-ranking eviction applied
        // uniformly (no per-head divergence, no recomputation).
        auto per_token = per_head;
        per_token.recompute = false;
        per_token.useRawLogits = false;
        const auto rt = bench_ctx.run(per_token);
        ab.addRow({std::to_string(budget), Table::num(rh.perplexity, 3),
                   Table::num(rt.perplexity, 3),
                   Table::pct(rh.agreementTop1),
                   Table::pct(rt.agreementTop1)});
    }
    ab.print();

    // ---- paged axis: multi-turn knee sweep over the same budgets ------
    if (args.getBool("paged")) {
        bench::banner(
            "Paged KV pool: peak resident N' across the budget knee "
            "(multi-turn sessions, tight 256-token pool)");

        serving::ServingConfig base;
        base.model = model::tinyLm();
        base.policy = serving::SchedulePolicy::ContinuousBatching;
        base.highWatermark = 0.85;
        base.traffic.ratePerSec = 2000.0;
        base.traffic.numRequests = 32;
        base.traffic.seed = 42;
        base.traffic.mix = {
            {sim::scaledForTiny(sim::lambada(), 96), 1.0},
            {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
        base.traffic.sessions = 1;
        base.traffic.sessionPrefixFrac = 0.9;

        Table k({"N'", "contig peak N'", "paged+shared peak N'",
                 "resident mult", "prefix-hit tok", "clips"});
        const auto one = [](const serving::ServingConfig &cfg) {
            cluster::ClusterConfig c;
            c.engine = cfg;
            c.devices = cluster::homogeneousFleet(
                1, accel::kelleEdramSystem(2048), 256, 12);
            return cluster::ClusterEngine(c).run().aggregate;
        };
        for (std::size_t budget : {96u, 64u, 48u, 32u}) {
            serving::ServingConfig contig = base;
            contig.budgetOverride = budget;
            serving::ServingConfig paged = contig;
            paged.paged.enabled = true;
            paged.paged.blockTokens = 8;
            const auto c = one(contig);
            const auto p = one(paged);
            k.addRow({std::to_string(budget),
                      std::to_string(c.peakLogicalTokens),
                      std::to_string(p.peakLogicalTokens),
                      Table::mult(
                          static_cast<double>(p.peakLogicalTokens) /
                          static_cast<double>(std::max<std::size_t>(
                              1, c.peakLogicalTokens))),
                      std::to_string(p.paged.prefixHitTokens),
                      std::to_string(p.paged.budgetClips)});
        }
        k.print();
        bench::note(
            "same trace and pool per row; the shared session prompt "
            "(90% of each context) is stored once per session, so the "
            "paged pool keeps more logical tokens resident exactly "
            "where Table 3 says shrinking N' starts costing accuracy");
    }
    return 0;
}
