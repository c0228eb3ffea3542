/**
 * @file
 * Figure 15 reproduction:
 *  (a) impact of KV recomputation on the Kelle+eDRAM energy breakdown
 *      (LLaMA3.2-3B and LLaMA2-13B);
 *  (b) refresh-strategy ablation on LLaMA2-7B/PG19: Org (45 us), Uni
 *      (iso-accuracy uniform), 2D (2DRP), 2K (2DRP + Kelle scheduler);
 *  plus the popularity-threshold (theta) sweep DESIGN.md calls out.
 */

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace kelle;
using namespace kelle::accel;

int
main()
{
    // ---- (a) recomputation on/off -------------------------------------
    bench::banner("Figure 15a: KV recomputation impact (PG19, batch 16)");
    Table a({"model", "recompute", "energy_eff", "KV+refresh share",
             "RSA share", "recomputed tok/step"});
    for (const auto &mc : {model::llama32_3b(), model::llama2_13b()}) {
        sim::Task task = sim::pg19();
        const auto w = sim::makeWorkload(task, mc, 16);
        const auto base = simulate(originalSramSystem(), w);
        for (bool recomp : {true, false}) {
            auto sys = kelleEdramSystem(task.budget);
            sys.kv.recompute =
                recomp ? RecomputeMode::Auto : RecomputeMode::None;
            const auto r = simulate(sys, w);
            EnergyBreakdown e = r.prefillEnergy;
            e += r.decodeEnergy;
            const double on = e.onChipTotal().j();
            a.addRow({mc.name, recomp ? "R" : "NR",
                      Table::mult(compare(base, r).energyEfficiency),
                      Table::pct((e.kvMem + e.refresh).j() / on),
                      Table::pct(e.rsa.j() / on),
                      Table::num(r.recomputedTokensPerStep, 1)});
        }
    }
    a.print();
    bench::note("paper 15a: recomputation cuts the KV-cache share with "
                "a minimal RSA increase (1.16x/1.08x energy gain)");

    // ---- (b) refresh strategies ---------------------------------------
    bench::banner("Figure 15b: Org / Uniform / 2DRP / 2DRP+scheduler "
                  "(LLaMA2-7B, PG19)");
    sim::Task task = sim::pg19();
    const auto w = sim::makeWorkload(task, model::llama2_7b(), 16);
    const auto base = simulate(originalSramSystem(), w);

    Table b({"strategy", "energy_eff", "refresh share", "latency (s)"});
    auto run = [&](const char *name, edram::RefreshIntervals intervals,
                   SchedulerKind sched) {
        auto sys = kelleEdramSystem(task.budget);
        sys.refresh.intervals = intervals;
        sys.scheduler = sched;
        const auto r = simulate(sys, w);
        EnergyBreakdown e = r.prefillEnergy;
        e += r.decodeEnergy;
        b.addRow({name,
                  Table::mult(compare(base, r).energyEfficiency),
                  Table::pct(e.refresh.j() / e.total().j()),
                  Table::num(r.totalLatency().sec(), 1)});
    };
    // Section 8.3.3: the uniform interval that matches 2DRP's accuracy
    // is 0.36 ms — a uniform policy must refresh *everything* at the
    // rate 2DRP reserves for its most sensitive group (HST MSBs).
    run("Org (45 us)", edram::RefreshIntervals::retentionFloor(),
        SchedulerKind::Baseline);
    run("Uni (0.36 ms iso-accuracy)",
        edram::RefreshIntervals::uniform(Time::millis(0.36)),
        SchedulerKind::Baseline);
    run("2D (2DRP)", edram::RefreshIntervals::paper2drp(),
        SchedulerKind::Baseline);
    run("2K (2DRP + Kelle scheduler)",
        edram::RefreshIntervals::paper2drp(), SchedulerKind::Kelle);
    b.print();
    bench::note("paper 15b: 1.00 -> 1.21 -> 1.51 -> 1.61 "
                "(LLaMA3.2-3B); refresh share falls 40% -> 2%");

    // ---- theta sweep (design-choice ablation) --------------------------
    bench::banner("Ablation: popularity threshold theta (fraction of "
                  "tokens eligible for x-storage)");
    Table c({"popular fraction", "energy_eff", "recomputed tok/step"});
    for (double frac : {0.1, 0.25, 0.35, 0.5, 0.75}) {
        auto sys = kelleEdramSystem(task.budget);
        sys.kv.popularFraction = frac;
        const auto r = simulate(sys, w);
        c.addRow({Table::num(frac, 2),
                  Table::mult(compare(base, r).energyEfficiency),
                  Table::num(r.recomputedTokensPerStep, 1)});
    }
    c.print();
    return 0;
}
