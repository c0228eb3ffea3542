/**
 * @file
 * Figure 3 reproduction (the motivation study):
 *  (a) normalized decode latency of 4 MB vs 8 MB SRAM systems running
 *      LLaMA2-7B across sequence lengths;
 *  (b) area breakdown of iso-capacity 8 MB eDRAM vs 8 MB SRAM systems;
 *  (c) energy breakdown of the unoptimized eDRAM system (45 us
 *      refresh), showing the refresh share across decode lengths.
 */

#include "accel/area_model.hpp"
#include "accel/timing_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

using namespace kelle;
using namespace kelle::accel;

namespace {

SystemConfig
plainSramSystem(Bytes sram)
{
    SystemConfig s;
    s.name = "SRAM-" + std::to_string(
                 static_cast<int>(sram.inMib())) + "MB";
    s.tech = sramSystemTech(sram);
    s.scheduler = SchedulerKind::Baseline;
    s.kv.evict = false;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = false;
    return s;
}

SystemConfig
plainEdramSystem(Bytes cap)
{
    SystemConfig s;
    s.name = "eDRAM-" + std::to_string(
                 static_cast<int>(cap.inMib())) + "MB";
    s.tech = edramSystemTech(cap);
    s.scheduler = SchedulerKind::Baseline;
    s.kv.evict = false;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = false;
    s.refresh.intervals = edram::RefreshIntervals::retentionFloor();
    return s;
}

} // namespace

int
main()
{
    const auto m7 = model::llama2_7b();
    const auto m13 = model::llama2_13b();

    // ---- (a) latency: 4 MB vs 8 MB SRAM -----------------------------
    bench::banner("Figure 3a: normalized latency, 4 MB vs 8 MB SRAM "
                  "(LLaMA2-7B, prefill 512, batch 16)");
    Table a({"seq_len", "4MB (norm)", "8MB (norm)", "8MB speedup"});
    for (std::size_t seq : {1024u, 2048u, 4096u, 8192u}) {
        Workload w;
        w.model = m7;
        w.ctxLen = 512;
        w.decLen = seq - 512;
        w.batch = 16;
        const auto r4 = simulate(plainSramSystem(Bytes::mib(4)), w);
        const auto r8 = simulate(plainSramSystem(Bytes::mib(8)), w);
        const double t4 = r4.totalLatency().sec();
        const double t8 = r8.totalLatency().sec();
        a.addRow({std::to_string(seq), "1.00", Table::num(t8 / t4, 3),
                  Table::mult(t4 / t8)});
    }
    a.print();
    bench::note("paper: 1.27x average speedup from doubling SRAM; the "
                "gap grows with sequence length as attention "
                "intermediates spill");

    // ---- (b) area ----------------------------------------------------
    bench::banner("Figure 3b: area breakdown, 8 MB eDRAM vs 8 MB SRAM "
                  "system");
    Table b({"component", "eDRAM system (mm^2)", "SRAM system (mm^2)"});
    const auto ed = areaReport(edramSystemTech(Bytes::mib(8)));
    const auto sr = areaReport(sramSystemTech(Bytes::mib(8)));
    for (std::size_t i = 0; i < ed.onChip.size(); ++i) {
        b.addRow({ed.onChip[i].name,
                  Table::num(ed.onChip[i].area.inMm2(), 2),
                  Table::num(sr.onChip[i].area.inMm2(), 2)});
    }
    b.addRow({"total on-chip", Table::num(ed.onChipTotal.inMm2(), 2),
              Table::num(sr.onChipTotal.inMm2(), 2)});
    b.print();
    bench::note("the 8 MB-eDRAM system fits in a smaller die than the "
                "8 MB-SRAM system (paper: red budget line between them)");

    // ---- (c) energy breakdown with naive refresh ---------------------
    bench::banner("Figure 3c: energy breakdown of the unoptimized 8 MB "
                  "eDRAM system (45 us refresh, prefill 512)");
    Table c({"model", "dec_len", "refresh", "dram", "buffer",
             "compute+sfu"});
    for (const auto &mc : {m7, m13}) {
        for (std::size_t dec : {1024u, 2048u, 4096u, 8192u}) {
            Workload w;
            w.model = mc;
            w.ctxLen = 512;
            w.decLen = dec;
            w.batch = 16;
            const auto r = simulate(plainEdramSystem(Bytes::mib(8)), w);
            EnergyBreakdown e = r.prefillEnergy;
            e += r.decodeEnergy;
            const double tot = e.total().j();
            c.addRow({mc.name, std::to_string(dec),
                      Table::pct(e.refresh.j() / tot),
                      Table::pct(e.dram.j() / tot),
                      Table::pct((e.weightSram + e.kvMem).j() / tot),
                      Table::pct((e.rsa + e.sfu).j() / tot)});
        }
    }
    c.print();
    bench::note("paper: refresh reaches up to 46% of total energy "
                "without optimization (1.7x average energy increase)");
    return 0;
}
