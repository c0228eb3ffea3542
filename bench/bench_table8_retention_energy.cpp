/**
 * @file
 * Table 8 + Section 8.3.7 reproduction:
 *  - energy efficiency across eDRAM retention times (2DRP interval
 *    sets scaled so the average interval is 1050 / 525 / 262 / 131 us)
 *    on TriviaQA and PG19 with LLaMA3.2-3B;
 *  - the halved-eDRAM-bandwidth ablation (128 GB/s, same capacity).
 */

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace kelle;
using namespace kelle::accel;

int
main()
{
    const auto mc = model::llama32_3b();

    bench::banner("Table 8: energy efficiency across average refresh "
                  "intervals (LLaMA3.2-3B, batch 16)");
    Table t({"avg interval (us)", "TriviaQA", "PG19"});
    const Time base_avg =
        edram::RefreshIntervals::paper2drp().averageInterval();
    for (double target_us : {1050.0, 525.0, 262.0, 131.0}) {
        std::vector<std::string> row = {Table::num(target_us, 0)};
        for (const auto &task : {sim::triviaQa(), sim::pg19()}) {
            const auto w = sim::makeWorkload(task, mc, 16);
            const auto base = simulate(originalSramSystem(), w);
            auto sys = kelleEdramSystem(task.budget);
            sys.refresh.intervals =
                edram::RefreshIntervals::paper2drp().scaled(
                    target_us / base_avg.us());
            const auto r = simulate(sys, w);
            row.push_back(
                Table::mult(compare(base, r).energyEfficiency));
        }
        t.addRow(row);
    }
    t.print();
    bench::note("paper Table 8: 3.91x -> 3.06x (TriviaQA) and 8.07x -> "
                "6.05x (PG19) as retention shrinks 1050 -> 131 us; "
                "AERP keeps refresh a small fraction of total energy");

    // ---- Section 8.3.7: halved eDRAM bandwidth ------------------------
    bench::banner("Section 8.3.7: halved eDRAM bandwidth (128 GB/s, "
                  "same 4 MB capacity), LLaMA2-7B");
    Table b({"task", "vs Original+SRAM", "vs AERP+SRAM"});
    for (const auto &task : {sim::pg19(), sim::triviaQa()}) {
        const auto w = sim::makeWorkload(task, model::llama2_7b(), 16);
        const auto base = simulate(originalSramSystem(), w);
        const auto aerp = simulate(aerpSramSystem(task.budget), w);

        auto sys = kelleEdramSystem(task.budget);
        sys.tech.kvMemory =
            mem::edram(Bytes::mib(4), Bandwidth::gibPerSec(128));
        const auto r = simulate(sys, w);
        b.addRow({task.name,
                  Table::mult(compare(base, r).energyEfficiency),
                  Table::mult(compare(aerp, r).energyEfficiency)});
    }
    b.print();
    bench::note("paper: 6.31x / 5.42x over Original+SRAM and 1.47x / "
                "1.35x over AERP+SRAM at half bandwidth — capacity "
                "matters more than bandwidth");
    return 0;
}
