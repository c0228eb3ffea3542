/**
 * @file
 * Shared helpers for the bench harnesses: headers, run banners and
 * the attribution roll-up.
 */

#ifndef KELLE_BENCH_BENCH_UTIL_HPP
#define KELLE_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/attribution.hpp"

namespace kelle {
namespace bench {

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Print a paper-vs-measured note line. */
inline void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

/**
 * Print a `--attribution` roll-up: the aggregate latency waterfall
 * and the per-cause SLO miss breakdown (one column per device when
 * names are given). Shared by bench_serving and bench_cluster so the
 * two print byte-compatible tables.
 */
inline void
printAttribution(const obs::AttributionReport &rep,
                 const std::vector<std::string> &device_names,
                 const std::string &caption)
{
    double e2e_total = 0.0;
    for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i)
        e2e_total += rep.componentTotals[i];
    Table components({"component", "total_s", "share"});
    for (std::size_t i = 0; i < obs::kLatencyComponentCount; ++i) {
        const double v = rep.componentTotals[i];
        components.addRow(
            {obs::toString(static_cast<obs::LatencyComponent>(i)),
             Table::num(v, 6),
             Table::pct(e2e_total > 0.0 ? v / e2e_total : 0.0)});
    }
    components.print("latency waterfall (" + caption + "; " +
                     std::to_string(rep.terminal) + " terminal, " +
                     std::to_string(rep.completed) + " completed, " +
                     std::to_string(rep.rejected) + " rejected)");

    std::vector<std::string> header = {"miss cause", "total"};
    for (std::size_t d = 0; d < rep.devices.size(); ++d)
        header.push_back(d < device_names.size()
                             ? device_names[d]
                             : "device" + std::to_string(d));
    Table causes(std::move(header));
    for (std::size_t i = 0; i < obs::kMissCauseCount; ++i) {
        // device_fault shows up only on fault runs; skipping the
        // zero row keeps faults-off tables byte-identical.
        if (static_cast<obs::MissCause>(i) ==
                obs::MissCause::DeviceFault &&
            rep.missCounts[i] == 0)
            continue;
        std::vector<std::string> row = {
            obs::toString(static_cast<obs::MissCause>(i)),
            std::to_string(rep.missCounts[i])};
        for (const auto &dev : rep.devices)
            row.push_back(std::to_string(dev.missCounts[i]));
        causes.addRow(std::move(row));
    }
    causes.print("miss causes (" + caption + "; " +
                 std::to_string(rep.misses) + " of " +
                 std::to_string(rep.terminal) +
                 " requests missed an SLO)");
}

} // namespace bench
} // namespace kelle

#endif // KELLE_BENCH_BENCH_UTIL_HPP
