/**
 * @file
 * kelle_trace: offline analytics over the Chrome trace-event JSON the
 * engines record (`--trace-out`). Three subcommands:
 *
 *   kelle_trace report TRACE
 *       Parse stats, per-device utilization, the aggregate latency
 *       waterfall and the SLO miss-cause breakdown.
 *
 *   kelle_trace waterfall TRACE [--top K]
 *       The K worst requests by end-to-end latency, each with its
 *       full component decomposition (the per-request critical path).
 *
 *   kelle_trace diff A B
 *       Bitwise A/B comparison. Identical traces exit 0 with one
 *       line; different traces exit 1 with the first divergent line
 *       and an event-count delta per (phase, name).
 *
 * Every output byte is a pure function of the input trace bytes
 * (fixed printf formats, index-ordered iteration), so reports diff
 * cleanly across runs and the threads-1-vs-4 CI smoke can assert
 * byte-identical output.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/trace_reader.hpp"

namespace {

using kelle::Table;
using kelle::obs::AttributionReport;
using kelle::obs::kLatencyComponentCount;
using kelle::obs::kMissCauseCount;
using kelle::obs::LatencyComponent;
using kelle::obs::MissCause;
using kelle::obs::RawTraceEvent;
using kelle::obs::TraceReader;
using kelle::obs::WaterfallEntry;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: kelle_trace report TRACE\n"
        "       kelle_trace waterfall TRACE [--top K]\n"
        "       kelle_trace diff A B\n");
    return 2;
}

bool
slurp(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[1 << 16];
    std::size_t n = 0;
    out.clear();
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

bool
load(const std::string &path, TraceReader &reader)
{
    std::string bytes;
    if (!slurp(path, bytes)) {
        std::fprintf(stderr, "kelle_trace: cannot read %s\n",
                     path.c_str());
        return false;
    }
    if (!reader.parse(bytes)) {
        std::fprintf(stderr,
                     "kelle_trace: %s is not a kelle trace "
                     "(header/footer mismatch)\n",
                     path.c_str());
        return false;
    }
    return true;
}

std::string
secs(double s)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", s);
    return buf;
}

std::string
secs(std::int64_t ns)
{
    return secs(kelle::sim::SimTime::nanos(ns).sec());
}

void
printMissCauses(const std::size_t counts[kMissCauseCount],
                std::size_t terminal)
{
    Table t({"cause", "requests", "share"});
    for (std::size_t i = 0; i < kMissCauseCount; ++i) {
        // The device_fault row exists only on fault traces; skipping
        // it at zero keeps faults-off reports byte-identical to the
        // pre-fault format.
        if (static_cast<MissCause>(i) == MissCause::DeviceFault &&
            counts[i] == 0)
            continue;
        const double share =
            terminal > 0
                ? static_cast<double>(counts[i]) /
                      static_cast<double>(terminal)
                : 0.0;
        t.addRow({kelle::obs::toString(static_cast<MissCause>(i)),
                  std::to_string(counts[i]), Table::pct(share)});
    }
    t.print("Miss causes (dominant, per terminal request)");
}

int
cmdReport(const std::string &path)
{
    TraceReader reader;
    if (!load(path, reader))
        return 1;
    const TraceReader::Stats &st = reader.stats();
    std::printf("trace: %s\n", path.c_str());
    std::printf("events: %zu (unknown %zu, malformed %zu, "
                "batch mismatches %zu)\n",
                st.events, st.unknown, st.malformed,
                st.batchMismatches);
    // Fault line only on fault traces: faults-off reports keep the
    // pre-fault byte layout.
    if (reader.deviceFaults + reader.deviceRecovers +
            reader.faultEvictions + reader.faultFailures >
        0) {
        std::printf("faults: %zu device faults, %zu recoveries, "
                    "%zu crash evictions, %zu permanent failures\n",
                    reader.deviceFaults, reader.deviceRecovers,
                    reader.faultEvictions, reader.faultFailures);
    }
    const AttributionReport rep = reader.report();
    std::printf("requests: %zu terminal (%zu completed, %zu "
                "rejected), %zu SLO misses\n\n",
                rep.terminal, rep.completed, rep.rejected, rep.misses);

    if (!reader.devices().empty()) {
        Table t({"device", "busy_s", "prefill", "decode", "completed",
                 "rejected", "misses"});
        for (std::size_t i = 0; i < reader.devices().size(); ++i) {
            const auto &d = reader.devices()[i];
            const AttributionReport::Device &a = rep.devices[i];
            t.addRow({d.name, secs(d.busy.sec()),
                      std::to_string(d.prefillSlices),
                      std::to_string(d.decodeSlices),
                      std::to_string(a.terminal - a.rejected),
                      std::to_string(a.rejected),
                      std::to_string(a.misses)});
        }
        t.print("Per-device");
    }

    double total = 0.0;
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i)
        total += rep.componentTotals[i];
    Table t({"component", "total_s", "share"});
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        const double s = rep.componentTotals[i];
        t.addRow({kelle::obs::toString(static_cast<LatencyComponent>(i)),
                  secs(s), Table::pct(total > 0.0 ? s / total : 0.0)});
    }
    t.print("Latency waterfall (summed over terminal requests)");

    printMissCauses(rep.missCounts, rep.terminal);
    return 0;
}

int
cmdWaterfall(const std::string &path, std::size_t top)
{
    TraceReader reader;
    if (!load(path, reader))
        return 1;

    const std::vector<WaterfallEntry> &entries =
        reader.waterfall().entries();
    std::vector<std::size_t> worst;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (entries[i].terminal)
            worst.push_back(i);
    const std::size_t terminal = worst.size();
    std::sort(worst.begin(), worst.end(),
              [&entries](std::size_t a, std::size_t b) {
                  const WaterfallEntry &ea = entries[a];
                  const WaterfallEntry &eb = entries[b];
                  if (ea.e2eNs != eb.e2eNs)
                      return ea.e2eNs > eb.e2eNs;
                  return ea.reqId < eb.reqId;
              });
    if (worst.size() > top)
        worst.resize(top);

    std::printf("trace: %s\n", path.c_str());
    std::printf("worst %zu of %zu terminal requests by e2e\n\n",
                worst.size(), terminal);
    for (std::size_t k = 0; k < worst.size(); ++k) {
        const WaterfallEntry &e = entries[worst[k]];
        const char *devName = e.device < reader.devices().size()
                                  ? reader.devices()[e.device].name.c_str()
                                  : "?";
        std::printf("#%zu req %llu (%s) on %s: e2e %s s, ttft %s s, "
                    "%s, cause %s\n",
                    k + 1, static_cast<unsigned long long>(e.reqId),
                    reader.tasks()[worst[k]].c_str(), devName,
                    secs(e.e2eNs).c_str(), secs(e.ttftNs).c_str(),
                    e.rejected ? "rejected" : "completed",
                    kelle::obs::toString(e.cause));
        for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
            const std::int64_t ns = e.components[i];
            std::printf("    %-18s %s s  %s\n",
                        kelle::obs::toString(
                            static_cast<LatencyComponent>(i)),
                        secs(ns).c_str(),
                        Table::pct(e.e2eNs > 0
                                       ? static_cast<double>(ns) /
                                             static_cast<double>(e.e2eNs)
                                       : 0.0)
                            .c_str());
        }
        std::printf("\n");
    }
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB)
{
    std::string a;
    std::string b;
    if (!slurp(pathA, a)) {
        std::fprintf(stderr, "kelle_trace: cannot read %s\n",
                     pathA.c_str());
        return 1;
    }
    if (!slurp(pathB, b)) {
        std::fprintf(stderr, "kelle_trace: cannot read %s\n",
                     pathB.c_str());
        return 1;
    }
    if (a == b) {
        std::printf("identical: %s == %s (%zu bytes)\n",
                    pathA.c_str(), pathB.c_str(), a.size());
        return 0;
    }

    std::printf("different: %s (%zu bytes) vs %s (%zu bytes)\n",
                pathA.c_str(), a.size(), pathB.c_str(), b.size());

    // First divergent line, 1-based.
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = std::min(a.size(), b.size());
    while (i < n && a[i] == b[i]) {
        if (a[i] == '\n')
            ++line;
        ++i;
    }
    std::printf("first difference at line %zu (byte %zu)\n", line, i);

    // Event-count delta per (phase, name): which streams changed.
    TraceReader ra;
    TraceReader rb;
    if (ra.parse(a) && rb.parse(b)) {
        std::map<std::string, long long> counts;
        for (const RawTraceEvent &e : ra.events())
            ++counts[std::string(1, e.ph) + " " + e.name];
        for (const RawTraceEvent &e : rb.events())
            --counts[std::string(1, e.ph) + " " + e.name];
        Table t({"event", "A-B"});
        for (const auto &kv : counts)
            if (kv.second != 0)
                t.addRow({kv.first, std::to_string(kv.second)});
        t.print("Event-count deltas (ph name)");
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string &cmd = args[0];
    if (cmd == "report" && args.size() == 2)
        return cmdReport(args[1]);
    if (cmd == "waterfall" && args.size() >= 2) {
        std::size_t top = 5;
        for (std::size_t i = 2; i < args.size(); ++i) {
            if (args[i] == "--top" && i + 1 < args.size()) {
                top = static_cast<std::size_t>(
                    std::strtoull(args[++i].c_str(), nullptr, 10));
            } else {
                return usage();
            }
        }
        return cmdWaterfall(args[1], top);
    }
    if (cmd == "diff" && args.size() == 3)
        return cmdDiff(args[1], args[2]);
    return usage();
}
