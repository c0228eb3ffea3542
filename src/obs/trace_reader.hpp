/**
 * @file
 * Offline reader for the Chrome trace-event JSON that `TraceRecorder`
 * emits: parses the event stream back into structured records and
 * replays every request's lifecycle into a `LatencyWaterfall` — the
 * engine behind the `kelle_trace` analytics CLI and the CI round-trip
 * check ("every recorded trace parses with zero unknown/malformed
 * events").
 *
 * The parser is scoped to exactly the serializer in obs/trace.cpp: a
 * two-line header, one event object per line (the separating comma
 * ends the previous line), flat string/number fields plus a one-level
 * `args` object, and a `]}` footer. Anything outside that shape
 * counts as malformed; a well-formed event whose (name, ph) pair is
 * not in the taxonomy counts as unknown. Both tallies are exposed via
 * `stats()` so tests can pin them to zero.
 *
 * Replay notes (why it works offline):
 *  - the file holds one track after another (requests, then device
 *    0..N-1), each in emission order. The replay merges the tracks by
 *    timestamp and keeps file order at equal timestamps, so every
 *    request's and every device's events reach the waterfall hooks in
 *    the order the engine called them. The waterfall keeps the
 *    first-life rules; the reader holds no attribution rule.
 *  - request ids map to dense waterfall indices at their arrival
 *    span begin (`b`). An event naming a request that never arrived,
 *    or a pid no `process_name` declared, counts as unknown and is
 *    skipped, so hostile ids never size the table.
 *  - decode slices are not request-bound. Membership is replayed per
 *    device: first_token joins; preempt, fault_evict and completion
 *    leave. A slice is charged at its end — before the device's next
 *    decode slice, first_token, preempt or completion — to the members
 *    still in the batch, with its `batch` arg as the fair-share
 *    divisor. A crash evicts every member first, so the slice it
 *    orphans charges no one, as in the engine.
 *  - timestamps and durations are printed as %.3f µs from integer
 *    nanosecond ticks and parsed straight back to those ticks, so the
 *    replay sees the engine's own clock: offline waterfalls equal the
 *    online ones exactly (pinned by tests/test_attribution.cpp). A
 *    `ts` or `dur` that is not a non-negative decimal with at most
 *    three fraction digits within the int64-ns range is malformed.
 *
 * Determinism: output depends only on the trace bytes, which are
 * themselves byte-identical across thread counts and fastSim on/off,
 * so every report derived here inherits that contract.
 */

#ifndef KELLE_OBS_TRACE_READER_HPP
#define KELLE_OBS_TRACE_READER_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/attribution.hpp"

namespace kelle {
namespace obs {

/** One parsed trace event (fields absent in the JSON stay 0/""). */
struct RawTraceEvent
{
    std::string name;
    char ph = 0; ///< M, b, e, i, X, C
    int pid = 0;
    std::uint64_t id = 0; ///< async span id (b/e events)
    sim::SimTime ts;
    sim::SimTime dur;
    /** Numeric args (req, device, batch, tokens, value, ...). */
    std::map<std::string, double> args;
    /** args.name of process_name metadata events. */
    std::string metaName;
    /** args.outcome == "rejected" on a rejection span end. */
    bool outcomeRejected = false;
    /** args.outcome == "failed" on a fault-failure span end. */
    bool outcomeFailed = false;
};

/** Per-device slice tallies derived from one trace. */
struct TraceDeviceSummary
{
    std::string name;
    sim::SimTime busy; ///< sum of prefill + decode slice durations
    std::size_t prefillSlices = 0;
    std::size_t decodeSlices = 0;
};

class TraceReader
{
  public:
    struct Stats
    {
        std::size_t events = 0;    ///< well-formed events parsed
        /** Parsed but outside the taxonomy, or a lifecycle event
         *  naming a pid or request the trace never declared. */
        std::size_t unknown = 0;
        std::size_t malformed = 0; ///< lines that failed to parse
        /** Decode slices whose replayed membership size disagreed
         *  with the slice's batch arg (0 on any engine trace). */
        std::size_t batchMismatches = 0;
    };

    /**
     * Parse a full trace document and replay it into the waterfall.
     * Returns false when the document structure itself (header or
     * footer) is wrong; per-event problems are tallied in stats()
     * instead of failing the parse.
     */
    bool parse(const std::string &json);

    const Stats &stats() const { return stats_; }
    const std::vector<RawTraceEvent> &events() const
    {
        return events_;
    }
    /** Devices in pid order (pid 1..N). */
    const std::vector<TraceDeviceSummary> &devices() const
    {
        return devices_;
    }
    /** The replayed waterfall: one entry per arrived request, indexed
     *  in arrival order; `device` is the pid minus one. */
    const LatencyWaterfall &waterfall() const { return wf_; }
    /** Task name of each waterfall entry. */
    const std::vector<std::string> &tasks() const { return tasks_; }
    /** The waterfall rolled up over devices(). */
    AttributionReport report() const
    {
        return wf_.report(devices_.size());
    }

    /** @name Fault instants tallied from the trace (0 = no faults). @{ */
    std::size_t deviceFaults = 0;
    std::size_t deviceRecovers = 0;
    std::size_t faultEvictions = 0;
    std::size_t faultFailures = 0;
    /** @} */

  private:
    void replay();

    Stats stats_;
    std::vector<RawTraceEvent> events_;
    std::vector<TraceDeviceSummary> devices_;
    LatencyWaterfall wf_;
    std::vector<std::string> tasks_;
};

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_TRACE_READER_HPP
