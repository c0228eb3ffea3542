#include "obs/trace_reader.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace kelle {
namespace obs {

namespace {

/**
 * Cursor over one event line. The grammar is exactly what
 * obs/trace.cpp emits: `{"key":value,...}` with string, number and
 * (for "args" only) one nested flat object of string/number values.
 */
struct Cursor
{
    const char *p;
    const char *end;

    bool done() const { return p >= end; }
    bool lit(char c)
    {
        if (done() || *p != c)
            return false;
        ++p;
        return true;
    }
    bool str(std::string &out)
    {
        out.clear();
        if (!lit('"'))
            return false;
        while (!done() && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (done())
                    return false;
            }
            out.push_back(*p++);
        }
        return lit('"');
    }
    bool num(double &out)
    {
        char *after = nullptr;
        out = std::strtod(p, &after);
        if (after == p || after > end || !std::isfinite(out))
            return false;
        p = after;
        return true;
    }
    /** A timestamp as the serializer prints it — microseconds with at
     *  most three fraction digits — read exactly into ticks. Signs,
     *  exponents and values beyond the int64-ns range fail. */
    bool ticks(sim::SimTime &out)
    {
        std::uint64_t us = 0;
        std::uint64_t frac = 0;
        auto [q, ec] = std::from_chars(p, end, us);
        if (ec != std::errc())
            return false;
        if (q < end && *q == '.') {
            const auto [f, fec] = std::from_chars(q + 1, end, frac);
            if (fec != std::errc() || f - (q + 1) > 3)
                return false;
            for (auto n = f - (q + 1); n < 3; ++n)
                frac *= 10;
            q = f;
        }
        if (us > (INT64_MAX - frac) / 1000)
            return false;
        p = q;
        out = sim::SimTime::nanos(
            static_cast<std::int64_t>(us * 1000 + frac));
        return true;
    }
};

/** `v` as an id or pid: integral, in [0, 2^64). */
bool
asIndex(double v, std::uint64_t &out)
{
    if (!(v >= 0.0 && v < 18446744073709551616.0) || v != std::floor(v))
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseArgs(Cursor &c, RawTraceEvent &ev)
{
    if (!c.lit('{'))
        return false;
    if (c.lit('}'))
        return true;
    std::string key;
    std::string sval;
    for (;;) {
        if (!c.str(key) || !c.lit(':'))
            return false;
        if (!c.done() && *c.p == '"') {
            if (!c.str(sval))
                return false;
            if (key == "name")
                ev.metaName = sval;
            else if (key == "outcome" && sval == "rejected")
                ev.outcomeRejected = true;
            else if (key == "outcome" && sval == "failed")
                ev.outcomeFailed = true;
        } else {
            double v = 0.0;
            if (!c.num(v))
                return false;
            ev.args[key] = v;
        }
        if (c.lit('}'))
            return true;
        if (!c.lit(','))
            return false;
    }
}

bool
parseEventLine(const char *begin, const char *end, RawTraceEvent &ev)
{
    Cursor c{begin, end};
    if (!c.lit('{'))
        return false;
    std::string key;
    std::string sval;
    for (;;) {
        if (!c.str(key) || !c.lit(':'))
            return false;
        if (key == "args") {
            if (!parseArgs(c, ev))
                return false;
        } else if (!c.done() && *c.p == '"') {
            if (!c.str(sval))
                return false;
            if (key == "name")
                ev.name = sval;
            else if (key == "ph" && sval.size() == 1)
                ev.ph = sval[0];
            // "s" and "cat" are presentation-only; accept and drop.
        } else if (key == "ts" || key == "dur") {
            if (!c.ticks(key == "ts" ? ev.ts : ev.dur))
                return false;
        } else {
            double v = 0.0;
            if (!c.num(v))
                return false;
            std::uint64_t u = 0;
            if (key == "pid") {
                if (!asIndex(v, u) || u > INT_MAX)
                    return false;
                ev.pid = static_cast<int>(u);
            } else if (key == "id") {
                if (!asIndex(v, ev.id))
                    return false;
            }
            // "tid" is always 0; accept and drop.
        }
        if (c.lit('}'))
            return c.done();
        if (!c.lit(','))
            return false;
    }
}

bool
knownEvent(const RawTraceEvent &ev)
{
    switch (ev.ph) {
    case 'M':
        return ev.name == "process_name";
    case 'b':
    case 'e':
        // Async span edges carry the request's task name, which is
        // free-form; the phase alone identifies them.
        return true;
    case 'i':
        return ev.name == "requeue" || ev.name == "dispatch" ||
               ev.name == "admit" || ev.name == "defer" ||
               ev.name == "reject" || ev.name == "preempt" ||
               ev.name == "first_token" || ev.name == "slo" ||
               ev.name == "device_fault" ||
               ev.name == "device_recover" ||
               ev.name == "fault_evict" || ev.name == "fault_fail";
    case 'X':
        return ev.name == "prefill" || ev.name == "decode";
    case 'C':
        return ev.name == "kv_bytes" || ev.name == "queue_depth" ||
               ev.name == "batch" || ev.name == "refresh_J" ||
               ev.name == "kv_pages_free" ||
               ev.name == "kv_pages_shared" ||
               ev.name == "kv_prefix_hit_tokens";
    default:
        return false;
    }
}

double
argOr(const RawTraceEvent &ev, const char *key, double def)
{
    const auto it = ev.args.find(key);
    return it == ev.args.end() ? def : it->second;
}

} // namespace

bool
TraceReader::parse(const std::string &json)
{
    stats_ = Stats{};
    events_.clear();

    // Header is two fixed lines, footer one; events are one object
    // per line with the separating comma ending the previous line.
    std::vector<std::pair<const char *, const char *>> lines;
    const char *p = json.data();
    const char *end = p + json.size();
    while (p < end) {
        const char *nl = static_cast<const char *>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        const char *stop = nl == nullptr ? end : nl;
        if (stop > p)
            lines.emplace_back(p, stop);
        p = stop + 1;
    }
    if (lines.size() < 3)
        return false;
    const auto lineIs = [&lines](std::size_t i, const char *want) {
        const std::size_t n = std::strlen(want);
        return static_cast<std::size_t>(lines[i].second -
                                        lines[i].first) == n &&
               std::memcmp(lines[i].first, want, n) == 0;
    };
    if (!lineIs(0, "{\"displayTimeUnit\":\"ms\",") ||
        !lineIs(1, "\"traceEvents\":[") ||
        !lineIs(lines.size() - 1, "]}"))
        return false;

    events_.reserve(lines.size() - 3);
    for (std::size_t i = 2; i + 1 < lines.size(); ++i) {
        const char *b = lines[i].first;
        const char *e = lines[i].second;
        if (e > b && e[-1] == ',')
            --e;
        RawTraceEvent ev;
        if (!parseEventLine(b, e, ev)) {
            ++stats_.malformed;
            continue;
        }
        ++stats_.events;
        if (!knownEvent(ev))
            ++stats_.unknown;
        events_.push_back(std::move(ev));
    }

    replay();
    return true;
}

void
TraceReader::replay()
{
    devices_.clear();
    tasks_.clear();
    deviceFaults = deviceRecovers = 0;
    faultEvictions = faultFailures = 0;

    // The serializer declares the requests process (pid 0), then the
    // devices at pids 1..N, in order; an event on any other pid is
    // unknown.
    int declared = 0;
    for (const RawTraceEvent &ev : events_) {
        if (ev.ph != 'M' || ev.name != "process_name" ||
            ev.pid != declared)
            continue;
        if (declared++ > 0)
            devices_.emplace_back().name = ev.metaName;
    }

    // Merge the tracks by time. Each track is in emission order, so a
    // stable sort keeps it at equal timestamps. Unknown events (already
    // tallied) stay out of the replay.
    std::vector<const RawTraceEvent *> order;
    order.reserve(events_.size());
    for (const RawTraceEvent &ev : events_)
        if (knownEvent(ev))
            order.push_back(&ev);
    std::stable_sort(order.begin(), order.end(),
                     [](const RawTraceEvent *a, const RawTraceEvent *b) {
                         return a->ts < b->ts;
                     });

    // Dense indices in arrival order, plus what onArrival needs: the
    // slo instant's targets and, as the TPOT divisor, the tokens the
    // completion reports.
    struct Arrival
    {
        std::uint64_t id = 0;
        sim::SimTime ts;
        double ttftDeadlineSec = 0.0;
        double tpotTargetSec = 0.0;
        std::uint64_t tokens = 0;
    };
    std::vector<Arrival> arrivals;
    std::unordered_map<std::uint64_t, std::size_t> dense;
    const auto indexOf = [&dense](const RawTraceEvent &ev,
                                  std::size_t &idx) {
        std::uint64_t id = ev.id;
        if (ev.ph != 'b' && ev.ph != 'e' &&
            !asIndex(argOr(ev, "req", -1.0), id))
            return false;
        const auto it = dense.find(id);
        if (it == dense.end())
            return false;
        idx = it->second;
        return true;
    };
    for (const RawTraceEvent *ev : order) {
        std::size_t idx = 0;
        if (ev->ph == 'b') {
            if (dense.emplace(ev->id, arrivals.size()).second) {
                arrivals.push_back({ev->id, ev->ts, 0.0, 0.0, 0});
                tasks_.push_back(ev->name);
            }
        } else if (ev->ph == 'i' && ev->name == "slo" &&
                   indexOf(*ev, idx)) {
            arrivals[idx].ttftDeadlineSec =
                argOr(*ev, "ttft_deadline_s", 0.0);
            arrivals[idx].tpotTargetSec =
                argOr(*ev, "tpot_target_s", 0.0);
        } else if (ev->ph == 'e' && indexOf(*ev, idx)) {
            asIndex(argOr(*ev, "tokens", 0.0), arrivals[idx].tokens);
        }
    }
    wf_.beginRun(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival &a = arrivals[i];
        wf_.onArrival(i, a.id, a.ts, a.ttftDeadlineSec, a.tpotTargetSec,
                      static_cast<std::size_t>(a.tokens));
    }

    // Per device: the decode batch and the slice in flight.
    struct Lane
    {
        std::vector<std::size_t> members;
        sim::SimTime dur;
        std::size_t batch = 1; ///< fair-share divisor, >= 1
        bool inFlight = false;
    };
    std::vector<Lane> lanes(devices_.size());
    constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
    std::vector<std::size_t> laneOf(arrivals.size(), kNoLane);
    // Charge the slice in flight on device `d` to its members.
    const auto charge = [this, &lanes](std::size_t d) {
        Lane &lane = lanes[d];
        if (!lane.inFlight)
            return;
        lane.inFlight = false;
        for (std::size_t idx : lane.members)
            wf_.onDecodeBoundary(idx, lane.dur, lane.batch);
    };
    const auto leave = [&lanes, &laneOf](std::size_t idx) {
        if (laneOf[idx] == kNoLane)
            return;
        std::vector<std::size_t> &m = lanes[laneOf[idx]].members;
        m.erase(std::find(m.begin(), m.end(), idx));
        laneOf[idx] = kNoLane;
    };

    for (const RawTraceEvent *evp : order) {
        const RawTraceEvent &ev = *evp;
        const sim::SimTime t = ev.ts;
        std::size_t idx = 0;
        if (ev.ph == 'e') {
            // Rejections and failures end at their device instants.
            if (ev.outcomeRejected || ev.outcomeFailed)
                continue;
            if (!indexOf(ev, idx)) {
                ++stats_.unknown;
                continue;
            }
            const std::size_t d = laneOf[idx];
            if (d != kNoLane)
                charge(d);
            wf_.onCompleted(idx, t,
                            static_cast<std::uint32_t>(
                                d != kNoLane ? d : 0));
            leave(idx);
            continue;
        }
        if (ev.ph != 'i' && ev.ph != 'X')
            continue; // metadata, span begins, counters
        if (ev.name == "dispatch" || ev.name == "requeue" ||
            ev.name == "slo")
            continue; // no lifecycle state beyond the arrival
        if (ev.pid < 1 ||
            static_cast<std::size_t>(ev.pid) > devices_.size()) {
            ++stats_.unknown;
            continue;
        }
        const std::size_t d = static_cast<std::size_t>(ev.pid) - 1;
        const auto dev = static_cast<std::uint32_t>(d);
        if (ev.name == "device_fault") {
            ++deviceFaults;
            continue;
        }
        if (ev.name == "device_recover") {
            ++deviceRecovers;
            continue;
        }
        if (ev.ph == 'X') {
            devices_[d].busy += ev.dur;
            if (ev.name == "decode") {
                ++devices_[d].decodeSlices;
                charge(d);
                Lane &lane = lanes[d];
                const double batch = argOr(ev, "batch", 1.0);
                std::uint64_t b = 0;
                lane.dur = ev.dur;
                lane.batch = asIndex(batch, b) && b > 0 && b <= UINT32_MAX
                                 ? static_cast<std::size_t>(b)
                                 : 1;
                lane.inFlight = true;
                if (static_cast<double>(lane.members.size()) != batch)
                    ++stats_.batchMismatches;
                continue;
            }
            ++devices_[d].prefillSlices;
        }
        if (ev.name == "fault_evict")
            ++faultEvictions;
        else if (ev.name == "fault_fail")
            ++faultFailures;
        if (!indexOf(ev, idx)) {
            ++stats_.unknown;
            continue;
        }
        if (ev.name == "prefill") {
            wf_.onPrefillChunk(idx, ev.dur);
        } else if (ev.name == "defer") {
            wf_.onDeferred(idx, t);
        } else if (ev.name == "admit") {
            wf_.onAdmitted(idx, t);
        } else if (ev.name == "first_token") {
            charge(d);
            leave(idx);
            lanes[d].members.push_back(idx);
            laneOf[idx] = d;
            wf_.onFirstToken(idx, t);
        } else if (ev.name == "preempt") {
            charge(d);
            leave(idx);
            wf_.onPreempt(idx, t);
        } else if (ev.name == "fault_evict") {
            leave(idx);
            wf_.onFaultEvict(idx, t);
        } else if (ev.name == "reject") {
            wf_.onRejected(idx, t, dev);
        } else if (ev.name == "fault_fail") {
            wf_.onFaultFailed(idx, t, dev);
        }
    }
}

} // namespace obs
} // namespace kelle
