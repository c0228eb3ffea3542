#include "obs/trace.hpp"

#include <cstdio>
#include <unordered_map>

#include "common/log.hpp"

namespace kelle {
namespace obs {

std::uint32_t
TraceTrack::intern(const std::string &task)
{
    for (std::uint32_t i = 0; i < taskNames_.size(); ++i) {
        if (taskNames_[i] == task)
            return i;
    }
    taskNames_.push_back(task);
    return static_cast<std::uint32_t>(taskNames_.size() - 1);
}

TraceTrack *
TraceRecorder::requestsTrack()
{
    if (!requests_)
        requests_.reset(new TraceTrack("requests"));
    return requests_.get();
}

TraceTrack *
TraceRecorder::addDeviceTrack(const std::string &name)
{
    deviceTracks_.emplace_back(new TraceTrack(name));
    return deviceTracks_.back().get();
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
}

/** Microseconds with three decimals, printed from the integer
 *  ticks: every nanosecond survives, so a reader recovers them. */
void
appendTs(std::string &out, sim::SimTime t)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(t.ns() / 1000),
                  static_cast<long long>(t.ns() % 1000));
    out += buf;
}

/** Counter/arg values: exact integers stay integers. */
void
appendVal(std::string &out, double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
}

class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    /** Open one event object on its own line. */
    void
    open()
    {
        if (!first_)
            out_ += ",\n";
        first_ = false;
        out_ += '{';
    }
    void
    close()
    {
        out_ += '}';
    }
    void
    str(const char *key, const std::string &v)
    {
        key_(key);
        out_ += '"';
        appendEscaped(out_, v);
        out_ += '"';
    }
    void
    raw(const char *key, const char *v)
    {
        key_(key);
        out_ += v;
    }
    void
    num(const char *key, double v)
    {
        key_(key);
        appendVal(out_, v);
    }
    void
    uint(const char *key, std::uint64_t v)
    {
        key_(key);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        out_ += buf;
    }
    void
    ts(const char *key, sim::SimTime t)
    {
        key_(key);
        appendTs(out_, t);
    }
    /** Start an "args" sub-object; fields continue, endArgs closes. */
    void
    beginArgs()
    {
        key_("args");
        out_ += '{';
        objFirst_ = true;
    }
    void
    endArgs()
    {
        out_ += '}';
        objFirst_ = false;
    }

  private:
    void
    key_(const char *key)
    {
        if (out_.back() != '{')
            out_ += ',';
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }
    std::string &out_;
    bool first_ = true;
    bool objFirst_ = false;
};

void
writeMeta(JsonWriter &w, int pid, const std::string &name)
{
    w.open();
    w.str("name", "process_name");
    w.raw("ph", "\"M\"");
    w.num("pid", pid);
    w.num("tid", 0);
    w.beginArgs();
    w.str("name", name);
    w.endArgs();
    w.close();
}

void
writeInstant(JsonWriter &w, const char *name, int pid, sim::SimTime ts)
{
    w.open();
    w.str("name", name);
    w.raw("ph", "\"i\"");
    w.raw("s", "\"t\"");
    w.num("pid", pid);
    w.num("tid", 0);
    w.ts("ts", ts);
}

void
writeCounter(JsonWriter &w, const char *name, int pid, sim::SimTime ts,
             double value)
{
    w.open();
    w.str("name", name);
    w.raw("ph", "\"C\"");
    w.num("pid", pid);
    w.num("tid", 0);
    w.ts("ts", ts);
    w.beginArgs();
    w.num("value", value);
    w.endArgs();
    w.close();
}

void
writeSpanEdge(JsonWriter &w, bool begin, const std::string &task,
              std::uint64_t req, sim::SimTime ts)
{
    w.open();
    w.str("name", task);
    w.raw("cat", "\"request\"");
    w.raw("ph", begin ? "\"b\"" : "\"e\"");
    w.uint("id", req);
    w.num("pid", 0);
    w.num("tid", 0);
    w.ts("ts", ts);
}

/** Serialize one track's buffer; `pid` 0 is the requests process. */
void
writeTrack(JsonWriter &w, const TraceTrack &track, int pid,
           const std::unordered_map<std::uint64_t, std::string> &tasks)
{
    const auto taskOf = [&tasks](std::uint64_t req) -> std::string {
        const auto it = tasks.find(req);
        return it == tasks.end() ? std::string("request")
                                 : it->second;
    };
    double refresh_j = 0.0; ///< per-device cumulative counter
    for (const TraceEvent &e : track.events()) {
        switch (e.kind) {
          case TraceEventKind::Arrival:
            writeSpanEdge(w, true, track.taskName(e.name), e.req,
                          e.ts);
            w.close();
            break;
          case TraceEventKind::Requeue:
            writeInstant(w, "requeue", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::Dispatch:
            writeInstant(w, "dispatch", 0, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("device", e.v0);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::Admit:
            writeInstant(w, "admit", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("granted", e.v0);
            w.num("requested", e.v1);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::Defer:
            writeInstant(w, "defer", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("requested", e.v0);
            w.num("floor", e.v1);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::Reject:
            writeInstant(w, "reject", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("floor", e.v0);
            w.endArgs();
            w.close();
            writeSpanEdge(w, false, taskOf(e.req), e.req, e.ts);
            w.beginArgs();
            w.raw("outcome", "\"rejected\"");
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::Preempt:
            writeInstant(w, "preempt", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::FirstToken:
            writeInstant(w, "first_token", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::PrefillStep:
            refresh_j += e.v1;
            w.open();
            w.str("name", "prefill");
            w.raw("ph", "\"X\"");
            w.num("pid", pid);
            w.num("tid", 0);
            w.ts("ts", e.ts);
            w.ts("dur", e.dur);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("tokens", e.v0);
            w.endArgs();
            w.close();
            writeCounter(w, "refresh_J", pid, e.ts, refresh_j);
            break;
          case TraceEventKind::DecodeStep:
            refresh_j += e.v1;
            w.open();
            w.str("name", "decode");
            w.raw("ph", "\"X\"");
            w.num("pid", pid);
            w.num("tid", 0);
            w.ts("ts", e.ts);
            w.ts("dur", e.dur);
            w.beginArgs();
            w.num("batch", e.v0);
            w.endArgs();
            w.close();
            writeCounter(w, "batch", pid, e.ts, e.v0);
            writeCounter(w, "refresh_J", pid, e.ts, refresh_j);
            break;
          case TraceEventKind::Complete:
            writeSpanEdge(w, false, taskOf(e.req), e.req, e.ts);
            w.beginArgs();
            w.num("tokens", e.v0);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::KvInUse:
            writeCounter(w, "kv_bytes", pid, e.ts, e.v0);
            break;
          case TraceEventKind::QueueDepth:
            writeCounter(w, "queue_depth", pid, e.ts, e.v0);
            break;
          case TraceEventKind::KvPagesFree:
            writeCounter(w, "kv_pages_free", pid, e.ts, e.v0);
            break;
          case TraceEventKind::KvPagesShared:
            writeCounter(w, "kv_pages_shared", pid, e.ts, e.v0);
            break;
          case TraceEventKind::KvPrefixHits:
            writeCounter(w, "kv_prefix_hit_tokens", pid, e.ts,
                         e.v0);
            break;
          case TraceEventKind::Slo:
            writeInstant(w, "slo", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("ttft_deadline_s", e.v0);
            w.num("tpot_target_s", e.v1);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::DeviceFault:
            writeInstant(w, "device_fault", pid, e.ts);
            w.beginArgs();
            w.num("kind", e.v0);
            w.num("magnitude", e.v1);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::DeviceRecover:
            writeInstant(w, "device_recover", pid, e.ts);
            w.beginArgs();
            w.num("kind", e.v0);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::FaultEvict:
            writeInstant(w, "fault_evict", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.num("lost_tokens", e.v0);
            w.endArgs();
            w.close();
            break;
          case TraceEventKind::FaultFail:
            writeInstant(w, "fault_fail", pid, e.ts);
            w.beginArgs();
            w.uint("req", e.req);
            w.endArgs();
            w.close();
            writeSpanEdge(w, false, taskOf(e.req), e.req, e.ts);
            w.beginArgs();
            w.raw("outcome", "\"failed\"");
            w.endArgs();
            w.close();
            break;
        }
    }
}

} // namespace

std::string
TraceRecorder::toJson() const
{
    // Async span ends ("e") repeat the span's name; arrivals carry it,
    // so resolve request -> task once up front. A request that arrives
    // while the whole fleet is down begins on the requests track.
    std::unordered_map<std::uint64_t, std::string> tasks;
    const auto addTasks = [&tasks](const TraceTrack &track) {
        for (const TraceEvent &e : track.events()) {
            if (e.kind == TraceEventKind::Arrival)
                tasks.emplace(e.req, track.taskName(e.name));
        }
    };
    if (requests_)
        addTasks(*requests_);
    for (const auto &track : deviceTracks_)
        addTasks(*track);

    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
    JsonWriter w(out);
    writeMeta(w, 0, "requests");
    for (std::size_t i = 0; i < deviceTracks_.size(); ++i)
        writeMeta(w, static_cast<int>(1 + i), deviceTracks_[i]->name());
    if (requests_)
        writeTrack(w, *requests_, 0, tasks);
    for (std::size_t i = 0; i < deviceTracks_.size(); ++i)
        writeTrack(w, *deviceTracks_[i], static_cast<int>(1 + i),
                   tasks);
    out += "\n]}\n";
    return out;
}

bool
TraceRecorder::writeJson(const std::string &path) const
{
    const std::string json = toJson();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        warn("trace export failed: cannot open ", path);
        return false;
    }
    const std::size_t n =
        std::fwrite(json.data(), 1, json.size(), f);
    if (std::fclose(f) != 0 || n != json.size()) {
        warn("trace export failed: short write to ", path);
        return false;
    }
    return true;
}

} // namespace obs
} // namespace kelle
