#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace kelle {
namespace obs {

double
TimeSeries::valueAt(double t_sec, double def) const
{
    // First sample strictly after t: the answer precedes it.
    const auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t_sec,
        [](double t, const SeriesSample &s) { return t < s.tSec; });
    if (it == samples_.begin())
        return def;
    return (it - 1)->value;
}

void
Histogram::observe(double v)
{
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    ++count;
    sum += v;
    if (bins.empty() || !(hi > lo))
        return;
    const double frac = (v - lo) / (hi - lo);
    std::ptrdiff_t i =
        static_cast<std::ptrdiff_t>(frac *
                                    static_cast<double>(bins.size()));
    i = std::clamp<std::ptrdiff_t>(
        i, 0, static_cast<std::ptrdiff_t>(bins.size()) - 1);
    ++bins[static_cast<std::size_t>(i)];
}

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (bins.empty() || !(hi > lo))
        return max;
    const double qc = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(qc * static_cast<double>(count)));
    if (rank == 0)
        rank = 1;
    const double width = (hi - lo) / static_cast<double>(bins.size());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        cum += bins[i];
        if (cum >= rank)
            return std::clamp(
                lo + width * static_cast<double>(i + 1), min, max);
    }
    return max;
}

void
MetricsRegistry::setGauge(const std::string &name, double v)
{
    scalars_[name] = v;
}

void
MetricsRegistry::addCounter(const std::string &name, double dv)
{
    scalars_[name] += dv;
}

double
MetricsRegistry::gauge(const std::string &name, double def) const
{
    const auto it = scalars_.find(name);
    return it == scalars_.end() ? def : it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, double lo,
                           double hi, std::size_t nbins)
{
    const auto it = histograms_.find(name);
    if (it != histograms_.end())
        return it->second;
    Histogram h;
    h.lo = lo;
    h.hi = hi;
    h.bins.assign(nbins, 0);
    return histograms_.emplace(name, std::move(h)).first->second;
}

TimeSeries &
MetricsRegistry::series(const std::string &name)
{
    return series_[name];
}

void
MetricsRegistry::ingestTrace(const TraceRecorder &rec)
{
    Histogram &ttft = histogram("ttft_sec", 0.0, 120.0, 24);
    Histogram &e2e = histogram("e2e_sec", 0.0, 600.0, 24);
    std::unordered_map<std::uint64_t, double> arrivals;
    for (const auto &track : rec.deviceTracks()) {
        const std::string &dev = track->name();
        TimeSeries &kv = series(dev + ".kv_bytes");
        TimeSeries &depth = series(dev + ".queue_depth");
        TimeSeries &batch = series(dev + ".batch");
        TimeSeries &refresh = series(dev + ".refresh_j");
        // Paged-pool series materialize only when the trace carries
        // paged counters, keeping contiguous-mode exports unchanged.
        TimeSeries *pagesFree = nullptr;
        TimeSeries *pagesShared = nullptr;
        TimeSeries *prefixHits = nullptr;
        double refresh_j = 0.0;
        for (const TraceEvent &e : track->events()) {
            const double t = e.ts.sec();
            switch (e.kind) {
              case TraceEventKind::Arrival:
                arrivals.emplace(e.req, t);
                break;
              case TraceEventKind::FirstToken: {
                const auto it = arrivals.find(e.req);
                if (it != arrivals.end())
                    ttft.observe(t - it->second);
                break;
              }
              case TraceEventKind::Complete: {
                const auto it = arrivals.find(e.req);
                if (it != arrivals.end())
                    e2e.observe(t - it->second);
                break;
              }
              case TraceEventKind::KvInUse:
                kv.push(t, e.v0);
                break;
              case TraceEventKind::QueueDepth:
                depth.push(t, e.v0);
                break;
              case TraceEventKind::PrefillStep:
                refresh_j += e.v1;
                refresh.push(t, refresh_j);
                break;
              case TraceEventKind::DecodeStep:
                refresh_j += e.v1;
                refresh.push(t, refresh_j);
                batch.push(t, e.v0);
                break;
              case TraceEventKind::KvPagesFree:
                if (pagesFree == nullptr)
                    pagesFree = &series(dev + ".kv_pages_free");
                pagesFree->push(t, e.v0);
                break;
              case TraceEventKind::KvPagesShared:
                if (pagesShared == nullptr)
                    pagesShared = &series(dev + ".kv_pages_shared");
                pagesShared->push(t, e.v0);
                break;
              case TraceEventKind::KvPrefixHits:
                if (prefixHits == nullptr)
                    prefixHits =
                        &series(dev + ".kv_prefix_hit_tokens");
                prefixHits->push(t, e.v0);
                break;
              default:
                break;
            }
        }
    }
}

double
MetricsRegistry::sampleRows(double interval_sec) const
{
    KELLE_ASSERT(interval_sec > 0.0 && std::isfinite(interval_sec),
                 "sampling interval must be finite and > 0, got ",
                 interval_sec);
    if (series_.empty())
        return 0.0;
    double end = 0.0;
    for (const auto &kv : series_)
        end = std::max(end, kv.second.endSec());
    // Grid covers the latest observation: last point >= end.
    return std::ceil(end / interval_sec) + 1.0;
}

MetricsRegistry::SampledTable
MetricsRegistry::sample(double interval_sec) const
{
    const double grid_rows = sampleRows(interval_sec);
    KELLE_ASSERT(grid_rows <= kMaxSampleRows, grid_rows,
                 " sample rows exceed the export limit");
    SampledTable out;
    out.intervalSec = interval_sec;
    for (const auto &kv : series_)
        out.names.push_back(kv.first);
    const auto rows = static_cast<std::size_t>(grid_rows);
    out.rows.reserve(rows);
    for (std::size_t k = 0; k < rows; ++k) {
        const double t = static_cast<double>(k) * interval_sec;
        std::vector<double> row;
        row.reserve(1 + out.names.size());
        row.push_back(t);
        for (const auto &kv : series_)
            row.push_back(kv.second.valueAt(t));
        out.rows.push_back(std::move(row));
    }
    return out;
}

namespace {

/** %.17g round-trips every double bit-exactly through strtod. */
void
appendExact(std::string &out, double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace

std::string
MetricsRegistry::toCsv(double interval_sec) const
{
    const SampledTable table = sample(interval_sec);
    std::string out = "t_sec";
    for (const std::string &name : table.names) {
        out += ',';
        out += name;
    }
    out += '\n';
    for (const auto &row : table.rows) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i > 0)
                out += ',';
            appendExact(out, row[i]);
        }
        out += '\n';
    }
    return out;
}

std::string
MetricsRegistry::toJson(double interval_sec) const
{
    std::string out = "{\"schema\":\"kelle.metrics/v2\",";
    out += "\"interval_sec\":";
    appendExact(out, interval_sec);
    out += ",\n\"scalars\":{";
    bool first = true;
    for (const auto &kv : scalars_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  \"" + kv.first + "\":";
        appendExact(out, kv.second);
    }
    out += "},\n\"histograms\":{";
    first = true;
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        out += first ? "\n" : ",\n";
        first = false;
        out += "  \"" + kv.first + "\":{\"lo\":";
        appendExact(out, h.lo);
        out += ",\"hi\":";
        appendExact(out, h.hi);
        out += ",\"count\":";
        appendExact(out, static_cast<double>(h.count));
        out += ",\"sum\":";
        appendExact(out, h.sum);
        out += ",\"min\":";
        appendExact(out, h.min);
        out += ",\"max\":";
        appendExact(out, h.max);
        out += ",\"p50\":";
        appendExact(out, h.quantile(0.50));
        out += ",\"p95\":";
        appendExact(out, h.quantile(0.95));
        out += ",\"p99\":";
        appendExact(out, h.quantile(0.99));
        out += ",\"bins\":[";
        for (std::size_t i = 0; i < h.bins.size(); ++i) {
            if (i > 0)
                out += ',';
            appendExact(out, static_cast<double>(h.bins[i]));
        }
        out += "]}";
    }
    out += "},\n\"series\":{\"names\":[";
    const SampledTable table = sample(interval_sec);
    for (std::size_t i = 0; i < table.names.size(); ++i) {
        if (i > 0)
            out += ',';
        out += "\"" + table.names[i] + "\"";
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        out += r > 0 ? ",\n" : "\n";
        out += '[';
        for (std::size_t i = 0; i < table.rows[r].size(); ++i) {
            if (i > 0)
                out += ',';
            appendExact(out, table.rows[r][i]);
        }
        out += ']';
    }
    out += "]}}\n";
    return out;
}

bool
MetricsRegistry::parseCsv(const std::string &text, SampledTable *out)
{
    *out = SampledTable{};
    std::size_t pos = 0;
    bool header = true;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t c = 0;
        while (true) {
            const std::size_t comma = line.find(',', c);
            cells.push_back(line.substr(
                c, comma == std::string::npos ? std::string::npos
                                              : comma - c));
            if (comma == std::string::npos)
                break;
            c = comma + 1;
        }
        if (header) {
            if (cells.empty() || cells[0] != "t_sec")
                return false;
            out->names.assign(cells.begin() + 1, cells.end());
            header = false;
            continue;
        }
        if (cells.size() != out->names.size() + 1)
            return false;
        std::vector<double> row;
        row.reserve(cells.size());
        for (const std::string &cell : cells) {
            char *endp = nullptr;
            row.push_back(std::strtod(cell.c_str(), &endp));
            if (endp == cell.c_str() || *endp != '\0')
                return false;
        }
        out->rows.push_back(std::move(row));
    }
    if (out->rows.size() >= 2)
        out->intervalSec = out->rows[1][0] - out->rows[0][0];
    return !header;
}

bool
MetricsRegistry::writeFile(const std::string &path,
                           double interval_sec) const
{
    const double rows = sampleRows(interval_sec);
    if (rows > kMaxSampleRows) {
        warn("metrics export failed: a ", interval_sec,
             " s interval needs ", rows, " rows (limit ", kMaxSampleRows,
             ") for ", path);
        return false;
    }
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    const std::string body =
        csv ? toCsv(interval_sec) : toJson(interval_sec);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        warn("metrics export failed: cannot open ", path);
        return false;
    }
    const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
    if (std::fclose(f) != 0 || n != body.size()) {
        warn("metrics export failed: short write to ", path);
        return false;
    }
    return true;
}

} // namespace obs
} // namespace kelle
