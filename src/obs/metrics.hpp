/**
 * @file
 * `MetricsRegistry`: named counters/gauges/histograms plus time
 * series, with fixed-interval resampling and a compact CSV/JSON dump.
 *
 * Scalars and histogram observations are pushed by the benches from
 * deterministic run outputs (ClusterReport roll-ups, trace events), so
 * every dump is a pure function of the run config. Time series hold
 * (sim-time, value) samples at the instants the value actually changed
 * (they are the trace's counter events — `ingestTrace` lifts them from
 * a `TraceRecorder`); `sample()` resamples every series onto one
 * fixed-interval grid with last-value-hold semantics, which is what
 * the CSV/JSON dumps emit. Registries iterate in name order, so dumps
 * are byte-stable.
 *
 * CSV schema (round-tripped by `parseCsv`, pinned by test_obs):
 *
 *   t_sec,<series name>,...          header
 *   <%.17g>,<%.17g>,...              one row per grid point
 */

#ifndef KELLE_OBS_METRICS_HPP
#define KELLE_OBS_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kelle {
namespace obs {

class TraceRecorder;

/** One (sim-time, value) observation. */
struct SeriesSample
{
    double tSec = 0.0;
    double value = 0.0;
};

/** A value sampled at the instants it changed. */
class TimeSeries
{
  public:
    /** Append an observation; `t_sec` must be non-decreasing. */
    void
    push(double t_sec, double value)
    {
        samples_.push_back(SeriesSample{t_sec, value});
    }
    const std::vector<SeriesSample> &samples() const
    {
        return samples_;
    }
    /** Last value at or before `t_sec` (`def` before the first). */
    double valueAt(double t_sec, double def = 0.0) const;
    /** Largest observation timestamp (0 when empty). */
    double endSec() const
    {
        return samples_.empty() ? 0.0 : samples_.back().tSec;
    }

  private:
    std::vector<SeriesSample> samples_;
};

/** Fixed linear bins over [lo, hi); out-of-range values clamp. */
struct Histogram
{
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> bins;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void observe(double v);

    /**
     * Nearest-rank quantile estimated from the bins: the upper edge
     * of the bin holding the ceil(q*count)'th observation, clamped to
     * the observed [min, max] envelope (so the estimate is exact at
     * the extremes and never leaves the data range). `q` in [0, 1];
     * 0 when the histogram is empty. The JSON dump emits p50/p95/p99
     * from this so downstream tools never re-derive percentiles from
     * raw buckets.
     */
    double quantile(double q) const;
};

class MetricsRegistry
{
  public:
    /** @name Scalars (gauges and monotone counters). @{ */
    void setGauge(const std::string &name, double v);
    void addCounter(const std::string &name, double dv);
    /** Value of a scalar, `def` when absent. */
    double gauge(const std::string &name, double def = 0.0) const;
    /** @} */

    /** Get-or-create; bounds apply only on creation. */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t nbins);
    TimeSeries &series(const std::string &name);

    /**
     * Lift a trace's counter tracks and request lifecycle into this
     * registry: per device `<dev>.kv_bytes` / `<dev>.queue_depth` /
     * `<dev>.batch` / `<dev>.refresh_j` series, plus `ttft_sec` and
     * `e2e_sec` histograms over every completed request.
     */
    void ingestTrace(const TraceRecorder &rec);

    /** Every series on one grid: t = 0, dt, 2dt, ... >= latest end. */
    struct SampledTable
    {
        double intervalSec = 0.0;
        std::vector<std::string> names;
        /** rows[k] = [t_sec, value per name...] */
        std::vector<std::vector<double>> rows;
    };
    /** Most grid rows an export may hold: 10^7 rows is over 19 years
     *  of sim time at the default 60 s interval. */
    static constexpr double kMaxSampleRows = 1e7;
    /** Grid rows sample() would produce (0 without series); the
     *  interval must be finite and > 0. */
    double sampleRows(double interval_sec) const;
    /** The grid itself; at most kMaxSampleRows rows. */
    SampledTable sample(double interval_sec) const;

    std::string toCsv(double interval_sec) const;
    std::string toJson(double interval_sec) const;
    /** Parse a toCsv() dump; false on malformed input. */
    static bool parseCsv(const std::string &text, SampledTable *out);

    /** toJson()/toCsv() by file extension (.csv). False, after one
     *  warning line naming the path, when the grid would exceed
     *  kMaxSampleRows or the file cannot be written. */
    bool writeFile(const std::string &path, double interval_sec) const;

  private:
    std::map<std::string, double> scalars_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, TimeSeries> series_;
};

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_METRICS_HPP
