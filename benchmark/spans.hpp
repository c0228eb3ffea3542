/**
 * @file
 * Host-time spans recorded by the benchmark's own code around its calls
 * into each layer (rep -> cell -> cluster.ctor / cluster.run, plus the
 * accel micro-timings). Spans are kept in memory and written once, at
 * exit, as Chrome trace-event JSON that Perfetto (ui.perfetto.dev) and
 * chrome://tracing load directly.
 *
 * Every span has a name, a start, an end and the id of the span that
 * caused it; the spans of one cell run also share a `cell_run` id. A
 * span's self time is its duration minus its children's durations
 * (children never overlap: the benchmark drives one call at a time).
 */

#ifndef KELLE_BENCHMARK_SPANS_HPP
#define KELLE_BENCHMARK_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kelle {
namespace benchmark {

class SpanRecorder
{
  public:
    SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

    /** Open a span; `name` must be a string literal. Returns its id
     *  (ids start at 1; 0 means "no parent"). */
    std::uint64_t begin(const char *name, std::uint64_t parent,
                        std::uint64_t cell_run = 0);
    void end(std::uint64_t id);

    /** A fresh id for the spans of one cell run. */
    std::uint64_t newCellRun() { return ++cellRuns_; }

    /** Self seconds (duration minus children) summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every closed span as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double start = 0.0; ///< seconds since the recorder was made
        double end = -1.0;  ///< < start while the span is open
        std::uint64_t parent = 0;
        std::uint64_t cellRun = 0;
    };
    double now() const;

    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_; ///< span id i lives at index i - 1
    std::uint64_t cellRuns_ = 0;
};

/** RAII span; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name, std::uint64_t parent,
              std::uint64_t cell_run = 0)
        : rec_(rec),
          id_(rec != nullptr ? rec->begin(name, parent, cell_run) : 0)
    {
    }
    ~SpanScope()
    {
        if (rec_ != nullptr)
            rec_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::uint64_t id_;
};

} // namespace benchmark
} // namespace kelle

#endif // KELLE_BENCHMARK_SPANS_HPP
