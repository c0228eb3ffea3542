#include "spans.hpp"

#include <cstdio>

namespace kelle {
namespace benchmark {

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
}

std::uint64_t
SpanRecorder::begin(const char *name, std::uint64_t parent,
                    std::uint64_t cell_run)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.cellRun = cell_run;
    s.start = now();
    spans_.push_back(s);
    return spans_.size();
}

void
SpanRecorder::end(std::uint64_t id)
{
    spans_[id - 1].end = now();
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent != 0 && s.end >= s.start)
            child[s.parent - 1] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].end >= spans_[i].start)
            out[spans_[i].name] +=
                spans_[i].end - spans_[i].start - child[i];
    return out;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f, "{\"name\": \"process_name\", \"ph\": \"M\", "
                    "\"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"name\": \"kelle_bench\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < s.start)
            continue;
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"bench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span_id\": %zu, \"parent_id\": %llu, "
                     "\"cell_run\": %llu}}",
                     s.name, s.start * 1e6, (s.end - s.start) * 1e6, i + 1,
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.cellRun));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace benchmark
} // namespace kelle
