#include "serving/request_generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace kelle {
namespace serving {

namespace {

/** Bursty (MMPP) shape: the on phase arrives at kBurstFactor x the
 *  mean rate for kBurstFraction of the time, kBurstMeanArrivals
 *  arrivals per on dwell on average (which sets the burst length). */
constexpr double kBurstFactor = 4.0;
constexpr double kBurstFraction = 0.25;
constexpr double kBurstMeanArrivals = 8.0;

/** Exponential draw with the given rate; +inf when the rate is ~0. */
double
expDraw(Rng &rng, double rate)
{
    if (rate <= 1e-12)
        return std::numeric_limits<double>::infinity();
    // Guard log(0); uniform() is in [0, 1).
    double u = rng.uniform();
    while (u <= 1e-300)
        u = rng.uniform();
    return -std::log(u) / rate;
}

std::vector<std::pair<sim::Task, double>>
defaultMix()
{
    std::vector<std::pair<sim::Task, double>> mix;
    for (const auto &t : sim::hardwareTasks())
        mix.emplace_back(t, 1.0);
    return mix;
}

/** FNV-1a 64 over the session id and task name: the content identity
 *  of a session's shared system prompt (never 0 for a live prefix). */
std::uint64_t
sessionPrefixKey(std::uint64_t session, const std::string &task)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mixByte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    for (int i = 0; i < 8; ++i)
        mixByte(static_cast<unsigned char>(session >> (8 * i)));
    for (char c : task)
        mixByte(static_cast<unsigned char>(c));
    return h == 0 ? 1 : h;
}

const sim::Task &
sampleTask(Rng &rng, const std::vector<std::pair<sim::Task, double>> &mix)
{
    double total = 0.0;
    for (const auto &[task, weight] : mix)
        total += weight;
    KELLE_ASSERT(total > 0.0, "task mix has zero total weight");
    double pick = rng.uniform(0.0, total);
    for (const auto &entry : mix) {
        pick -= entry.second;
        if (pick < 0.0)
            return entry.first;
    }
    return mix.back().first;
}

} // namespace

std::string
toString(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::Poisson:
        return "poisson";
      case ArrivalProcess::Bursty:
        return "bursty";
    }
    return "?";
}

std::vector<Request>
generateTrace(const TrafficConfig &cfg)
{
    KELLE_ASSERT(cfg.ratePerSec > 0.0, "arrival rate must be positive");
    KELLE_ASSERT(cfg.numRequests > 0, "empty trace requested");

    const auto mix = cfg.mix.empty() ? defaultMix() : cfg.mix;
    Rng rng(cfg.seed);
    // Session assignment draws from its own stream so that enabling
    // sessions never perturbs the arrival times or task samples.
    Rng session_rng(cfg.seed ^ 0x5e5510f5a6edULL);

    // MMPP phase rates. The off-phase rate is whatever preserves the
    // long-run mean: rate = f*on + (1-f)*off.
    const double f = kBurstFraction;
    const double on_rate = cfg.ratePerSec * kBurstFactor;
    const double off_rate = std::max(
        0.0, (cfg.ratePerSec - f * on_rate) / (1.0 - f));
    const double on_dwell = kBurstMeanArrivals / on_rate;
    const double off_dwell = on_dwell * (1.0 - f) / f;

    std::vector<Request> trace;
    trace.reserve(cfg.numRequests);

    double now = 0.0;
    bool on_phase = false; // bursty traces start idle
    double phase_end =
        (cfg.process == ArrivalProcess::Bursty)
            ? expDraw(rng, 1.0 / off_dwell)
            : std::numeric_limits<double>::infinity();

    while (trace.size() < cfg.numRequests) {
        const double rate = (cfg.process == ArrivalProcess::Poisson)
                                ? cfg.ratePerSec
                                : (on_phase ? on_rate : off_rate);
        const double dt = expDraw(rng, rate);
        if (now + dt < phase_end) {
            now += dt;
            Request r;
            r.id = trace.size();
            r.task = sampleTask(rng, mix);
            r.arrival = sim::SimTime::fromSec(now);
            KELLE_ASSERT(r.arrival < sim::SimTime::never(),
                         "arrival past the simulation clock's range");
            r.ttftDeadlineSec = cfg.slo.ttftDeadlineSec(r.task.ctxLen);
            r.tpotTargetSec = std::max(0.0, cfg.slo.tpotSec);
            if (cfg.sessions > 0 && r.task.ctxLen > 1) {
                const std::uint64_t session =
                    session_rng.below(cfg.sessions);
                const double frac =
                    std::clamp(cfg.sessionPrefixFrac, 0.0, 1.0);
                r.prefixLen = std::min(
                    r.task.ctxLen - 1,
                    static_cast<std::size_t>(
                        frac *
                        static_cast<double>(r.task.ctxLen)));
                if (r.prefixLen > 0)
                    r.prefixKey =
                        sessionPrefixKey(session, r.task.name);
            }
            trace.push_back(r);
        } else {
            now = phase_end;
            on_phase = !on_phase;
            phase_end =
                now + expDraw(rng, 1.0 / (on_phase ? on_dwell : off_dwell));
        }
    }
    return trace;
}

std::vector<std::pair<sim::Task, double>>
pg19HeavyMix()
{
    std::vector<std::pair<sim::Task, double>> mix;
    for (const auto &t : sim::hardwareTasks())
        mix.emplace_back(t, t.name == sim::pg19().name ? 4.0 : 1.0);
    return mix;
}

double
offeredTokensPerSec(const TrafficConfig &cfg)
{
    const auto mix = cfg.mix.empty() ? defaultMix() : cfg.mix;
    double total_w = 0.0;
    double total_tok = 0.0;
    for (const auto &[task, weight] : mix) {
        total_w += weight;
        total_tok +=
            weight * static_cast<double>(task.ctxLen + task.decLen);
    }
    return total_w > 0.0 ? cfg.ratePerSec * total_tok / total_w : 0.0;
}

} // namespace serving
} // namespace kelle
