/**
 * @file
 * Seeded synthetic arrival traces over the §7.1 workload mix.
 *
 * Two arrival processes:
 *  - Poisson: independent exponential inter-arrival times at the
 *    configured mean rate (steady multi-user traffic);
 *  - Bursty: a two-state Markov-modulated Poisson process. An "on"
 *    phase arrives at 4x the mean rate and fills a quarter of the
 *    time, an "off" phase at whatever residual rate preserves the
 *    long-run mean; phase dwells are exponential, 8 arrivals per on
 *    dwell on average. This is the classic edge-traffic shape (bursts
 *    of activity between idle stretches).
 *
 * Each arrival samples a task from a weighted mix (default: the four
 * hardware tasks LA/TQ/QP/PG19 with equal weight), so prompt/decode
 * lengths and requested KV budgets N' follow the paper's workloads.
 * Everything is driven by one seeded Rng: a trace is a pure function
 * of its TrafficConfig.
 */

#ifndef KELLE_SERVING_REQUEST_GENERATOR_HPP
#define KELLE_SERVING_REQUEST_GENERATOR_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serving/request.hpp"
#include "sim/workloads.hpp"

namespace kelle {
namespace serving {

enum class ArrivalProcess
{
    Poisson,
    Bursty,
};

std::string toString(ArrivalProcess p);

/**
 * Per-request SLO targets, resolved per task at trace generation. The
 * TTFT deadline scales with the prompt so long-context tasks (QP,
 * PG19) get proportionally more prefill headroom than chat-sized ones
 * (LA), which is what makes deadline-aware policies meaningful across
 * the mix. Zeroing a field disables that criterion.
 */
struct SloSpec
{
    /** Flat TTFT allowance in seconds (queueing + scheduling). */
    double ttftBaseSec = 10.0;
    /** Extra TTFT allowance per prompt token (prefill-rate target). */
    double ttftPerCtxTokenSec = 0.02;
    /** TPOT target: mean seconds per decode token. */
    double tpotSec = 0.5;

    /** The TTFT deadline (seconds after arrival) of a ctx_len prompt. */
    double
    ttftDeadlineSec(std::size_t ctx_len) const
    {
        if (ttftBaseSec <= 0.0 && ttftPerCtxTokenSec <= 0.0)
            return 0.0;
        return ttftBaseSec +
               ttftPerCtxTokenSec * static_cast<double>(ctx_len);
    }
};

/** Arrival-trace configuration. */
struct TrafficConfig
{
    double ratePerSec = 0.02; ///< long-run mean arrival rate
    ArrivalProcess process = ArrivalProcess::Poisson;
    std::size_t numRequests = 64;
    std::uint64_t seed = 42;
    /**
     * Multi-turn sessions (0 = off, every prompt unique). With S > 0,
     * each arrival is assigned to one of S seeded sessions and stamps
     * the (session, task)-derived prefix key on its request: requests
     * from the same session and task class share a system prompt of
     * `sessionPrefixFrac * ctxLen` tokens, which the paged KV pool
     * stores once and every follow-up turn attaches copy-free. The
     * session stream draws from its own Rng, so the arrival trace is
     * byte-identical to sessions = 0.
     */
    std::size_t sessions = 0;
    /** Fraction of each prompt covered by the shared session prefix. */
    double sessionPrefixFrac = 0.5;
    /** Weighted task mix; empty selects hardwareTasks() equally. */
    std::vector<std::pair<sim::Task, double>> mix;
    /** Per-task TTFT/TPOT deadlines stamped on every request. */
    SloSpec slo;
};

/**
 * Generate the arrival trace: `numRequests` requests with strictly
 * increasing ids, non-decreasing arrival times and sampled tasks.
 * Deterministic for a fixed config.
 */
std::vector<Request> generateTrace(const TrafficConfig &cfg);

/** Mean offered load in tokens/s (prompt + decode) of the mix. */
double offeredTokensPerSec(const TrafficConfig &cfg);

/**
 * The §7.1 mix tilted toward PG19 (weight 4, the rest 1): long-decode
 * requests dominate the pool and the batch, the setting where chunked
 * prefill and deadline-aware admission pay off.
 */
std::vector<std::pair<sim::Task, double>> pg19HeavyMix();

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_REQUEST_GENERATOR_HPP
