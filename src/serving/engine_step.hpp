/**
 * @file
 * The unit of work a scheduling policy hands to the engine executor.
 *
 * At every step boundary the serving engine asks its `Policy` for an
 * `EngineStepPlan`: either one request's next prefill *chunk* (a fixed
 * number of prompt tokens costed by the step-cost model's
 * `prefillChunk` at the request's current KV offset) or one decode
 * iteration over the named continuous-batch members. Splitting prefill into chunks is what lets
 * a policy interleave a long prompt with decode iterations
 * (Sarathi-style) instead of stalling the whole batch for the full
 * prefill latency.
 */

#ifndef KELLE_SERVING_ENGINE_STEP_HPP
#define KELLE_SERVING_ENGINE_STEP_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace kelle {
namespace serving {

/** What the accelerator does during one engine step. */
enum class EngineStepKind
{
    Idle,         ///< nothing runnable; the engine waits for an event
    PrefillChunk, ///< one request's next span of prompt tokens
    DecodeStep,   ///< one decode iteration over the continuous batch
};

std::string toString(EngineStepKind k);

/**
 * One engine step, as chosen by a Policy at a step boundary. The
 * request indices refer to the engine's request table (trace order).
 *
 * Plans are filled in place into a caller-owned scratch object
 * (`Policy::nextStep`) so the per-step `decodeBatch` reuses its
 * capacity instead of reallocating at every step boundary; `reset()`
 * returns the plan to Idle without releasing that storage.
 */
struct EngineStepPlan
{
    EngineStepKind kind = EngineStepKind::Idle;
    /** PrefillChunk: the request whose prompt advances. */
    std::size_t requestIdx = 0;
    /** PrefillChunk: prompt tokens this chunk processes. */
    std::size_t chunkTokens = 0;
    /** DecodeStep: the batch members to step together. */
    std::vector<std::size_t> decodeBatch;

    /** Back to Idle, keeping decodeBatch capacity. */
    void
    reset()
    {
        kind = EngineStepKind::Idle;
        requestIdx = 0;
        chunkTokens = 0;
        decodeBatch.clear();
    }
};

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_ENGINE_STEP_HPP
