/**
 * @file
 * Long-context capacity analysis (Section 8.4.1).
 *
 * With 8-bit weights resident in DRAM, the remaining DRAM capacity
 * bounds the KV cache and therefore the maximum supported input
 * length. The paper's walk-through for LLaMA2-7B on a 16 GB device:
 * ~19K tokens with a full fp16 cache, ~60K once AERP frees memory
 * after each layer's execution, ~240K with 4-bit KV on top.
 */

#ifndef KELLE_ACCEL_CAPACITY_HPP
#define KELLE_ACCEL_CAPACITY_HPP

#include "accel/timing_model.hpp"
#include "common/units.hpp"
#include "model/model_config.hpp"

namespace kelle {
namespace accel {

/** Inputs of the capacity analysis. */
struct CapacitySpec
{
    Bytes dramCapacity = Bytes::gib(16);
    int weightBits = 8;
    int kvBits = 16;
    /**
     * AERP layer-wise release: eviction runs immediately after each
     * layer's execution, so at the peak only a few pipeline-in-flight
     * layers hold the full input-length cache while the rest hold the
     * evicted budget (Section 8.4.1 "freeing memory to accommodate
     * the full input sequence in later layers").
     */
    bool aerpLayerwise = false;
    /** Post-eviction budget N' per layer when AERP is active. */
    std::size_t budget = 2048;
    /**
     * Layers concurrently holding a full-length cache at the peak
     * (prefill chunking keeps eviction a few layers behind
     * execution). 0 = auto (layers / 3, which reproduces the paper's
     * 19K -> ~60K walk-through ratio for LLaMA2-7B).
     */
    std::size_t concurrentFullLayers = 0;
};

/** Result of the analysis. */
struct CapacityReport
{
    double weightBytes = 0.0;
    double freeBytes = 0.0;
    double bytesPerTokenPeak = 0.0; ///< peak KV bytes per input token
    std::size_t maxTokens = 0;
};

/** A system's DRAM capacity, weight bits and KV bits (no layer-wise
 *  release): the one mapping from a device to its §8.4.1 KV pool. */
CapacitySpec capacitySpecOf(const SystemConfig &system);

/** Maximum supported input length for a model on a device. */
CapacityReport maxSupportedTokens(const model::ModelConfig &m,
                                  const CapacitySpec &spec);

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_CAPACITY_HPP
