#include "accel/capacity.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace kelle {
namespace accel {

CapacitySpec
capacitySpecOf(const SystemConfig &system)
{
    CapacitySpec spec;
    spec.dramCapacity = system.tech.dram.capacity();
    spec.weightBits = system.tech.weightBits;
    spec.kvBits = system.kv.kvBits;
    return spec;
}

CapacityReport
maxSupportedTokens(const model::ModelConfig &m, const CapacitySpec &spec)
{
    CapacityReport rep;
    rep.weightBytes = m.weightBytes(spec.weightBits);
    rep.freeBytes = spec.dramCapacity.b() - rep.weightBytes;
    KELLE_ASSERT(rep.freeBytes > 0, "weights alone exceed DRAM: ",
                 rep.weightBytes, " > ", spec.dramCapacity.b());

    const double per_layer = m.kvBytesPerTokenPerLayer(spec.kvBits);
    const double layers = static_cast<double>(m.layers);

    if (!spec.aerpLayerwise) {
        // Every layer holds the full-length cache simultaneously.
        rep.bytesPerTokenPeak = per_layer * layers;
        rep.maxTokens = static_cast<std::size_t>(rep.freeBytes /
                                                 rep.bytesPerTokenPeak);
        return rep;
    }

    // AERP layer-wise release: at the peak, `k` in-flight layers hold
    // the full N-token cache while every other layer already evicted
    // down to the budget:
    //   k * N * per_layer + (L-k) * N' * per_layer <= free
    double k = spec.concurrentFullLayers > 0
                   ? static_cast<double>(spec.concurrentFullLayers)
                   : std::max(1.0, layers / 3.0);
    k = std::min(k, layers);
    const double budget_bytes = static_cast<double>(spec.budget) *
                                per_layer * (layers - k);
    const double avail = rep.freeBytes - budget_bytes;
    KELLE_ASSERT(avail > 0, "budget caches alone exceed free DRAM");
    rep.bytesPerTokenPeak = per_layer * k;
    rep.maxTokens =
        static_cast<std::size_t>(avail / rep.bytesPerTokenPeak);
    return rep;
}

} // namespace accel
} // namespace kelle
