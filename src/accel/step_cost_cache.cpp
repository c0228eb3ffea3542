#include "accel/step_cost_cache.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace kelle {
namespace accel {

StepCostCache::StepCostCache(const SystemConfig &sys,
                             const model::ModelConfig &m,
                             std::size_t max_entries)
    // Decode slots are 32-bit; a cap past that is unbounded in
    // practice anyway.
    : costModel_(sys, m),
      maxEntries_(std::min<std::size_t>(
          max_entries, std::numeric_limits<std::uint32_t>::max()))
{
}

const StepReport &
StepCostCache::decodeStep(std::size_t batch, std::size_t resident_total)
{
    if (const StepReport *hit = lookupDecode(batch, resident_total)) {
        ++stats_.hits;
        return *hit;
    }
    if (decodeReports_.size() >= maxEntries_) {
        ++stats_.bypasses;
        overflow_ = costModel_.decode(batch, resident_total);
        return overflow_;
    }
    ++stats_.misses;
    decodeReports_.push_back(costModel_.decode(batch, resident_total));
    if (batch >= decodeIndex_.size())
        decodeIndex_.resize(batch + 1);
    auto &pages = decodeIndex_[batch];
    const std::size_t p = resident_total >> kPageBits;
    if (p >= pages.size())
        pages.resize(p + 1);
    if (pages[p] == nullptr)
        pages[p] = std::make_unique<IndexPage>(); // zeroed: all absent
    (*pages[p])[resident_total & (kPageTokens - 1)] =
        static_cast<std::uint32_t>(decodeReports_.size());
    return decodeReports_.back();
}

const StepReport &
StepCostCache::prefillChunk(std::size_t kv_offset, std::size_t chunk_len)
{
    constexpr std::size_t kHalf = std::size_t{1} << 32;
    KELLE_ASSERT(kv_offset < kHalf && chunk_len < kHalf,
                 "prefill chunk shape exceeds the 32-bit key halves");
    const std::uint64_t key =
        static_cast<std::uint64_t>(kv_offset) << 32 | chunk_len;
    const auto it = chunk_.find(key);
    if (it != chunk_.end()) {
        ++stats_.hits;
        return it->second;
    }
    if (chunk_.size() >= maxEntries_) {
        ++stats_.bypasses;
        overflow_ = costModel_.prefillChunk(kv_offset, chunk_len);
        return overflow_;
    }
    ++stats_.misses;
    return chunk_.emplace(key, costModel_.prefillChunk(kv_offset, chunk_len))
        .first->second;
}

} // namespace accel
} // namespace kelle
