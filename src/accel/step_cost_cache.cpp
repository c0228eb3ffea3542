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
    : sys_(sys), model_(m),
      maxEntries_(std::min<std::size_t>(
          max_entries, std::numeric_limits<std::uint32_t>::max()))
{
}

const StepReport &
StepCostCache::batchedDecodeStep(
    const std::vector<std::size_t> &resident_tokens)
{
    std::size_t n_sum = 0;
    for (std::size_t n : resident_tokens)
        n_sum += n;
    const std::size_t batch = resident_tokens.size();
    if (const StepReport *hit = lookupDecode(batch, n_sum)) {
        ++stats_.hits;
        return *hit;
    }
    if (decodeReports_.size() >= maxEntries_) {
        ++stats_.bypasses;
        overflow_ =
            simulateBatchedDecodeStep(sys_, model_, resident_tokens);
        return overflow_;
    }
    ++stats_.misses;
    // Computed from the caller's member distribution; any batch with
    // the same (B, N) key produces these exact doubles (see the
    // header note on the exact affine summation).
    decodeReports_.push_back(
        simulateBatchedDecodeStep(sys_, model_, resident_tokens));
    if (batch >= decodeIndex_.size())
        decodeIndex_.resize(batch + 1);
    auto &pages = decodeIndex_[batch];
    const std::size_t p = n_sum >> kPageBits;
    if (p >= pages.size())
        pages.resize(p + 1);
    if (pages[p] == nullptr)
        pages[p] = std::make_unique<IndexPage>(); // zeroed: all absent
    (*pages[p])[n_sum & (kPageTokens - 1)] =
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
        overflow_ =
            simulatePrefillChunk(sys_, model_, kv_offset, chunk_len);
        return overflow_;
    }
    ++stats_.misses;
    const StepReport rep =
        simulatePrefillChunk(sys_, model_, kv_offset, chunk_len);
    return chunk_.emplace(key, rep).first->second;
}

} // namespace accel
} // namespace kelle
