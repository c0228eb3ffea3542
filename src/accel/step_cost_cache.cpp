#include "accel/step_cost_cache.hpp"

#include <algorithm>
#include <limits>

namespace kelle {
namespace accel {

DecodeMemo::DecodeMemo(const SystemConfig &sys,
                       const model::ModelConfig &m,
                       std::size_t max_entries)
    // Slots are 32-bit; a cap past that is unbounded in practice
    // anyway.
    : sys_(sys), model_(m), costModel_(sys_, model_),
      maxEntries_(std::min<std::size_t>(
          max_entries, std::numeric_limits<std::uint32_t>::max()))
{
}

const StepReport &
DecodeMemo::insert(std::size_t batch, std::size_t n_sum,
                   const StepReport &rep)
{
    reports_.push_back(rep);
    if (batch >= index_.size())
        index_.resize(batch + 1);
    auto &pages = index_[batch];
    const std::size_t p = n_sum >> kPageBits;
    if (p >= pages.size())
        pages.resize(p + 1);
    if (pages[p] == nullptr)
        pages[p] = std::make_unique<IndexPage>(); // zeroed: all absent
    (*pages[p])[n_sum & (kPageTokens - 1)] =
        static_cast<std::uint32_t>(reports_.size());
    return reports_.back();
}

StepCostCache::StepCostCache(const SystemConfig &sys,
                             const model::ModelConfig &m,
                             std::size_t max_entries)
    : StepCostCache(std::make_shared<DecodeMemo>(sys, m, max_entries))
{
}

StepCostCache::StepCostCache(std::shared_ptr<DecodeMemo> memo)
    : memo_(std::move(memo))
{
}

StepCostCache
StepCostCache::sharing(const StepCostCache &peer)
{
    return StepCostCache(peer.memo_);
}

const StepReport &
StepCostCache::missedDecode(std::size_t batch, std::size_t resident_total)
{
    if (memo_->size() >= memo_->maxEntries()) {
        ++stats_.bypasses;
        overflow_ = costModel().decode(batch, resident_total);
        return overflow_;
    }
    ++stats_.misses;
    return memo_->insert(batch, resident_total,
                         costModel().decode(batch, resident_total));
}

} // namespace accel
} // namespace kelle
