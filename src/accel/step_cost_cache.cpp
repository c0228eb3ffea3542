#include "accel/step_cost_cache.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace kelle {
namespace accel {

namespace {

constexpr std::size_t kHalf = std::size_t{1} << 32;

/** (high << 32 | low), both halves below 2^32. */
std::uint64_t
packKey(std::size_t high, std::size_t low)
{
    KELLE_ASSERT(high < kHalf && low < kHalf,
                 "step shape exceeds the 32-bit key halves");
    return static_cast<std::uint64_t>(high) << 32 | low;
}

} // namespace

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
StepCostCache::decodeStep(std::size_t batch, std::size_t resident_total)
{
    if (const StepReport *hit = memo_->find(batch, resident_total)) {
        ++stats_.hits;
        return *hit;
    }
    if (buffering_)
        return bufferedDecode(batch, resident_total);
    if (memo_->size() >= memo_->maxEntries()) {
        ++stats_.bypasses;
        overflow_ = costModel().decode(batch, resident_total);
        return overflow_;
    }
    ++stats_.misses;
    return memo_->insert(batch, resident_total,
                         costModel().decode(batch, resident_total));
}

const StepReport &
StepCostCache::bufferedDecode(std::size_t batch,
                              std::size_t resident_total)
{
    const std::uint64_t key = packKey(batch, resident_total);
    if (const auto it = pending_.find(key); it != pending_.end()) {
        ++stats_.hits;
        return it->second;
    }
    // The memo is frozen while buffering, so the cap reads the same
    // here whatever the other members do.
    if (memo_->size() + pending_.size() >= memo_->maxEntries()) {
        ++stats_.bypasses;
        overflow_ = costModel().decode(batch, resident_total);
        return overflow_;
    }
    ++stats_.misses;
    pendingOrder_.push_back(key);
    return pending_.emplace(key, costModel().decode(batch, resident_total))
        .first->second;
}

void
StepCostCache::publish()
{
    buffering_ = false;
    for (const std::uint64_t key : pendingOrder_) {
        if (memo_->size() >= memo_->maxEntries())
            break;
        const std::size_t batch = key >> 32;
        const std::size_t n_sum = key & (kHalf - 1);
        // Another member may have published the same shape first.
        if (memo_->find(batch, n_sum) == nullptr)
            memo_->insert(batch, n_sum, pending_.find(key)->second);
    }
    pendingOrder_.clear();
    pending_.clear();
}

} // namespace accel
} // namespace kelle
