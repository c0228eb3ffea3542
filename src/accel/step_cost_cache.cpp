#include "accel/step_cost_cache.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace kelle {
namespace accel {

namespace {
constexpr std::size_t kHalf = std::size_t{1} << 32;
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
    : memo_(std::move(memo)), pendingCells_(64) // 32 entries
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

std::size_t
StepCostCache::pendingCell(std::uint64_t key) const
{
    const std::size_t mask = pendingCells_.size() - 1;
    std::size_t cell =
        static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 32) & mask;
    // At most half full, so the probe always reaches an empty cell.
    for (std::uint32_t pos; (pos = pendingCells_[cell]) != 0 &&
                            pending_[pos - 1].key != key;)
        cell = (cell + 1) & mask;
    return cell;
}

void
StepCostCache::growPendingCells()
{
    pendingCells_.assign(2 * pendingCells_.size(), 0);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        pending_[i].cell = pendingCell(pending_[i].key);
        pendingCells_[pending_[i].cell] = static_cast<std::uint32_t>(i + 1);
    }
}

const StepReport &
StepCostCache::bufferedDecode(std::size_t batch,
                              std::size_t resident_total)
{
    KELLE_ASSERT(batch < kHalf && resident_total < kHalf,
                 "step shape exceeds the 32-bit key halves");
    const std::uint64_t key = std::uint64_t{batch} << 32 | resident_total;
    std::size_t cell = pendingCell(key);
    if (const std::uint32_t pos = pendingCells_[cell]; pos != 0) {
        ++stats_.hits;
        return pending_[pos - 1].report;
    }
    // The memo is frozen while buffering, so the cap reads the same
    // here whatever the other members do.
    if (memo_->size() + pending_.size() >= memo_->maxEntries()) {
        ++stats_.bypasses;
        overflow_ = costModel().decode(batch, resident_total);
        return overflow_;
    }
    ++stats_.misses;
    if (2 * (pending_.size() + 1) > pendingCells_.size()) {
        growPendingCells();
        cell = pendingCell(key);
    }
    pending_.push_back(
        {key, cell, costModel().decode(batch, resident_total)});
    pendingCells_[cell] = static_cast<std::uint32_t>(pending_.size());
    return pending_.back().report;
}

void
StepCostCache::publish()
{
    buffering_ = false;
    for (const Pending &p : pending_) {
        pendingCells_[p.cell] = 0;
        const std::size_t batch = p.key >> 32;
        const std::size_t n_sum = p.key & (kHalf - 1);
        // Past the cap nothing is stored; another member may have
        // published the same shape first.
        if (memo_->size() < memo_->maxEntries() &&
            memo_->find(batch, n_sum) == nullptr)
            memo_->insert(batch, n_sum, p.report);
    }
    pending_.clear();
}

} // namespace accel
} // namespace kelle
