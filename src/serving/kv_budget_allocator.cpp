#include "serving/kv_budget_allocator.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace kelle {
namespace serving {

KvBudgetAllocator::KvBudgetAllocator(const AllocatorConfig &cfg)
    : capacityBytes_(cfg.capacityBytes),
      bytesPerToken_(cfg.bytesPerToken),
      highWatermark_(cfg.highWatermark)
{
    KELLE_ASSERT(capacityBytes_ > 0.0, "empty KV pool");
    KELLE_ASSERT(bytesPerToken_ > 0.0, "degenerate KV token size");
    KELLE_ASSERT(highWatermark_ > 0.0 && highWatermark_ <= 1.0,
                 "watermark outside (0, 1]");
    if (cfg.pagedTotalPages > 0) {
        kv::KvPagePoolConfig pc;
        pc.totalPages = cfg.pagedTotalPages;
        pc.blockTokens = cfg.pagedBlockTokens;
        pc.bytesPerPage = cfg.pagedBytesPerPage > 0.0
                              ? cfg.pagedBytesPerPage
                              : static_cast<double>(
                                    cfg.pagedBlockTokens) *
                                    bytesPerToken_;
        pc.sharePrefixes = cfg.pagedSharePrefixes;
        pool_ = std::make_unique<kv::KvPagePool>(pc);
        capacityBytes_ = static_cast<double>(pc.totalPages) *
                         pc.bytesPerPage;
    }
}

KvBudgetAllocator::Grant
KvBudgetAllocator::tryAdmit(std::size_t requested_tokens,
                            std::size_t min_tokens,
                            std::uint64_t prefix_key,
                            std::size_t prefix_tokens)
{
    KELLE_ASSERT(min_tokens > 0 && requested_tokens >= min_tokens,
                 "floor must be positive and <= requested budget");

    if (pool_ != nullptr) {
        // Degraded eDRAM (pool-shrink fault): admission only sees the
        // scaled page budget. Conservative on prefix hits — a covered
        // floor may still be deferred — but deterministic, and never
        // touches the healthy (scale == 1.0) path.
        if (capacityScale_ < 1.0) {
            const std::size_t floor_pages =
                (min_tokens + pool_->blockTokens() - 1) /
                pool_->blockTokens();
            const double cap_pages =
                capacityScale_ *
                static_cast<double>(pool_->totalPages());
            if (static_cast<double>(pool_->usedPages() +
                                    floor_pages) > cap_pages) {
                ++deferrals_;
                return Grant{};
            }
        }
        // Page-granular admission: reserve only the protected floor
        // now (attaching shared prefix pages copy-free); the rest of
        // the budget materializes lazily through growChain.
        const auto res =
            pool_->acquire(min_tokens, prefix_key, prefix_tokens);
        if (!res.ok) {
            ++deferrals_;
            return Grant{};
        }
        std::size_t tokens = requested_tokens;
        if (requested_tokens > res.capacityTokens) {
            // Eviction-pressure feedback, the byte formula mapped to
            // pages: beyond the capacity already reserved, promise
            // only what keeps the pool below the watermark.
            const double mark_pages =
                highWatermark_ * capacityScale_ *
                    static_cast<double>(pool_->totalPages()) -
                static_cast<double>(pool_->usedPages());
            const std::size_t below_mark =
                mark_pages > 0.0
                    ? static_cast<std::size_t>(mark_pages) *
                          pool_->blockTokens()
                    : 0;
            tokens = std::clamp(res.capacityTokens + below_mark,
                                min_tokens, requested_tokens);
        }
        if (tokens < requested_tokens)
            ++shrunkGrants_;
        logicalTokens_ += tokens;
        peakLogicalTokens_ =
            std::max(peakLogicalTokens_, logicalTokens_);
        Grant g;
        g.admitted = true;
        g.budgetTokens = tokens;
        g.chainId = res.chainId;
        g.prefixHitTokens = res.prefixHitTokens;
        g.chainCapacityTokens = res.capacityTokens;
        return g;
    }

    // Pool-shrink faults scale the capacity admission sees; the
    // multiply by 1.0 on the healthy path is bit-exact.
    const double cap_bytes = capacityScale_ * capacityBytes_;
    const double free_bytes = cap_bytes - inUseBytes_;
    const double full_bytes =
        static_cast<double>(requested_tokens) * bytesPerToken_;

    std::size_t tokens = requested_tokens;
    if (full_bytes > free_bytes ||
        (inUseBytes_ + full_bytes) / cap_bytes > highWatermark_) {
        // Eviction-pressure feedback: grant the largest budget that
        // stays below the watermark, never below the protected floor.
        const double below_mark =
            std::max(0.0, highWatermark_ * cap_bytes - inUseBytes_);
        tokens = static_cast<std::size_t>(below_mark / bytesPerToken_);
        tokens = std::clamp(tokens, min_tokens, requested_tokens);
    }

    const double bytes = static_cast<double>(tokens) * bytesPerToken_;
    if (bytes > free_bytes) {
        ++deferrals_;
        return Grant{};
    }

    inUseBytes_ += bytes;
    peakInUseBytes_ = std::max(peakInUseBytes_, inUseBytes_);
    KELLE_ASSERT(inUseBytes_ <= capacityBytes_ + 1e-6,
                 "KV pool oversubscribed");
    if (tokens < requested_tokens)
        ++shrunkGrants_;
    logicalTokens_ += tokens;
    peakLogicalTokens_ = std::max(peakLogicalTokens_, logicalTokens_);

    Grant g;
    g.admitted = true;
    g.budgetTokens = tokens;
    g.bytes = bytes;
    g.chainCapacityTokens = tokens; // reserved whole at admission
    return g;
}

void
KvBudgetAllocator::release(Grant &grant)
{
    KELLE_ASSERT(grant.admitted, "releasing an empty grant");
    KELLE_ASSERT(logicalTokens_ >= grant.budgetTokens,
                 "releasing more logical tokens than are granted");
    logicalTokens_ -= grant.budgetTokens;
    if (pool_ != nullptr) {
        KELLE_ASSERT(grant.chainId != kNoChain,
                     "paged grant lost its chain");
        pool_->release(grant.chainId);
        grant = Grant{};
        return;
    }
    KELLE_ASSERT(grant.bytes <= inUseBytes_ + 1e-6,
                 "releasing more than is reserved");
    inUseBytes_ = std::max(0.0, inUseBytes_ - grant.bytes);
    grant = Grant{};
}

bool
KvBudgetAllocator::growChain(Grant &grant, std::size_t tokens)
{
    KELLE_ASSERT(pool_ != nullptr && grant.admitted,
                 "growing a non-paged or empty grant");
    if (tokens <= grant.chainCapacityTokens)
        return true;
    const bool ok = pool_->grow(grant.chainId, tokens);
    grant.chainCapacityTokens = pool_->capacityTokens(grant.chainId);
    return ok;
}

void
KvBudgetAllocator::shrinkBudget(Grant &grant, std::size_t tokens)
{
    KELLE_ASSERT(grant.admitted && tokens <= grant.budgetTokens,
                 "budget clamp must shrink a live grant");
    logicalTokens_ -= grant.budgetTokens - tokens;
    grant.budgetTokens = tokens;
    ++budgetClips_;
}

void
KvBudgetAllocator::publishPrefix(const Grant &grant,
                                 std::uint64_t key,
                                 std::size_t tokens)
{
    KELLE_ASSERT(grant.admitted, "publishing from an empty grant");
    if (pool_ != nullptr) // a contiguous grant has no pages to share
        pool_->publishPrefix(grant.chainId, key, tokens);
}

void
KvBudgetAllocator::setCapacityScale(double scale)
{
    KELLE_ASSERT(scale > 0.0 && scale <= 1.0,
                 "capacity scale outside (0, 1]");
    capacityScale_ = scale;
}

std::size_t
KvBudgetAllocator::dropCachedPrefixes()
{
    return pool_ != nullptr ? pool_->dropCachedPrefixes() : 0;
}

std::size_t
KvBudgetAllocator::availableTokens() const
{
    if (pool_ != nullptr)
        return pool_->availablePages() * pool_->blockTokens();
    return static_cast<std::size_t>(
        (capacityBytes_ - inUseBytes_) / bytesPerToken_);
}

double
KvBudgetAllocator::inUseBytes() const
{
    if (pool_ != nullptr)
        return static_cast<double>(pool_->usedPages()) *
               pool_->bytesPerPage();
    return inUseBytes_;
}

double
KvBudgetAllocator::peakInUseBytes() const
{
    if (pool_ != nullptr)
        return static_cast<double>(pool_->peakUsedPages()) *
               pool_->bytesPerPage();
    return peakInUseBytes_;
}

double
KvBudgetAllocator::utilization() const
{
    return inUseBytes() / capacityBytes_;
}

std::size_t
KvBudgetAllocator::capacityTokens() const
{
    if (pool_ != nullptr)
        return pool_->totalPages() * pool_->blockTokens();
    return static_cast<std::size_t>(capacityBytes_ / bytesPerToken_);
}

} // namespace serving
} // namespace kelle
