#include "kvcache/kv_page_pool.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace kelle {
namespace kv {

KvPagePool::KvPagePool(const KvPagePoolConfig &cfg) : cfg_(cfg)
{
    KELLE_ASSERT(cfg_.totalPages > 0, "empty page pool");
    KELLE_ASSERT(cfg_.blockTokens > 0, "degenerate page size");
    pages_.resize(cfg_.totalPages);
    freeList_.reserve(cfg_.totalPages);
    // LIFO free list seeded so the first allocation hands out page 0.
    for (std::size_t p = cfg_.totalPages; p > 0; --p)
        freeList_.push_back(static_cast<std::uint32_t>(p - 1));
}

bool
KvPagePool::hasFrozenPartialTail(const Chain &c) const
{
    return c.sharedPages > 0 &&
           c.frozenTokens < c.sharedPages * cfg_.blockTokens;
}

std::size_t
KvPagePool::capacityOf(const Chain &c) const
{
    // Invariant: a chain with a frozen partial tail owns no pages of
    // its own (growth past the frozen boundary CoWs the tail first),
    // so its capacity is exactly the frozen token count.
    if (hasFrozenPartialTail(c))
        return c.frozenTokens;
    return c.pages.size() * cfg_.blockTokens;
}

void
KvPagePool::notePressure()
{
    peakUsedPages_ = std::max(peakUsedPages_, usedPages());
}

bool
KvPagePool::allocPage(std::uint32_t *out)
{
    if (freeList_.empty())
        reclaimCached();
    if (freeList_.empty())
        return false;
    const std::uint32_t p = freeList_.back();
    freeList_.pop_back();
    KELLE_ASSERT(pages_[p].refs == 0 && !pages_[p].indexed,
                 "free list held a referenced page");
    pages_[p].refs = 1;
    notePressure();
    *out = p;
    return true;
}

void
KvPagePool::refPage(std::uint32_t p)
{
    Page &pg = pages_[p];
    KELLE_ASSERT(pg.refs > 0, "attaching an unreferenced page");
    if (pg.refs == 1 && pg.indexed) {
        // Cached page returns to active use.
        --cachedPages_;
        notePressure();
    }
    ++pg.refs;
}

void
KvPagePool::unrefPage(std::uint32_t p)
{
    Page &pg = pages_[p];
    KELLE_ASSERT(pg.refs > 0, "double release of a page");
    --pg.refs;
    if (pg.refs == 0) {
        KELLE_ASSERT(!pg.indexed, "prefix index lost its reference");
        freeList_.push_back(p);
    } else if (pg.refs == 1 && pg.indexed) {
        ++cachedPages_;
    }
}

void
KvPagePool::dropOldestPublished()
{
    const std::uint64_t key = publishOrder_[reclaimCursor_];
    const auto it = published_.find(key);
    if (it != published_.end() &&
        it->second.order == reclaimCursor_) {
        if (it->second.ownerChain != kNoChain)
            chains_[it->second.ownerChain].publishedKey = 0;
        for (std::uint32_t p : it->second.pages) {
            Page &pg = pages_[p];
            pg.indexed = false;
            --indexedPages_;
            if (pg.refs == 1)
                --cachedPages_;
            unrefPage(p);
        }
        published_.erase(it);
        ++cachedReclaims_;
    }
    ++reclaimCursor_;
}

void
KvPagePool::reclaimCached()
{
    // Oldest-published-first: walk the publish log, dropping whole
    // entries until a page actually lands on the free list. Entries
    // whose pages still have live sharers free nothing but also stop
    // attracting new sharers.
    while (freeList_.empty() && reclaimCursor_ < publishOrder_.size())
        dropOldestPublished();
}

std::size_t
KvPagePool::dropCachedPrefixes()
{
    const std::size_t before = freeList_.size();
    while (reclaimCursor_ < publishOrder_.size())
        dropOldestPublished();
    return freeList_.size() - before;
}

bool
KvPagePool::growChain(Chain &c, std::size_t tokens)
{
    while (capacityOf(c) < tokens) {
        if (hasFrozenPartialTail(c)) {
            // First divergent append past the frozen boundary: copy
            // the shared partial tail into a private page.
            std::uint32_t p = 0;
            if (!allocPage(&p))
                return false;
            const std::uint32_t old = c.pages[c.sharedPages - 1];
            c.pages[c.sharedPages - 1] = p;
            --c.sharedPages;
            c.frozenTokens = c.sharedPages * cfg_.blockTokens;
            unrefPage(old);
            ++cowCopies_;
            continue;
        }
        std::uint32_t p = 0;
        if (!allocPage(&p))
            return false;
        c.pages.push_back(p);
    }
    return true;
}

KvPagePool::Reservation
KvPagePool::acquire(std::size_t tokens, std::uint64_t prefixKey,
                    std::size_t prefixTokens)
{
    KELLE_ASSERT(tokens > 0, "empty reservation");
    Reservation res;
    std::size_t id;
    if (freeChains_.empty()) {
        id = chains_.size();
        chains_.emplace_back();
    } else {
        id = freeChains_.back();
        freeChains_.pop_back();
    }
    Chain &c = chains_[id];
    c.active = true;

    std::size_t hit = 0;
    if (cfg_.sharePrefixes && prefixKey != 0 && prefixTokens > 0) {
        const auto it = published_.find(prefixKey);
        if (it != published_.end()) {
            const std::size_t covered =
                std::min(it->second.tokens, prefixTokens);
            const std::size_t attach =
                (covered + cfg_.blockTokens - 1) / cfg_.blockTokens;
            for (std::size_t i = 0; i < attach; ++i) {
                const std::uint32_t p = it->second.pages[i];
                refPage(p);
                c.pages.push_back(p);
            }
            c.sharedPages = attach;
            c.frozenTokens = covered;
            hit = covered;
        }
    }

    if (!growChain(c, tokens)) {
        // Roll the whole acquisition back: the caller defers.
        for (std::uint32_t p : c.pages)
            unrefPage(p);
        c = Chain{};
        freeChains_.push_back(id);
        return res;
    }
    prefixHitTokens_ += hit;
    res.ok = true;
    res.chainId = id;
    res.prefixHitTokens = hit;
    res.capacityTokens = capacityOf(c);
    return res;
}

bool
KvPagePool::grow(std::size_t chain, std::size_t tokens)
{
    KELLE_ASSERT(chain < chains_.size() && chains_[chain].active,
                 "growing a released chain");
    return growChain(chains_[chain], tokens);
}

void
KvPagePool::publishPrefix(std::size_t chain, std::uint64_t key,
                          std::size_t tokens)
{
    if (!cfg_.sharePrefixes || key == 0 || tokens == 0)
        return;
    KELLE_ASSERT(chain < chains_.size() && chains_[chain].active,
                 "publishing from a released chain");
    Chain &c = chains_[chain];
    tokens = std::min(tokens, capacityOf(c));
    if (tokens == 0)
        return;
    const std::size_t want =
        (tokens + cfg_.blockTokens - 1) / cfg_.blockTokens;
    const auto it = published_.find(key);
    if (it == published_.end()) {
        Published entry;
        entry.ownerChain = chain;
        entry.tokens = tokens;
        entry.pages.reserve(want);
        for (std::size_t i = 0; i < want; ++i) {
            const std::uint32_t p = c.pages[i];
            refPage(p);
            Page &pg = pages_[p];
            if (!pg.indexed) {
                pg.indexed = true;
                ++indexedPages_;
            }
            entry.pages.push_back(p);
        }
        entry.order = publishOrder_.size();
        publishOrder_.push_back(key);
        c.publishedKey = key;
        published_.emplace(key, std::move(entry));
        peakIndexedPages_ =
            std::max(peakIndexedPages_, indexedPages_);
        return;
    }
    Published &entry = it->second;
    if (entry.ownerChain != chain || tokens <= entry.tokens)
        return; // owner-only, monotone extension
    // Re-sync to the owner's current pages (a CoW after the original
    // publish may have swapped the old partial tail out), then append
    // the newly covered pages.
    for (std::size_t i = 0; i < entry.pages.size(); ++i) {
        if (entry.pages[i] == c.pages[i])
            continue;
        const std::uint32_t stale = entry.pages[i];
        const std::uint32_t fresh = c.pages[i];
        refPage(fresh);
        if (!pages_[fresh].indexed) {
            pages_[fresh].indexed = true;
            ++indexedPages_;
        }
        Page &old = pages_[stale];
        old.indexed = false;
        --indexedPages_;
        if (old.refs == 1)
            --cachedPages_;
        unrefPage(stale);
        entry.pages[i] = fresh;
    }
    for (std::size_t i = entry.pages.size(); i < want; ++i) {
        const std::uint32_t p = c.pages[i];
        refPage(p);
        Page &pg = pages_[p];
        if (!pg.indexed) {
            pg.indexed = true;
            ++indexedPages_;
        }
        entry.pages.push_back(p);
    }
    entry.tokens = tokens;
    peakIndexedPages_ = std::max(peakIndexedPages_, indexedPages_);
}

void
KvPagePool::release(std::size_t chain)
{
    KELLE_ASSERT(chain < chains_.size() && chains_[chain].active,
                 "double release of a chain");
    Chain &c = chains_[chain];
    for (std::uint32_t p : c.pages)
        unrefPage(p);
    if (c.publishedKey != 0) {
        const auto it = published_.find(c.publishedKey);
        if (it != published_.end() &&
            it->second.ownerChain == chain)
            it->second.ownerChain = kNoChain;
    }
    c = Chain{};
    freeChains_.push_back(chain);
}

std::size_t
KvPagePool::capacityTokens(std::size_t chain) const
{
    KELLE_ASSERT(chain < chains_.size() && chains_[chain].active,
                 "querying a released chain");
    return capacityOf(chains_[chain]);
}

} // namespace kv
} // namespace kelle
