/**
 * @file
 * Paged KV-cache allocation: fixed-size token pages on a free list,
 * per-request page chains, and refcounted shared prefix pages.
 *
 * The pool replaces per-request contiguous byte reservations with
 * page-granular ones (vLLM/Shukuchi-style `block_size` pages). Every
 * request owns a *chain* of pages; capacity grows lazily one page at a
 * time as the sequence appends, and a chain returns its pages only
 * when it is released.
 *
 * Prefix sharing: a chain whose prompt starts with a published prefix
 * (identified by a content-hash key) attaches the prefix's pages
 * copy-free, bumping their refcounts. Pages are append-only, so a
 * partially filled tail page shares safely *frozen* at the published
 * token count: a sharer that appends its first divergent token past
 * the frozen boundary copies that tail page first (copy-on-write),
 * while fully covered pages are never copied. Publishing is owner-only
 * and monotone — the first chain to publish a key owns the entry and
 * may extend it as its prefill progresses; later chains only attach.
 *
 * Lifecycle of a shared page after all chains release it: it stays
 * *cached* (held by the prefix index alone) so future requests can
 * still hit it, and is reclaimed oldest-published-entry-first only
 * when an allocation finds the free list empty.
 *
 * Determinism contract: the free list is LIFO, the prefix index is an
 * ordered map, and cached reclaim walks entries in publish order —
 * every operation sequence maps to exactly one page-id sequence, so
 * paged runs are byte-identical across thread counts and fastSim
 * on/off as long as the caller replays the same operations.
 *
 * The pool is pure accounting: no KV bytes are stored, `bytesPerPage`
 * only scales the byte-level occupancy reported to dispatch policies
 * (quantized pages cost fewer bytes; see tensor::quantizedStoreBytes).
 */

#ifndef KELLE_KVCACHE_KV_PAGE_POOL_HPP
#define KELLE_KVCACHE_KV_PAGE_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace kelle {
namespace kv {

/** Pool shape; `totalPages == 0` is an invalid (unused) config. */
struct KvPagePoolConfig
{
    std::size_t totalPages = 0;
    std::size_t blockTokens = 64; ///< tokens per page
    double bytesPerPage = 1.0;    ///< byte accounting only
    bool sharePrefixes = true;
};

class KvPagePool
{
  public:
    static constexpr std::size_t kNoChain =
        static_cast<std::size_t>(-1);

    /** Outcome of acquire(): a chain able to hold the asked floor. */
    struct Reservation
    {
        bool ok = false;
        std::size_t chainId = kNoChain;
        /** Prompt tokens covered copy-free by attached shared pages. */
        std::size_t prefixHitTokens = 0;
        /** Token capacity of the chain as acquired (>= asked floor). */
        std::size_t capacityTokens = 0;
    };

    explicit KvPagePool(const KvPagePoolConfig &cfg);

    /**
     * Acquire a chain with capacity for at least `tokens`. When
     * `prefixKey` is nonzero (and sharing is on), pages published
     * under that key are attached copy-free up to `prefixTokens`.
     * Fails — with any partial allocation rolled back — when the pool
     * (free + cached pages) cannot cover the remainder.
     */
    Reservation acquire(std::size_t tokens,
                        std::uint64_t prefixKey = 0,
                        std::size_t prefixTokens = 0);

    /**
     * Grow `chain` to hold `tokens` (no-op when it already does),
     * copy-on-writing a frozen shared tail page before the first
     * divergent append. On exhaustion returns false with the chain at
     * its best-effort capacity — callers clamp the request's budget to
     * capacityTokens(chain), which never drops below the acquired
     * floor.
     */
    bool grow(std::size_t chain, std::size_t tokens);

    /**
     * Publish the first `tokens` tokens of `chain` as the shared
     * prefix for `key`. First publisher owns the entry and may extend
     * it monotonically; from any other chain this is a no-op. Clamped
     * to the chain's capacity; no-op when sharing is off.
     */
    void publishPrefix(std::size_t chain, std::uint64_t key,
                       std::size_t tokens);

    /** Drop every page reference and retire the chain id for reuse. */
    void release(std::size_t chain);

    /**
     * Fault-pressure reclaim (src/faults): drop *every* published
     * prefix entry — not just until one page frees — returning the
     * pages that landed on the free list. Entries still shared by live
     * chains free nothing but stop attracting new sharers. Part of
     * the graceful-degradation ladder; never called on a healthy
     * fleet, so pre-fault digests are untouched.
     */
    std::size_t dropCachedPrefixes();

    /** @name Accounting. @{ */
    std::size_t capacityTokens(std::size_t chain) const;
    std::size_t totalPages() const { return cfg_.totalPages; }
    std::size_t blockTokens() const { return cfg_.blockTokens; }
    double bytesPerPage() const { return cfg_.bytesPerPage; }
    std::size_t freePages() const { return freeList_.size(); }
    /** Refcount-idle pages held only by the prefix index. */
    std::size_t cachedPages() const { return cachedPages_; }
    /** Pages an acquire/grow could obtain right now. */
    std::size_t
    availablePages() const
    {
        return freeList_.size() + cachedPages_;
    }
    /** Pages pinned by live chains (total - free - cached). */
    std::size_t
    usedPages() const
    {
        return cfg_.totalPages - availablePages();
    }
    std::size_t peakUsedPages() const { return peakUsedPages_; }
    /** Pages currently referenced by the shared prefix index. */
    std::size_t sharedPages() const { return indexedPages_; }
    std::size_t peakSharedPages() const { return peakIndexedPages_; }
    /** Cumulative prompt tokens attached copy-free at acquire(). */
    std::uint64_t prefixHitTokens() const { return prefixHitTokens_; }
    std::uint64_t cowCopies() const { return cowCopies_; }
    /** Prefix-index entries dropped to refill an empty free list. */
    std::uint64_t cachedReclaims() const { return cachedReclaims_; }
    /** @} */

  private:
    struct Page
    {
        std::uint32_t refs = 0;
        bool indexed = false; ///< referenced by the prefix index
    };

    /** One request's ordered page list. The leading `sharedPages`
     *  entries are attached from a published prefix; `frozenTokens`
     *  is the token count they cover (the last one may be partial —
     *  then the chain owns no pages of its own until it CoWs). */
    struct Chain
    {
        std::vector<std::uint32_t> pages;
        std::size_t sharedPages = 0;
        std::size_t frozenTokens = 0;
        std::uint64_t publishedKey = 0; ///< entry this chain owns
        bool active = false;
    };

    struct Published
    {
        std::vector<std::uint32_t> pages;
        std::size_t tokens = 0;
        std::size_t ownerChain = kNoChain;
        std::size_t order = 0; ///< slot in publishOrder_
    };

    bool hasFrozenPartialTail(const Chain &c) const;
    std::size_t capacityOf(const Chain &c) const;
    /** False when free and cached pages are both exhausted. */
    bool allocPage(std::uint32_t *out);
    void refPage(std::uint32_t p);
    void unrefPage(std::uint32_t p);
    /** Drop the oldest published entries until a page frees. */
    void reclaimCached();
    /** Drop the publish-log entry at reclaimCursor_ and advance. */
    void dropOldestPublished();
    void notePressure();
    bool growChain(Chain &c, std::size_t tokens);

    KvPagePoolConfig cfg_;
    std::vector<Page> pages_;
    std::vector<std::uint32_t> freeList_; ///< LIFO
    std::vector<Chain> chains_;
    std::vector<std::size_t> freeChains_; ///< LIFO id reuse
    std::map<std::uint64_t, Published> published_;
    std::vector<std::uint64_t> publishOrder_;
    std::size_t reclaimCursor_ = 0;

    std::size_t cachedPages_ = 0;
    std::size_t indexedPages_ = 0;
    std::size_t peakIndexedPages_ = 0;
    std::size_t peakUsedPages_ = 0;
    std::uint64_t prefixHitTokens_ = 0;
    std::uint64_t cowCopies_ = 0;
    std::uint64_t cachedReclaims_ = 0;
};

} // namespace kv
} // namespace kelle

#endif // KELLE_KVCACHE_KV_PAGE_POOL_HPP
