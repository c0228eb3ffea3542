/**
 * @file
 * Admission control over the finite KV pool.
 *
 * Under concurrent requests the KV cache is a shared, capacity-bound
 * memory object: every admitted request reserves `N' tokens x
 * kvBytesPerToken` for its lifetime. The allocator grants per-request
 * AERP budgets N' out of a byte pool sized from the capacity analysis
 * of accel::maxSupportedTokens (device DRAM net of weights) or from an
 * explicit token count, and implements eviction-pressure feedback:
 * once utilization crosses a high watermark, new grants are shrunk
 * toward the request's protected floor (sink + recent window), which
 * raises each member's eviction rate instead of refusing service.
 * A request is deferred (left queued) when even its floor does not fit
 * in the currently free bytes, and can only be rejected by the caller
 * when the floor exceeds the whole pool.
 *
 * Paged mode (`AllocatorConfig::pagedTotalPages > 0`): the
 * byte pool is replaced by a kv::KvPagePool of fixed-size token pages.
 * Admission reserves only the request's protected *floor* up front
 * (attaching shared prefix pages copy-free when the request carries a
 * prefix key); the rest of the budget materializes lazily through
 * growChain() as the sequence appends, and failed growth clamps the
 * budget to the chain's capacity instead of blocking — page-granular
 * eviction pressure. Chains never hold pages beyond what their
 * residents need, so admission pressure has no page to harvest: it
 * clamps running budgets through shrinkBudget() instead, which stops
 * their growth. Contiguous mode is byte-for-byte the legacy
 * allocator.
 *
 * Invariant: reserved bytes (or pages) never exceed the pool capacity.
 */

#ifndef KELLE_SERVING_KV_BUDGET_ALLOCATOR_HPP
#define KELLE_SERVING_KV_BUDGET_ALLOCATOR_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "kvcache/kv_page_pool.hpp"

namespace kelle {
namespace serving {

/** Pool sizing and pressure behaviour. */
struct AllocatorConfig
{
    double capacityBytes = 0.0;  ///< total KV pool
    double bytesPerToken = 1.0;  ///< model.kvBytesPerToken(kvBits)
    /** Utilization above which new grants shrink toward the floor. */
    double highWatermark = 0.85;

    /** @name Paged mode (> 0 pages switches the pool over). @{ */
    std::size_t pagedTotalPages = 0;
    std::size_t pagedBlockTokens = 64;
    double pagedBytesPerPage = 0.0;
    bool pagedSharePrefixes = true;
    /** @} */
};

class KvBudgetAllocator
{
  public:
    static constexpr std::size_t kNoChain = kv::KvPagePool::kNoChain;

    /** Outcome of an admission attempt. */
    struct Grant
    {
        bool admitted = false;
        std::size_t budgetTokens = 0; ///< granted N'
        double bytes = 0.0;           ///< reserved pool bytes
        /** @name Paged-mode fields (defaults in contiguous mode). @{ */
        std::size_t chainId = kNoChain;
        std::size_t prefixHitTokens = 0;
        /** Current page-chain token capacity (grows lazily). */
        std::size_t chainCapacityTokens = 0;
        /** @} */
    };

    explicit KvBudgetAllocator(const AllocatorConfig &cfg);

    /**
     * Try to admit a request asking for `requested_tokens` with a
     * protected floor of `min_tokens` (sink + recent window). Grants
     * the full request while below the watermark, the largest budget
     * that stays below it under pressure (never below the floor), and
     * defers when the floor does not fit in the free bytes (paged
     * mode: in the free + cached pages). In paged mode a nonzero
     * `prefix_key` attaches published prefix pages copy-free.
     */
    Grant tryAdmit(std::size_t requested_tokens,
                   std::size_t min_tokens,
                   std::uint64_t prefix_key = 0,
                   std::size_t prefix_tokens = 0);

    /** Return a grant's bytes (or pages) to the pool; zeroes it. */
    void release(Grant &grant);

    /** @name Paged-mode grant lifecycle (no-ops when contiguous). @{ */
    bool paged() const { return pool_ != nullptr; }
    /**
     * Grow the grant's chain to hold `tokens`; false on exhaustion
     * with the chain at best-effort capacity — the caller clamps the
     * budget via shrinkBudget (never below the admitted floor).
     */
    bool growChain(Grant &grant, std::size_t tokens);
    /** Clamp the logical budget N' of a live grant. */
    void shrinkBudget(Grant &grant, std::size_t tokens);
    /** Publish the grant's first `tokens` tokens under `key`. */
    void publishPrefix(const Grant &grant, std::uint64_t key,
                       std::size_t tokens);
    /** Tokens an admission could still acquire (free+cached pages). */
    std::size_t availableTokens() const;
    /** Direct page-pool view (null in contiguous mode). */
    const kv::KvPagePool *pagePool() const { return pool_.get(); }
    /** @} */

    /** @name Fault degradation (src/faults). @{ */
    /**
     * eDRAM-degrade: scale the capacity *admission sees* to
     * `scale x` the real pool (graceful pool-shrink fault). Live
     * grants keep their reservations — only new admissions and the
     * watermark feedback contract; restoring 1.0 is bit-exact with a
     * never-scaled allocator, so faults-off digests are untouched.
     */
    void setCapacityScale(double scale);
    double capacityScale() const { return capacityScale_; }
    /** Fault-pressure reclaim: drop all cached shared-prefix pages
     *  (paged mode; 0 in contiguous mode). Returns pages freed. */
    std::size_t dropCachedPrefixes();
    /** @} */

    double capacityBytes() const { return capacityBytes_; }
    double inUseBytes() const;
    double peakInUseBytes() const;
    double utilization() const;
    std::size_t capacityTokens() const;

    /** Admissions granted below the requested budget. */
    std::uint64_t shrunkGrants() const { return shrunkGrants_; }
    /** Failed attempts (request stays queued). */
    std::uint64_t deferrals() const { return deferrals_; }
    /** Count `n` failed attempts without making them: the decode
     *  fast-forward's stand-in for a deferral round it has proven
     *  would fail again with no other effect on the pool. */
    void addDeferrals(std::uint64_t n) { deferrals_ += n; }
    /** Budget clamps: failed page growth and admission pressure
     *  (paged mode). */
    std::uint64_t budgetClips() const { return budgetClips_; }
    /** Peak sum of live grants' logical budgets N' — the resident-
     *  token capacity metric the paged-vs-contiguous benches record
     *  (prefix sharing stores shared tokens once but grants them to
     *  every sharer, so paged peaks exceed the pool's token count). */
    std::size_t peakLogicalTokens() const { return peakLogicalTokens_; }

  private:
    double capacityBytes_;
    double bytesPerToken_;
    double highWatermark_;
    double capacityScale_ = 1.0; ///< pool-shrink fault degradation
    std::unique_ptr<kv::KvPagePool> pool_; ///< null = contiguous

    double inUseBytes_ = 0.0;
    double peakInUseBytes_ = 0.0;
    std::size_t logicalTokens_ = 0;
    std::size_t peakLogicalTokens_ = 0;
    std::uint64_t shrunkGrants_ = 0;
    std::uint64_t deferrals_ = 0;
    std::uint64_t budgetClips_ = 0;
};

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_KV_BUDGET_ALLOCATOR_HPP
