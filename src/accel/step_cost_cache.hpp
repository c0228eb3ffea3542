/**
 * @file
 * Memoized engine-step costing for the serving/cluster hot loop.
 *
 * A step's cost is a pure function of (SystemConfig, ModelConfig, step
 * shape): a decode step's shape is (batch size B, total resident
 * tokens N), a prefill chunk's its (KV offset, chunk length) pair. The
 * serving engine needs these costs at every step boundary even though
 * step shapes repeat for long stretches. `StepCostCache` owns one
 * `StepCostModel` bound to its (system, model) pair and memoizes the
 * resulting `StepReport`s, so a repeated shape costs an index read.
 * A miss evaluates the bound model, which computed every
 * configuration-only term (weight stream, roofline constants, refresh
 * intervals, background power) once at construction, so it pays only
 * the shape-dependent arithmetic. On a 4-vCPU Xeon VM a LLaMA2-7B
 * miss, memo insert included, takes about 62 ns on Kelle+eDRAM and
 * 49 ns on AERP+SRAM (108 and 77 ns before the model was bound); a hit
 * takes about 6.5 ns, which is why the memo stays.
 *
 * Why (B, N) is the whole decode shape: every per-member term of a
 * decode step — MACs, working-set bytes, SFU ops, resident tokens — is
 * affine in the member's resident count n_i with integer
 * coefficients, so each sum over the batch is an affine function of
 * (B, N):
 *
 *     sum_i macsPerDecodeToken(n_i) = B*(proj+ffn+head) + 2*d*L*N
 *     sum_i ws(n_i)                 = 2*nHeads*N + 6*d*B
 *     sum_i sfu(n_i)                = L*(2*nHeads*N + (4d+dFfn)*B)
 *
 * `StepCostModel::decode(B, N)` evaluates exactly these closed forms,
 * and everything downstream reads only the sums. Every sum is an
 * integer-valued double far below 2^53 for any realistic model, so
 * the closed form equals the member-at-a-time sum bit for bit (the
 * `TimingTelescoping` tests check it against the loop reference), and
 * batches with equal (B, N) have bitwise-identical `StepReport`s
 * however their members are distributed. This is what makes hit
 * rates high in serving: growing batch members permute and trade
 * tokens, but (B, N) walks a small lattice. The `StepCostCache.*`
 * property tests check cached against uncached reports, and the
 * golden-digest tier-1 tests pin the end-to-end outputs and the
 * model's own reports (`GoldenDigest.StepReportGrid`).
 *
 * Decode index: the key space is dense. Inside a decode window the
 * batch size is fixed and N climbs by at most B per step, so the
 * decode memo is a per-batch-size paged array,
 * `index_[B][N >> kPageBits][N & (kPageTokens - 1)]`, whose entries
 * are 1-based slots into a deque of reports (0 = absent). Consecutive
 * lookups read neighbouring words of one page; a page is allocated on
 * its first insert, and the deque keeps every returned reference
 * stable. Prefill chunk keys are sparse and keep a hash map.
 *
 * The cache never evicts: shapes seen past `maxEntries` are computed
 * uncached (counted as `bypasses`) so memory stays bounded without
 * perturbing results.
 */

#ifndef KELLE_ACCEL_STEP_COST_CACHE_HPP
#define KELLE_ACCEL_STEP_COST_CACHE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "accel/timing_model.hpp"

namespace kelle {
namespace accel {

class StepCostCache
{
  public:
    /** Hit/miss accounting, reported by bench_simspeed. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t bypasses = 0; ///< computed uncached: cache full
        std::uint64_t
        lookups() const
        {
            return hits + misses + bypasses;
        }
        double
        hitRate() const
        {
            const std::uint64_t n = lookups();
            return n ? static_cast<double>(hits) /
                           static_cast<double>(n)
                     : 0.0;
        }
        Stats &
        operator+=(const Stats &o)
        {
            hits += o.hits;
            misses += o.misses;
            bypasses += o.bypasses;
            return *this;
        }
    };

    /**
     * Bind the cache to one simulated system and model. Both must
     * outlive the cache and must not be mutated while it is in use
     * (the bound model and the key space assume a fixed
     * configuration; a DeviceEngine owns one cache per device for
     * exactly this reason).
     */
    StepCostCache(const SystemConfig &sys, const model::ModelConfig &m,
                  std::size_t max_entries = kDefaultMaxEntries);

    /**
     * Memoized simulateBatchedDecodeStep of `batch` members holding
     * `resident_total` tokens; counts one hit, miss or bypass. A
     * memoized report's reference stays valid for the cache's
     * lifetime; a bypassing (cache-full) call returns a slot the next
     * bypass overwrites.
     */
    const StepReport &decodeStep(std::size_t batch,
                                 std::size_t resident_total);

    /** Memoized simulatePrefillChunk. */
    const StepReport &prefillChunk(std::size_t kv_offset,
                                   std::size_t chunk_len);

    /** The bound cost model every miss and bypass evaluates. */
    const StepCostModel &costModel() const { return costModel_; }

    const Stats &stats() const { return stats_; }
    std::size_t
    entries() const
    {
        return decodeReports_.size() + chunk_.size();
    }

    /** Shapes memoized before new ones bypass the cache (~100 B per
     *  report plus 4 B per index word; the decode lattice
     *  (B <= maxBatch, N <= B*budget) stays far below this for any
     *  realistic serving run). */
    static constexpr std::size_t kDefaultMaxEntries = 1u << 18;

  private:
    static constexpr std::size_t kPageBits = 10;
    static constexpr std::size_t kPageTokens = std::size_t{1}
                                               << kPageBits;
    /** N & (kPageTokens - 1) -> 1-based slot in decodeReports_. */
    using IndexPage = std::array<std::uint32_t, kPageTokens>;

    const StepReport *
    lookupDecode(std::size_t batch, std::size_t n_sum) const
    {
        if (batch >= decodeIndex_.size())
            return nullptr;
        const auto &pages = decodeIndex_[batch];
        const std::size_t p = n_sum >> kPageBits;
        if (p >= pages.size() || pages[p] == nullptr)
            return nullptr;
        const std::uint32_t slot =
            (*pages[p])[n_sum & (kPageTokens - 1)];
        return slot != 0 ? &decodeReports_[slot - 1] : nullptr;
    }

    StepCostModel costModel_;
    std::size_t maxEntries_;
    Stats stats_;
    /** Decode memo, (batch size, total resident tokens) -> report:
     *  decodeIndex_[B][N >> kPageBits] is null until its first
     *  insert. */
    std::vector<std::vector<std::unique_ptr<IndexPage>>> decodeIndex_;
    std::deque<StepReport> decodeReports_;
    /** (KV offset << 32 | chunk length) -> step report. */
    std::unordered_map<std::uint64_t, StepReport> chunk_;
    /** Result slot for bypassing calls (cache at capacity). */
    StepReport overflow_;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_STEP_COST_CACHE_HPP
