/**
 * @file
 * Memoized decode-step costing for the serving/cluster hot loop.
 *
 * A decode step's cost is a pure function of (SystemConfig,
 * ModelConfig, batch size B, total resident tokens N), and the engine
 * needs one at every step boundary, fast-forwarded ones included,
 * while the shapes repeat for long stretches. `StepCostCache` costs
 * them with one `StepCostModel` bound to its (system, model) pair and
 * memoizes the `StepReport`s. The hit path of `decodeStep` is inline
 * here; misses and bypasses stay out of line. On a 4-vCPU
 * Xeon VM, looking up 4,096 fresh LLaMA2-7B shapes at B = 16 into a
 * new cache costs about 125 ns a miss on Kelle+eDRAM and 91 ns on
 * AERP+SRAM (memo insert and first-touch pages included), and looking
 * them up again about 8 ns a hit (11.8 ns with the hit out of line).
 * Prefill chunks (about 3,800 a `sessions_paged` rep against 708,000
 * decode lookups, about 50 ns each) are costed uncached through
 * `costModel().prefillChunk`.
 *
 * Why (B, N) is the whole decode shape: every per-member term (MACs,
 * working-set bytes, SFU ops, resident tokens) is affine in the
 * member's resident count with integer coefficients, so each batch sum
 * is an affine function of (B, N), e.g. sum_i macsPerDecodeToken(n_i)
 * = B*(proj+ffn+head) + 2*d*L*N. `StepCostModel::decode(B, N)`
 * evaluates these closed forms; each sum is an integer-valued double
 * far below 2^53, so it equals the member-at-a-time sum bit for bit
 * (`TimingTelescoping` tests), and equal (B, N) give bitwise-identical
 * reports however the tokens are distributed. (B, N) walks a small
 * lattice while members grow, so hit rates are high.
 *
 * Decode index: inside a decode window B is fixed and N climbs by at
 * most B per step, so the memo is a per-batch-size paged array,
 * `index_[B][N >> kPageBits][N & (kPageTokens - 1)]`, of 1-based slots
 * into a deque of reports (0 = absent). A page is allocated on its
 * first insert; the deque keeps every returned reference stable. The
 * memo never evicts: shapes past `maxEntries` are computed uncached
 * (`bypasses`), so memory stays bounded without perturbing results.
 *
 * Memo groups: caches may share one `DecodeMemo`. A cluster groups
 * every device whose `SystemConfig` compares equal, so identical
 * accelerators evaluate and store each (B, N) report once; a cache
 * made from a (system, model) pair is a group of one. Counts stay per
 * cache. The memo has no locks: the cluster runs each group's devices
 * on one lane, one after another in index order, so a memo is touched
 * by one thread at a time and every lookup's outcome, and with it
 * every count, is the same at any lane count.
 */

#ifndef KELLE_ACCEL_STEP_COST_CACHE_HPP
#define KELLE_ACCEL_STEP_COST_CACHE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "accel/timing_model.hpp"

namespace kelle {
namespace accel {

/**
 * One decode memo: the bound cost model of a (system, model) pair and
 * its dense (B, N) -> report index, shared by every `StepCostCache` of
 * a memo group. It keeps its own copies of the system and the model,
 * so it lives as long as the last cache that holds it. Reports never
 * move: a returned reference stays valid for the memo's lifetime.
 */
class DecodeMemo
{
  public:
    DecodeMemo(const SystemConfig &sys, const model::ModelConfig &m,
               std::size_t max_entries);
    DecodeMemo(const DecodeMemo &) = delete; // the model binds sys_
    DecodeMemo &operator=(const DecodeMemo &) = delete;

    const SystemConfig &system() const { return sys_; }
    const StepCostModel &costModel() const { return costModel_; }
    std::size_t size() const { return reports_.size(); }
    std::size_t maxEntries() const { return maxEntries_; }

    /** The memoized report of (batch, n_sum), or null. */
    const StepReport *
    find(std::size_t batch, std::size_t n_sum) const
    {
        if (batch >= index_.size())
            return nullptr;
        const auto &pages = index_[batch];
        const std::size_t p = n_sum >> kPageBits;
        if (p >= pages.size() || pages[p] == nullptr)
            return nullptr;
        const std::uint32_t slot =
            (*pages[p])[n_sum & (kPageTokens - 1)];
        return slot != 0 ? &reports_[slot - 1] : nullptr;
    }

    /** Store `rep` under a key that is absent, below the cap. */
    const StepReport &insert(std::size_t batch, std::size_t n_sum,
                             const StepReport &rep);

  private:
    static constexpr std::size_t kPageBits = 10;
    static constexpr std::size_t kPageTokens = std::size_t{1}
                                               << kPageBits;
    /** N & (kPageTokens - 1) -> 1-based slot in reports_. */
    using IndexPage = std::array<std::uint32_t, kPageTokens>;

    SystemConfig sys_;
    model::ModelConfig model_;
    StepCostModel costModel_; ///< bound to sys_ and model_ above
    std::size_t maxEntries_;
    /** index_[B][N >> kPageBits] is null until its first insert. */
    std::vector<std::vector<std::unique_ptr<IndexPage>>> index_;
    std::deque<StepReport> reports_;
};

class StepCostCache
{
  public:
    /** Hit/miss accounting of decode lookups. */
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

    /** A group of one: a new memo bound to copies of `sys`, `m`. */
    StepCostCache(const SystemConfig &sys, const model::ModelConfig &m,
                  std::size_t max_entries = kDefaultMaxEntries);

    /** A new member of `peer`'s memo group, with counts of its own.
     *  Callers group only caches with equal systems and models. */
    static StepCostCache sharing(const StepCostCache &peer);

    /**
     * Memoized simulateBatchedDecodeStep of `batch` members holding
     * `resident_total` tokens; counts one hit, miss or bypass. A
     * report from the shared memo stays valid for the memo's
     * lifetime; a bypassing (memo-full) call returns a slot the next
     * bypass overwrites.
     */
    const StepReport &
    decodeStep(std::size_t batch, std::size_t resident_total)
    {
        if (const StepReport *hit = memo_->find(batch, resident_total)) {
            ++stats_.hits;
            return *hit;
        }
        return missedDecode(batch, resident_total);
    }

    /** The bound cost model every miss and bypass evaluates, and
     *  the one that costs prefill chunks uncached. */
    const StepCostModel &costModel() const { return memo_->costModel(); }
    /** The system the memo is bound to. */
    const SystemConfig &system() const { return memo_->system(); }

    const Stats &stats() const { return stats_; }
    /** Decode shapes in the (possibly shared) memo. */
    std::size_t entries() const { return memo_->size(); }

    /** Shapes memoized before new ones bypass, once per memo group.
     *  A report is 80 B, an index page 4 KiB per 1024 N values of one
     *  B; the (B, N) lattice of a serving run stays far below this. */
    static constexpr std::size_t kDefaultMaxEntries = 1u << 18;

  private:
    explicit StepCostCache(std::shared_ptr<DecodeMemo> memo);

    /** decodeStep of a shape the shared memo lacks: bypass or miss
     *  (out of line; the hit path above stays inline). */
    const StepReport &missedDecode(std::size_t batch,
                                   std::size_t resident_total);

    std::shared_ptr<DecodeMemo> memo_;
    Stats stats_;
    /** Result slot for bypassing calls (memo at capacity). */
    StepReport overflow_;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_STEP_COST_CACHE_HPP
