/**
 * @file
 * Memoized decode-step costing for the serving/cluster hot loop.
 *
 * A decode step's cost is a pure function of (SystemConfig,
 * ModelConfig, batch size B, total resident tokens N), and the engine
 * needs one at every step boundary, fast-forwarded ones included,
 * while the shapes repeat for long stretches. `StepCostCache` costs
 * them with one `StepCostModel` bound to its (system, model) pair and
 * memoizes the `StepReport`s. On a 4-vCPU Xeon VM a LLaMA2-7B miss,
 * memo insert included, takes about 62 ns on Kelle+eDRAM and 49 ns on
 * AERP+SRAM; a hit about 6.5 ns. Prefill chunks (about 3,800 a
 * `sessions_paged` rep against 708,000 decode lookups, about 50 ns
 * each) are costed uncached through `costModel().prefillChunk`.
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
 * cache. In every lookahead window with two or more active devices,
 * the cluster switches every cache of a larger group to buffering,
 * *also when the window runs on one lane*: a cache reads the memo but
 * puts what it computes into a pending table only it sees, and
 * `publish()` stores it after the window in device-index order. No
 * member sees another's reports of the same window, so the memo and
 * every count are the same at any lane count, with no locks.
 *
 * Pending table: the pending entries (key, report, table cell) in a
 * vector, in computed order, plus a flat open-addressing table of
 * 1-based positions into it: a power of two in size, at most half
 * full, probed linearly from a multiplicative hash of `B << 32 | N`.
 * `publish()` zeroes exactly the cells it used; both keep their
 * storage, so a buffered miss allocates nothing in steady state. On a
 * 4-vCPU Xeon VM, buffering's own cost per miss fell from about 44 to
 * 30 ns against the node-based hash map it replaced, and host time per
 * `fleet16_preempt` rep by 13% (bench/BENCH_pending_table.json).
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
     * lifetime; a buffered one until this cache's next `decodeStep`
     * or `publish()` (a later buffered miss may move it); a bypassing
     * (memo-full) call returns a slot the next bypass overwrites.
     */
    const StepReport &decodeStep(std::size_t batch,
                                 std::size_t resident_total);

    /**
     * @name Concurrent use of a shared memo
     * From `bufferMisses()` to `publish()` the cache writes nothing
     * shared: a decode shape absent from the memo is looked up in, or
     * computed into, this cache's pending table. `publish()` (with no
     * other member of the group running) stores every pending report
     * the memo still lacks, in the order they were computed, and
     * leaves buffering mode. @{
     */
    void bufferMisses() { buffering_ = true; }
    void publish();
    /** @} */

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

    /** A decode shape the shared memo lacks, while buffering. */
    const StepReport &bufferedDecode(std::size_t batch,
                                     std::size_t resident_total);
    /** The cell holding `key`, or the empty one it would take. */
    std::size_t pendingCell(std::uint64_t key) const;
    /** Double the pending table; re-seat every entry. */
    void growPendingCells();

    /** A buffered report and the cell that points at it. */
    struct Pending
    {
        std::uint64_t key; ///< B << 32 | N
        std::size_t cell;
        StepReport report;
    };

    std::shared_ptr<DecodeMemo> memo_;
    Stats stats_;
    /** Result slot for bypassing calls (memo at capacity). */
    StepReport overflow_;
    bool buffering_ = false;
    /** Buffered reports in the order they were computed. */
    std::vector<Pending> pending_;
    /** 1-based positions into pending_ (0 = empty). */
    std::vector<std::uint32_t> pendingCells_;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_STEP_COST_CACHE_HPP
