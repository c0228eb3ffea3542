/**
 * @file
 * Memoized decode-step costing for the serving/cluster hot loop.
 *
 * A step's cost is a pure function of (SystemConfig, ModelConfig, step
 * shape): a decode step's shape is (batch size B, total resident
 * tokens N). The serving engine needs a decode cost at every step
 * boundary, fast-forwarded ones included, even though the shapes
 * repeat for long stretches. `StepCostCache` costs decode steps with
 * one `StepCostModel` bound to its (system, model) pair and memoizes
 * the resulting `StepReport`s, so a repeated shape costs an index
 * read.
 * A miss evaluates the bound model, which computed every
 * configuration-only term (weight stream, roofline constants, refresh
 * intervals, background power) once at construction, so it pays only
 * the shape-dependent arithmetic. On a 4-vCPU Xeon VM a LLaMA2-7B
 * miss, memo insert included, takes about 62 ns on Kelle+eDRAM and
 * 49 ns on AERP+SRAM (108 and 77 ns before the model was bound); a hit
 * takes about 6.5 ns, which is why the memo stays.
 *
 * Prefill chunks are costed uncached, straight from the same bound
 * model (`costModel().prefillChunk`), because a memo of them does not
 * pay: they are rare (a traced seed-42 `sessions_paged` benchmark rep,
 * the most prefill-heavy workload, runs about 3,800 chunks against
 * 708,000 decode lookups) and one costs about 50 ns, so the chunks of
 * a rep cost well under a millisecond (bench/BENCH_one_step_memo.json).
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
 * stable.
 *
 * Memo groups: the decode memo is a `DecodeMemo`, and caches may share
 * one. A cluster puts every device whose `SystemConfig` compares equal
 * into one group (its devices all serve the same model), so a fleet of
 * identical accelerators evaluates and stores each (B, N) report once,
 * not once per device. A cache made from a (system, model) pair is a
 * group of one. Each cache keeps its own hit/miss counts. While the
 * devices of a group run concurrently, a cache in `buffering` mode
 * reads the shared memo but puts the reports it computes into a
 * pending list only it can see; `publish()` moves them into the memo
 * afterwards. The cluster's coordinator switches buffering on for
 * every shared cache before a multi-lane window and publishes in
 * device-index order after the join, so the memo's contents and every
 * cache's counts are the same at any lane count, with no locks: the
 * pool's join orders the writes.
 *
 * The memo never evicts: shapes seen past `maxEntries` are computed
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
    /** Hit/miss accounting of decode lookups, reported by
     *  bench_simspeed. */
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
     * A group of one: a new decode memo bound to copies of `sys` and
     * `m`.
     */
    StepCostCache(const SystemConfig &sys, const model::ModelConfig &m,
                  std::size_t max_entries = kDefaultMaxEntries);

    /**
     * A new member of `peer`'s memo group: it reads and extends the
     * same decode memo, while its counts start empty and stay its
     * own. Callers group only caches whose systems and models are
     * equal.
     */
    static StepCostCache sharing(const StepCostCache &peer);

    /**
     * Memoized simulateBatchedDecodeStep of `batch` members holding
     * `resident_total` tokens; counts one hit, miss or bypass. A
     * report from the shared memo stays valid for the memo's
     * lifetime; a buffered one until the next `publish()`; a
     * bypassing (memo-full) call returns a slot the next bypass
     * overwrites.
     */
    const StepReport &decodeStep(std::size_t batch,
                                 std::size_t resident_total);

    /**
     * @name Concurrent use of a shared memo
     * From `bufferMisses()` to `publish()` the cache writes nothing
     * shared: a decode shape absent from the memo is looked up in, or
     * computed into, this cache's pending list. `publish()` (with no
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

    /** Shapes memoized before new ones bypass the memo. A report is
     *  80 B and an index word 4 B (a 4 KiB page per 1024 N values of
     *  one batch size); the decode lattice (B <= maxBatch,
     *  N <= B*budget) stays far below this for any realistic serving
     *  run. The cap counts once per memo group, however many caches
     *  share it. */
    static constexpr std::size_t kDefaultMaxEntries = 1u << 18;

  private:
    explicit StepCostCache(std::shared_ptr<DecodeMemo> memo);

    /** A decode shape the shared memo lacks, while buffering. */
    const StepReport &bufferedDecode(std::size_t batch,
                                     std::size_t resident_total);

    std::shared_ptr<DecodeMemo> memo_;
    Stats stats_;
    /** Result slot for bypassing calls (memo at capacity). */
    StepReport overflow_;
    bool buffering_ = false;
    /** Buffered decode reports, (B << 32 | N) -> report, and their
     *  keys in the order they were computed. */
    std::unordered_map<std::uint64_t, StepReport> pending_;
    std::vector<std::uint64_t> pendingOrder_;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_STEP_COST_CACHE_HPP
