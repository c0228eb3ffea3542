/**
 * @file
 * The managed KV cache at the center of Kelle's AERP algorithm
 * (Section 4.1), also configurable as the H2O, StreamingLLM and
 * full-cache baselines of Section 7.
 *
 * Design notes
 * ------------
 *  - Eviction is per (layer, kv-head): the same token may be evicted
 *    from one head and retained in another (Figure 6). This exploits
 *    the permutation invariance of Equations 1-2: gathered entries are
 *    returned in slot order, not token order.
 *  - Importance scores follow Equation 3: every decode step, the
 *    attention each cached entry receives from the new query is
 *    accumulated into its score. Prefill scores are attention column
 *    sums, carried into decoding.
 *  - Recomputation (AERP): a token retained by at least theta of the
 *    kv-heads ("popular") stores only the layer input vector x (1 x C)
 *    instead of per-head [k, v] pairs (2 x C/H per retaining head) and
 *    its KV vectors are recomputed on access through a model-provided
 *    callback. Popularity is decided when a token leaves the protected
 *    recent window ("probation"); until then x is held in the
 *    activation buffer, matching the hardware flow where recent
 *    activations are resident in the 256 KB activation eDRAM.
 *  - Values are stored as 16-bit fixed-point words with one scale per
 *    stored vector ("activations and KV vectors are maintained in 16
 *    bits", Section 5). Fixed point makes bit-significance linear: an
 *    MSB flip moves a value by at most the vector's full scale, which
 *    is what gives Figure 8's smooth MSB-vs-LSB degradation (an fp16
 *    exponent flip would be unboundedly catastrophic instead). Reads
 *    pass through an optional FaultInjector so the eDRAM retention
 *    model can corrupt stored words per refresh group (2DRP).
 */

#ifndef KELLE_KVCACHE_MANAGED_KV_CACHE_HPP
#define KELLE_KVCACHE_MANAGED_KV_CACHE_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "kvcache/fault.hpp"
#include "kvcache/kv_config.hpp"
#include "tensor/matrix.hpp"

namespace kelle {
namespace kv {

/** Result of gathering one head's cache contents for attention. */
struct Gathered
{
    tensor::Matrix k; ///< [n x headDim], fault-injected, sanitized
    tensor::Matrix v; ///< [n x headDim]
    std::vector<std::uint32_t> slots; ///< slot ids for observeAttention
    std::vector<std::int64_t> positions; ///< absolute token positions
};

/** Per-head, per-layer slot-managed KV cache with pluggable policy. */
class ManagedKvCache
{
  public:
    /**
     * Recompute callback: given the (fault-injected) layer input x and
     * the token's absolute position, produce the full k and v vectors
     * (length dKv = kvHeads * headDim each, RoPE applied to k).
     */
    using Recomputer = std::function<void(
        std::size_t layer, std::span<const float> x, std::int64_t pos,
        std::span<float> k_out, std::span<float> v_out)>;

    ManagedKvCache(const KvCacheConfig &cfg, std::size_t layers,
                   std::size_t kv_heads, std::size_t head_dim,
                   std::size_t d_model);

    /** Attach a fault injector (non-owning; nullptr = fault free). */
    void setFaultInjector(FaultInjector *injector);
    /** Attach the recompute callback (required if cfg.recompute). */
    void setRecomputer(Recomputer fn);

    /**
     * Append the current decode token to one layer. k/v hold dKv floats
     * (k already rotated); x holds the dModel layer input. Evicts per
     * head if the budget is exhausted. Must be called with strictly
     * increasing positions per layer.
     */
    void append(std::size_t layer, std::int64_t pos,
                std::span<const float> k, std::span<const float> v,
                std::span<const float> x);

    /**
     * Bulk-load a prefilled context into one layer (Section 4.1.1
     * pre-filling rules): retain sinks, the recent window and the
     * top-scoring tokens per head; store popular tokens as x.
     * K/V are [Nctx x dKv], X is [Nctx x dModel], importance[h][n] is
     * the accumulated attention received by token n in kv-head h.
     */
    void loadPrefill(std::size_t layer, const tensor::Matrix &k,
                     const tensor::Matrix &v, const tensor::Matrix &x,
                     const std::vector<std::vector<float>> &importance);

    /** Gather one head's entries (decoded + fault injected). */
    Gathered gather(std::size_t layer, std::size_t kv_head);

    /**
     * Accumulate attention received by each gathered slot (Equation 3).
     * May be called several times per step (once per query head of a
     * GQA group). Slot ids are valid until the next append.
     */
    void observeAttention(std::size_t layer, std::size_t kv_head,
                          std::span<const float> probs,
                          std::span<const std::uint32_t> slots);

    std::size_t numEntries(std::size_t layer, std::size_t kv_head) const;
    /** Importance score of a slot (tests / evictor cross-check). */
    float importanceOf(std::size_t layer, std::size_t kv_head,
                       std::uint32_t slot) const;
    /** True if the token in this slot is stored as an input vector. */
    bool isInputStored(std::size_t layer, std::size_t kv_head,
                       std::uint32_t slot) const;

    /** Current resident KV bytes (for refresh-energy accounting). */
    double residentKvBytes() const;
    /** Resident probation activation bytes (activation eDRAM). */
    double residentActivationBytes() const;

    /** Operation counts since construction; an append is one decode
     *  token into one layer. */
    struct Stats
    {
        std::uint64_t appends = 0;       ///< append() calls
        std::uint64_t evictions = 0;     ///< (layer, head) slots evicted
        std::uint64_t xStoredTokens = 0; ///< tokens kept only as input x
        std::uint64_t recomputes = 0;    ///< x-stored tokens recomputed
        std::uint64_t gathers = 0;       ///< gather() calls
    };

    const KvCacheConfig &config() const { return cfg_; }
    const Stats &stats() const { return stats_; }

  private:
    struct TokenRec
    {
        std::int64_t pos = -1;
        int retainingHeads = 0;
        bool xStored = false;       ///< decided popular; holds only x
        bool probation = false;     ///< still in the recent window
        bool xCorrupted = false;    ///< one-time fault draw done
        std::vector<std::uint16_t> xBits; ///< layer input, int16 codes
        float xScale = 1.0f;        ///< fixed-point scale of xBits
    };

    struct Entry
    {
        std::int32_t tokenId = -1;
        float importance = 0.0f;
        /** Retention faults are drawn once per stored value (a bit
         *  either decayed during its residency or it did not) and then
         *  persist — refresh writes back the decayed value, it cannot
         *  repair it. */
        bool corrupted = false;
        std::vector<std::uint16_t> kBits; ///< empty if token x-stored
        std::vector<std::uint16_t> vBits;
        float kScale = 1.0f; ///< fixed-point scales (score-class
        float vScale = 1.0f; ///< metadata, like the register file)
    };

    struct LayerState
    {
        std::vector<TokenRec> tokens;
        std::vector<std::vector<Entry>> heads; ///< [kvHead][slot]
        std::int64_t lastPos = -1;
        /** Per-step recompute memo: tokenId -> (kFull, vFull);
         *  cleared at every append (one x readout per step). */
        std::vector<std::int32_t> memoIds;
        std::vector<std::vector<float>> memoK;
        std::vector<std::vector<float>> memoV;
    };

    /** Apply the configured precision to a full k or v vector. */
    void applyPrecision(std::span<float> values) const;
    /** Encode floats to int16 fixed-point codes; writes the scale. */
    static std::vector<std::uint16_t> encode(std::span<const float> x,
                                             float &scale);
    /** Decode one int16 code. */
    static float decode(std::uint16_t code, float scale);

    /** Pick the eviction victim slot in a head, or nullopt if a free
     *  slot exists. Honors sink/recent protection per policy. */
    std::optional<std::size_t> pickVictim(const LayerState &ls,
                                          std::size_t head,
                                          std::int64_t now) const;

    void evictSlot(LayerState &ls, std::size_t head, std::size_t slot);

    /** Move tokens whose probation window ended to their final format. */
    void resolveProbation(LayerState &ls, std::int64_t now);

    /** Recompute (and memoize for this step) an x-stored token. */
    void recomputeToken(LayerState &ls, std::size_t layer,
                        std::int32_t token_id, std::vector<float> &k_out,
                        std::vector<float> &v_out);

    bool protectsSink() const
    {
        return cfg_.policy == Policy::Streaming ||
               cfg_.policy == Policy::Aerp;
    }
    bool scoreBased() const
    {
        return cfg_.policy == Policy::H2O || cfg_.policy == Policy::Aerp;
    }
    bool recomputeEnabled() const
    {
        return cfg_.policy == Policy::Aerp && cfg_.recompute;
    }

    KvCacheConfig cfg_;
    std::size_t layers_;
    std::size_t kvHeads_;
    std::size_t headDim_;
    std::size_t dModel_;
    std::vector<LayerState> state_;
    FaultInjector *injector_ = nullptr;
    NoFaults noFaults_;
    Recomputer recomputer_;
    Stats stats_;
};

/** Build a cache from a baseline preset (see kv_config.hpp). */

} // namespace kv
} // namespace kelle

#endif // KELLE_KVCACHE_MANAGED_KV_CACHE_HPP
