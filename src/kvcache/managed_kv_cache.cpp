#include "kvcache/managed_kv_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hpp"
#include "tensor/half.hpp"
#include "tensor/quant.hpp"

namespace kelle {
namespace kv {

ManagedKvCache::ManagedKvCache(const KvCacheConfig &cfg, std::size_t layers,
                               std::size_t kv_heads, std::size_t head_dim,
                               std::size_t d_model)
    : cfg_(cfg), layers_(layers), kvHeads_(kv_heads), headDim_(head_dim),
      dModel_(d_model), state_(layers)
{
    const std::string err = cfg.validate();
    if (!err.empty())
        KELLE_FATAL("invalid KV cache config: ", err);
    for (auto &ls : state_)
        ls.heads.resize(kvHeads_);
}

void
ManagedKvCache::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
}

void
ManagedKvCache::setRecomputer(Recomputer fn)
{
    recomputer_ = std::move(fn);
}

void
ManagedKvCache::applyPrecision(std::span<float> values) const
{
    switch (cfg_.precision) {
      case KvPrecision::Fp16:
        break; // encode() performs the fp16 rounding
      case KvPrecision::Int8:
        tensor::fakeQuantGroupsInPlace(values, 8, cfg_.quantGroup);
        break;
      case KvPrecision::Int4:
        tensor::fakeQuantGroupsInPlace(values, 4, cfg_.quantGroup);
        break;
      case KvPrecision::QuaRot4:
        // Rotate each head slice independently: the Hadamard length must
        // be a power of two and hardware rotation is per head.
        for (std::size_t off = 0; off + headDim_ <= values.size();
             off += headDim_) {
            tensor::fakeQuantQuaRotInPlace(
                values.subspan(off, headDim_), 4,
                std::min<std::size_t>(cfg_.quantGroup, headDim_));
        }
        break;
    }
}

std::vector<std::uint16_t>
ManagedKvCache::encode(std::span<const float> x, float &scale)
{
    float max_abs = 0.0f;
    for (float v : x)
        max_abs = std::max(max_abs, std::fabs(v));
    scale = max_abs > 0.0f ? max_abs / 32767.0f : 1.0f;
    std::vector<std::uint16_t> codes(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float q =
            std::clamp(std::nearbyint(x[i] / scale), -32767.0f, 32767.0f);
        codes[i] = std::bit_cast<std::uint16_t>(
            static_cast<std::int16_t>(q));
    }
    return codes;
}

float
ManagedKvCache::decode(std::uint16_t code, float scale)
{
    return static_cast<float>(std::bit_cast<std::int16_t>(code)) * scale;
}

std::optional<std::size_t>
ManagedKvCache::pickVictim(const LayerState &ls, std::size_t head,
                           std::int64_t now) const
{
    const auto &entries = ls.heads[head];
    const std::int64_t recent_floor =
        now - static_cast<std::int64_t>(cfg_.recentWindow);

    auto eligible = [&](const Entry &e) {
        const std::int64_t pos = ls.tokens[e.tokenId].pos;
        if (protectsSink() &&
            pos < static_cast<std::int64_t>(cfg_.sinkTokens)) {
            return false;
        }
        return pos < recent_floor;
    };

    std::optional<std::size_t> best;
    auto better = [&](const Entry &a, const Entry &b) {
        if (scoreBased()) {
            if (a.importance != b.importance)
                return a.importance < b.importance;
        }
        return ls.tokens[a.tokenId].pos < ls.tokens[b.tokenId].pos;
    };

    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!eligible(entries[i]))
            continue;
        if (!best || better(entries[i], entries[*best]))
            best = i;
    }
    if (best)
        return best;

    // Fallback: the budget is too tight for the protected regions (the
    // config validator tries to prevent this). Evict the weakest
    // non-sink entry so forward progress is maintained.
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::int64_t pos = ls.tokens[entries[i].tokenId].pos;
        if (protectsSink() &&
            pos < static_cast<std::int64_t>(cfg_.sinkTokens)) {
            continue;
        }
        if (!best || better(entries[i], entries[*best]))
            best = i;
    }
    return best;
}

void
ManagedKvCache::evictSlot(LayerState &ls, std::size_t head, std::size_t slot)
{
    auto &entries = ls.heads[head];
    KELLE_ASSERT(slot < entries.size(), "evict slot out of range");
    const std::int32_t token_id = entries[slot].tokenId;

    // Order within a head is irrelevant (permutation invariance of
    // Eq. 1-2), so swap-remove keeps eviction O(1).
    entries[slot] = std::move(entries.back());
    entries.pop_back();

    auto &tok = ls.tokens[token_id];
    KELLE_ASSERT(tok.retainingHeads > 0, "token refcount underflow");
    if (--tok.retainingHeads == 0) {
        tok.xBits.clear();
        tok.xBits.shrink_to_fit();
        tok.xStored = false;
    }
    ++stats_.evictions;
}

void
ManagedKvCache::resolveProbation(LayerState &ls, std::int64_t now)
{
    if (!recomputeEnabled())
        return;
    const std::int64_t recent_floor =
        now - static_cast<std::int64_t>(cfg_.recentWindow);

    for (std::int32_t tid = 0;
         tid < static_cast<std::int32_t>(ls.tokens.size()); ++tid) {
        auto &tok = ls.tokens[tid];
        if (!tok.probation || tok.retainingHeads == 0)
            continue;
        if (tok.pos >= recent_floor)
            continue; // still protected

        tok.probation = false;

        // Popularity theta: the fraction of kv-heads in which this token
        // ranks above the head's median importance, i.e. would be
        // retained rather than evicted (Section 4.1.2).
        int important_heads = 0;
        int retaining = 0;
        for (std::size_t h = 0; h < kvHeads_; ++h) {
            const Entry *entry = nullptr;
            for (const auto &e : ls.heads[h]) {
                if (e.tokenId == tid) {
                    entry = &e;
                    break;
                }
            }
            if (!entry)
                continue;
            ++retaining;
            std::vector<float> imps;
            imps.reserve(ls.heads[h].size());
            for (const auto &e : ls.heads[h])
                imps.push_back(e.importance);
            auto mid = imps.begin() + imps.size() / 2;
            std::nth_element(imps.begin(), mid, imps.end());
            if (entry->importance >= *mid)
                ++important_heads;
        }

        const bool popular =
            retaining > 0 &&
            static_cast<double>(important_heads) >=
                cfg_.popularityTheta * static_cast<double>(kvHeads_);

        if (popular) {
            // Store the input vector only; drop per-head KV bits. The
            // storage cost check of Section 4.1.2 (2 * C/H * theta*H > C)
            // is exactly the theta >= 50% rule.
            tok.xStored = true;
            for (std::size_t h = 0; h < kvHeads_; ++h) {
                for (auto &e : ls.heads[h]) {
                    if (e.tokenId == tid) {
                        e.kBits.clear();
                        e.kBits.shrink_to_fit();
                        e.vBits.clear();
                        e.vBits.shrink_to_fit();
                    }
                }
            }
            ++stats_.xStoredTokens;
        } else {
            tok.xBits.clear();
            tok.xBits.shrink_to_fit();
        }
    }
}

void
ManagedKvCache::append(std::size_t layer, std::int64_t pos,
                       std::span<const float> k, std::span<const float> v,
                       std::span<const float> x)
{
    KELLE_ASSERT(layer < layers_, "layer out of range");
    KELLE_ASSERT(k.size() == kvHeads_ * headDim_ && k.size() == v.size(),
                 "append kv size mismatch");
    KELLE_ASSERT(x.size() == dModel_, "append x size mismatch");
    auto &ls = state_[layer];
    KELLE_ASSERT(pos > ls.lastPos, "append positions must increase");
    ls.lastPos = pos;
    // Invalidate the per-step recompute memo: a new decode step begins.
    ls.memoIds.clear();
    ls.memoK.clear();
    ls.memoV.clear();

    resolveProbation(ls, pos);

    std::vector<float> kq(k.begin(), k.end());
    std::vector<float> vq(v.begin(), v.end());
    applyPrecision(kq);
    applyPrecision(vq);

    TokenRec tok;
    tok.pos = pos;
    tok.retainingHeads = static_cast<int>(kvHeads_);
    tok.probation = recomputeEnabled();
    if (recomputeEnabled())
        tok.xBits = encode(x, tok.xScale);
    const auto token_id = static_cast<std::int32_t>(ls.tokens.size());
    ls.tokens.push_back(std::move(tok));

    const bool bounded = cfg_.budget > 0 && cfg_.policy != Policy::Full;
    for (std::size_t h = 0; h < kvHeads_; ++h) {
        auto &entries = ls.heads[h];
        if (bounded && entries.size() >= cfg_.budget) {
            auto victim = pickVictim(ls, h, pos);
            KELLE_ASSERT(victim.has_value(), "no evictable slot");
            evictSlot(ls, h, *victim);
        }
        Entry e;
        e.tokenId = token_id;
        e.importance = 0.0f;
        const std::size_t off = h * headDim_;
        e.kBits = encode(std::span<const float>(kq).subspan(off, headDim_),
                         e.kScale);
        e.vBits = encode(std::span<const float>(vq).subspan(off, headDim_),
                         e.vScale);
        entries.push_back(std::move(e));
    }
    ++stats_.appends;
}

void
ManagedKvCache::loadPrefill(std::size_t layer, const tensor::Matrix &k,
                            const tensor::Matrix &v, const tensor::Matrix &x,
                            const std::vector<std::vector<float>> &importance)
{
    KELLE_ASSERT(layer < layers_, "layer out of range");
    auto &ls = state_[layer];
    KELLE_ASSERT(ls.tokens.empty(), "loadPrefill on a non-empty layer");
    const std::size_t n_ctx = k.rows();
    KELLE_ASSERT(v.rows() == n_ctx && x.rows() == n_ctx,
                 "prefill shape mismatch");
    KELLE_ASSERT(importance.size() == kvHeads_,
                 "prefill importance must cover all kv heads");

    const std::int64_t now = static_cast<std::int64_t>(n_ctx);
    const std::int64_t recent_floor =
        now - static_cast<std::int64_t>(cfg_.recentWindow);
    const bool bounded = cfg_.budget > 0 && cfg_.policy != Policy::Full;

    // Per-head retained token sets.
    std::vector<std::vector<char>> retained(
        kvHeads_, std::vector<char>(n_ctx, 0));
    for (std::size_t h = 0; h < kvHeads_; ++h) {
        if (!bounded || n_ctx <= cfg_.budget) {
            std::fill(retained[h].begin(), retained[h].end(), 1);
            continue;
        }
        std::size_t used = 0;
        for (std::size_t n = 0; n < n_ctx; ++n) {
            const auto pos = static_cast<std::int64_t>(n);
            const bool is_sink =
                protectsSink() &&
                pos < static_cast<std::int64_t>(cfg_.sinkTokens);
            const bool is_recent = pos >= recent_floor;
            if (is_sink || is_recent) {
                retained[h][n] = 1;
                ++used;
            }
        }
        const std::size_t budget_left =
            cfg_.budget > used ? cfg_.budget - used : 0;
        std::vector<std::size_t> candidates;
        for (std::size_t n = 0; n < n_ctx; ++n)
            if (!retained[h][n])
                candidates.push_back(n);
        if (scoreBased()) {
            // Top-N' by importance (Section 4.1.1 pre-filling).
            std::stable_sort(candidates.begin(), candidates.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return importance[h][a] > importance[h][b];
                             });
        } else {
            // StreamingLLM keeps the most recent of the remainder.
            std::stable_sort(candidates.begin(), candidates.end(),
                             [](std::size_t a, std::size_t b) {
                                 return a > b;
                             });
        }
        for (std::size_t i = 0;
             i < std::min(budget_left, candidates.size()); ++i) {
            retained[h][candidates[i]] = 1;
        }
    }

    // Materialize token records and head entries.
    for (std::size_t n = 0; n < n_ctx; ++n) {
        int heads_retaining = 0;
        for (std::size_t h = 0; h < kvHeads_; ++h)
            heads_retaining += retained[h][n];
        if (heads_retaining == 0) {
            // Token dropped everywhere; still create a dead record so
            // tokenId == prefill position for debuggability.
            TokenRec dead;
            dead.pos = static_cast<std::int64_t>(n);
            dead.retainingHeads = 0;
            ls.tokens.push_back(std::move(dead));
            continue;
        }

        std::vector<float> kq(k.row(n).begin(), k.row(n).end());
        std::vector<float> vq(v.row(n).begin(), v.row(n).end());
        applyPrecision(kq);
        applyPrecision(vq);

        TokenRec tok;
        tok.pos = static_cast<std::int64_t>(n);
        tok.retainingHeads = heads_retaining;
        const bool in_recent = tok.pos >= recent_floor;
        const bool popular =
            recomputeEnabled() &&
            static_cast<double>(heads_retaining) >=
                cfg_.popularityTheta * static_cast<double>(kvHeads_);
        if (recomputeEnabled() && in_recent) {
            tok.probation = true; // decide when the window passes
            tok.xBits = encode(x.row(n), tok.xScale);
        } else if (popular) {
            tok.xStored = true;
            tok.xBits = encode(x.row(n), tok.xScale);
            ++stats_.xStoredTokens;
        }
        const auto token_id = static_cast<std::int32_t>(ls.tokens.size());
        ls.tokens.push_back(std::move(tok));
        const TokenRec &trec = ls.tokens.back();

        for (std::size_t h = 0; h < kvHeads_; ++h) {
            if (!retained[h][n])
                continue;
            Entry e;
            e.tokenId = token_id;
            e.importance = importance[h][n];
            if (!trec.xStored) {
                const std::size_t off = h * headDim_;
                e.kBits = encode(
                    std::span<const float>(kq).subspan(off, headDim_),
                    e.kScale);
                e.vBits = encode(
                    std::span<const float>(vq).subspan(off, headDim_),
                    e.vScale);
            }
            ls.heads[h].push_back(std::move(e));
        }
    }
    ls.lastPos = static_cast<std::int64_t>(n_ctx) - 1;
}

void
ManagedKvCache::recomputeToken(LayerState &ls, std::size_t layer,
                               std::int32_t token_id,
                               std::vector<float> &k_out,
                               std::vector<float> &v_out)
{
    for (std::size_t i = 0; i < ls.memoIds.size(); ++i) {
        if (ls.memoIds[i] == token_id) {
            k_out = ls.memoK[i];
            v_out = ls.memoV[i];
            return;
        }
    }
    KELLE_ASSERT(recomputer_, "recompute requested without a recomputer");
    auto &tok = ls.tokens[token_id];
    KELLE_ASSERT(!tok.xBits.empty(), "x-stored token lost its input bits");

    // Retention faults on x are drawn once over its stored lifetime
    // and persist in the array (refresh writes back the decayed bits).
    if (!tok.xCorrupted) {
        FaultContext ctx;
        ctx.highScoreToken = true; // popular tokens sit in the HST group
        (injector_ ? *injector_ : static_cast<FaultInjector &>(noFaults_))
            .corrupt(tok.xBits, ctx);
        tok.xCorrupted = true;
    }

    std::vector<float> xf(tok.xBits.size());
    for (std::size_t i = 0; i < tok.xBits.size(); ++i)
        xf[i] = decode(tok.xBits[i], tok.xScale);

    k_out.assign(kvHeads_ * headDim_, 0.0f);
    v_out.assign(kvHeads_ * headDim_, 0.0f);
    recomputer_(layer, xf, tok.pos, k_out, v_out);
    // The RSA emits fp16 partial results; recomputed vectors are
    // transient but still fp16-precision (Section 5.2).
    for (auto &f : k_out)
        f = tensor::roundToHalf(f);
    for (auto &f : v_out)
        f = tensor::roundToHalf(f);

    ls.memoIds.push_back(token_id);
    ls.memoK.push_back(k_out);
    ls.memoV.push_back(v_out);
    ++stats_.recomputes;
}

Gathered
ManagedKvCache::gather(std::size_t layer, std::size_t kv_head)
{
    KELLE_ASSERT(layer < layers_ && kv_head < kvHeads_,
                 "gather index out of range");
    auto &ls = state_[layer];
    auto &entries = ls.heads[kv_head];

    Gathered out;
    out.k = tensor::Matrix(entries.size(), headDim_);
    out.v = tensor::Matrix(entries.size(), headDim_);
    out.slots.resize(entries.size());
    out.positions.resize(entries.size());

    // HST/LST split: tokens at or above the head's importance quantile
    // are refreshed as the high-score group (Section 5.1).
    float median = -std::numeric_limits<float>::infinity();
    if (entries.size() > 1) {
        std::vector<float> imps;
        imps.reserve(entries.size());
        for (const auto &e : entries)
            imps.push_back(e.importance);
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(imps.size()) * (1.0 - cfg_.hstFraction));
        auto mid = imps.begin() +
                   std::min(idx, imps.size() - 1);
        std::nth_element(imps.begin(), mid, imps.end());
        median = *mid;
    }

    FaultInjector &inj =
        injector_ ? *injector_ : static_cast<FaultInjector &>(noFaults_);

    for (std::size_t i = 0; i < entries.size(); ++i) {
        auto &e = entries[i];
        const auto &tok = ls.tokens[e.tokenId];
        out.slots[i] = static_cast<std::uint32_t>(i);
        out.positions[i] = tok.pos;

        if (tok.xStored) {
            std::vector<float> kf, vf;
            recomputeToken(ls, layer, e.tokenId, kf, vf);
            const std::size_t off = kv_head * headDim_;
            for (std::size_t d = 0; d < headDim_; ++d) {
                out.k.at(i, d) = kf[off + d];
                out.v.at(i, d) = vf[off + d];
            }
            continue;
        }

        // One fault draw per stored entry, persisted in place: a cell
        // either decayed during this entry's residency or it did not;
        // subsequent reads see the same (possibly corrupt) bits.
        if (!e.corrupted) {
            FaultContext ctx;
            ctx.highScoreToken = e.importance >= median;
            inj.corrupt(e.kBits, ctx);
            inj.corrupt(e.vBits, ctx);
            e.corrupted = true;
        }
        for (std::size_t d = 0; d < headDim_; ++d) {
            out.k.at(i, d) = decode(e.kBits[d], e.kScale);
            out.v.at(i, d) = decode(e.vBits[d], e.vScale);
        }
    }
    ++stats_.gathers;
    return out;
}

void
ManagedKvCache::observeAttention(std::size_t layer, std::size_t kv_head,
                                 std::span<const float> probs,
                                 std::span<const std::uint32_t> slots)
{
    KELLE_ASSERT(layer < layers_ && kv_head < kvHeads_,
                 "observe index out of range");
    KELLE_ASSERT(probs.size() == slots.size(), "probs/slots mismatch");
    auto &entries = state_[layer].heads[kv_head];
    for (std::size_t i = 0; i < probs.size(); ++i) {
        KELLE_ASSERT(slots[i] < entries.size(), "stale slot id");
        entries[slots[i]].importance += probs[i];
    }
}

std::size_t
ManagedKvCache::numEntries(std::size_t layer, std::size_t kv_head) const
{
    return state_.at(layer).heads.at(kv_head).size();
}

float
ManagedKvCache::importanceOf(std::size_t layer, std::size_t kv_head,
                             std::uint32_t slot) const
{
    return state_.at(layer).heads.at(kv_head).at(slot).importance;
}

bool
ManagedKvCache::isInputStored(std::size_t layer, std::size_t kv_head,
                              std::uint32_t slot) const
{
    const auto &ls = state_.at(layer);
    return ls.tokens.at(ls.heads.at(kv_head).at(slot).tokenId).xStored;
}

double
ManagedKvCache::residentKvBytes() const
{
    const double kv_bytes_per_value = precisionBits(cfg_.precision) / 8.0;
    double total = 0.0;
    for (const auto &ls : state_) {
        for (const auto &tok : ls.tokens) {
            if (tok.retainingHeads > 0 && tok.xStored)
                total += static_cast<double>(dModel_) * 2.0; // fp16 x
        }
        for (const auto &head : ls.heads) {
            for (const auto &e : head) {
                if (!e.kBits.empty()) {
                    total += 2.0 * static_cast<double>(headDim_) *
                             kv_bytes_per_value;
                }
            }
        }
    }
    return total;
}

double
ManagedKvCache::residentActivationBytes() const
{
    double total = 0.0;
    for (const auto &ls : state_) {
        for (const auto &tok : ls.tokens) {
            if (tok.retainingHeads > 0 && tok.probation &&
                !tok.xBits.empty()) {
                total += static_cast<double>(dModel_) * 2.0;
            }
        }
    }
    return total;
}

} // namespace kv
} // namespace kelle
