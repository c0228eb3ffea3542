/**
 * @file
 * Architectural descriptions of the LLMs evaluated in the paper
 * (Section 7.1) plus small executable configurations for the
 * functional accuracy substrate.
 *
 * The end-to-end latency/energy results (Section 8) depend only on
 * tensor shapes and memory traffic; these presets carry the real
 * published dimensions of each model. The derived-quantity helpers
 * (weight bytes, KV bytes/token, MACs/token) are the inputs to the
 * analytic timing model of src/accel.
 */

#ifndef KELLE_MODEL_MODEL_CONFIG_HPP
#define KELLE_MODEL_MODEL_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace kelle {
namespace model {

/** Feed-forward block flavor. */
enum class FfnKind
{
    GatedSilu, ///< LLaMA/Mistral/Qwen: down(silu(gate(x)) * up(x))
    Mlp,       ///< OPT/GPT: down(gelu(up(x)))
};

/** Transformer decoder architecture description. */
struct ModelConfig
{
    std::string name;
    std::size_t layers = 0;
    std::size_t dModel = 0;
    std::size_t nHeads = 0;
    std::size_t nKvHeads = 0; ///< < nHeads implies grouped-query attention
    std::size_t dFfn = 0;
    std::size_t vocab = 0;
    FfnKind ffn = FfnKind::GatedSilu;

    std::size_t headDim() const { return dModel / nHeads; }
    /** Width of the concatenated K (or V) projection output. */
    std::size_t dKv() const { return nKvHeads * headDim(); }

    /** Per-layer weight parameter count (attention + FFN + norms). */
    double paramsPerLayer() const;
    /** Total parameter count including embeddings (tied output head). */
    double totalParams() const;
    /** Total weight bytes at the given weight bit width. */
    double weightBytes(int bits_w) const;
    /** KV cache bytes per token per layer at the given KV bit width. */
    double kvBytesPerTokenPerLayer(int bits_kv) const;
    /** KV cache bytes per token across all layers. */
    double kvBytesPerToken(int bits_kv) const;

    /**
     * Total MAC operations to decode one token with `context_len`
     * cached tokens: QKVO projections + attention score/value products
     * + FFN across all layers, plus the output head.
     */
    double macsPerDecodeToken(std::size_t context_len) const;
    /** MAC operations to prefill a context of the given length. */
    double macsPrefill(std::size_t context_len) const;
    /** The attention-product share of prefill MACs (DynaX sparsity). */
    double macsPrefillAttention(std::size_t context_len) const;

    /** Sanity checks (dModel divisible by heads, GQA grouping, ...). */
    std::string validate() const;
};

/** @name Evaluated-model presets (published architecture dimensions).
 *  @{ */
ModelConfig llama2_7b();
ModelConfig llama2_13b();
ModelConfig llama32_3b();
ModelConfig llama3_8b();
ModelConfig mistral_7b();
ModelConfig qwen2_7b();
ModelConfig opt_6_7b();
/** @} */

/**
 * Small executable config for accuracy experiments: 4 layers, d=128,
 * 8 heads (head dim 16, a power of two so QuaRot rotation applies),
 * vocabulary 256. See DESIGN.md section 1 for the substitution
 * rationale.
 */
ModelConfig tinyLm();
/** GQA variant of the tiny model (8 query heads, 4 kv heads). */
ModelConfig tinyLmGqa();

} // namespace model
} // namespace kelle

#endif // KELLE_MODEL_MODEL_CONFIG_HPP
