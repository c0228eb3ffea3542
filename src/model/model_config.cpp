#include "model/model_config.hpp"

#include <sstream>

namespace kelle {
namespace model {

double
ModelConfig::paramsPerLayer() const
{
    const double d = static_cast<double>(dModel);
    const double dkv = static_cast<double>(dKv());
    // Q and O are d x d; K and V are d x dKv.
    const double attn = 2.0 * d * d + 2.0 * d * dkv;
    double ffn_params = 0.0;
    if (ffn == FfnKind::GatedSilu) {
        ffn_params = 3.0 * d * static_cast<double>(dFfn);
    } else {
        ffn_params = 2.0 * d * static_cast<double>(dFfn);
    }
    const double norms = 2.0 * d;
    return attn + ffn_params + norms;
}

double
ModelConfig::totalParams() const
{
    const double embed =
        static_cast<double>(vocab) * static_cast<double>(dModel);
    return static_cast<double>(layers) * paramsPerLayer() + embed;
}

double
ModelConfig::weightBytes(int bits_w) const
{
    return totalParams() * bits_w / 8.0;
}

double
ModelConfig::kvBytesPerTokenPerLayer(int bits_kv) const
{
    return 2.0 * static_cast<double>(dKv()) * bits_kv / 8.0;
}

double
ModelConfig::kvBytesPerToken(int bits_kv) const
{
    return static_cast<double>(layers) * kvBytesPerTokenPerLayer(bits_kv);
}

double
ModelConfig::macsPerDecodeToken(std::size_t context_len) const
{
    const double d = static_cast<double>(dModel);
    const double dkv = static_cast<double>(dKv());
    const double n = static_cast<double>(context_len);
    const double proj = 2.0 * d * d + 2.0 * d * dkv; // q,o + k,v
    // Scores q.K^T and probs.V: every query head attends over n entries
    // of headDim, so 2 * n * dModel in total (shared K/V in GQA changes
    // traffic, not MACs).
    const double attn = 2.0 * n * d;
    double ffn_macs = 0.0;
    if (ffn == FfnKind::GatedSilu) {
        ffn_macs = 3.0 * d * static_cast<double>(dFfn);
    } else {
        ffn_macs = 2.0 * d * static_cast<double>(dFfn);
    }
    const double head = static_cast<double>(vocab) * d;
    return (proj + attn + ffn_macs) * static_cast<double>(layers) + head;
}

double
ModelConfig::macsPrefillAttention(std::size_t context_len) const
{
    const double n = static_cast<double>(context_len);
    return n * 2.0 * static_cast<double>(dModel) * (n + 1.0) / 2.0 *
           static_cast<double>(layers);
}

double
ModelConfig::macsPrefill(std::size_t context_len) const
{
    // Sum of per-position decode MACs with a growing context.
    const double n = static_cast<double>(context_len);
    const double d = static_cast<double>(dModel);
    const double dkv = static_cast<double>(dKv());
    const double proj = 2.0 * d * d + 2.0 * d * dkv;
    double ffn_macs = (ffn == FfnKind::GatedSilu ? 3.0 : 2.0) * d *
                      static_cast<double>(dFfn);
    const double attn = 2.0 * d * (n + 1.0) / 2.0; // average context n/2
    const double per_pos_per_layer = proj + ffn_macs + attn;
    return n * per_pos_per_layer * static_cast<double>(layers);
}

std::string
ModelConfig::validate() const
{
    std::ostringstream err;
    if (nHeads == 0 || dModel % nHeads != 0)
        err << "dModel must be divisible by nHeads";
    if (nKvHeads == 0 || nHeads % nKvHeads != 0)
        err << "; nHeads must be divisible by nKvHeads";
    if (layers == 0 || vocab == 0 || dFfn == 0)
        err << "; zero-sized dimension";
    return err.str();
}

namespace {

ModelConfig
make(std::string name, std::size_t layers, std::size_t d, std::size_t h,
     std::size_t hkv, std::size_t ffn, std::size_t vocab, FfnKind kind)
{
    ModelConfig cfg;
    cfg.name = std::move(name);
    cfg.layers = layers;
    cfg.dModel = d;
    cfg.nHeads = h;
    cfg.nKvHeads = hkv;
    cfg.dFfn = ffn;
    cfg.vocab = vocab;
    cfg.ffn = kind;
    return cfg;
}

} // namespace

ModelConfig
llama2_7b()
{
    return make("LLaMA2-7B", 32, 4096, 32, 32, 11008, 32000,
                FfnKind::GatedSilu);
}

ModelConfig
llama2_13b()
{
    return make("LLaMA2-13B", 40, 5120, 40, 40, 13824, 32000,
                FfnKind::GatedSilu);
}

ModelConfig
llama32_3b()
{
    return make("LLaMA3.2-3B", 28, 3072, 24, 8, 8192, 128256,
                FfnKind::GatedSilu);
}

ModelConfig
llama3_8b()
{
    return make("LLaMA3-8B", 32, 4096, 32, 8, 14336, 128256,
                FfnKind::GatedSilu);
}

ModelConfig
mistral_7b()
{
    return make("Mistral-7B", 32, 4096, 32, 8, 14336, 32000,
                FfnKind::GatedSilu);
}

ModelConfig
qwen2_7b()
{
    return make("QWEN2-7B", 28, 3584, 28, 4, 18944, 152064,
                FfnKind::GatedSilu);
}

ModelConfig
opt_6_7b()
{
    return make("OPT-6.7B", 32, 4096, 32, 32, 16384, 50272, FfnKind::Mlp);
}

ModelConfig
tinyLm()
{
    return make("TinyLM", 4, 128, 8, 8, 256, 256, FfnKind::GatedSilu);
}

ModelConfig
tinyLmGqa()
{
    return make("TinyLM-GQA", 4, 128, 8, 4, 256, 256, FfnKind::GatedSilu);
}

} // namespace model
} // namespace kelle
