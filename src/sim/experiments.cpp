#include "sim/experiments.hpp"

#include "accel/comparators.hpp"
#include "common/log.hpp"

namespace kelle {
namespace sim {

namespace {

/** Run `systems` on one task's workload, normalized to the first. */
std::vector<SystemResult>
runSystems(const Task &task, const model::ModelConfig &model,
           std::size_t batch,
           const std::vector<accel::SystemConfig> &systems)
{
    const accel::Workload w = makeWorkload(task, model, batch);
    std::vector<SystemResult> out;
    accel::RunReport base;
    for (std::size_t i = 0; i < systems.size(); ++i) {
        SystemResult r;
        r.system = systems[i].name;
        r.task = task.name;
        r.report = accel::simulate(systems[i], w);
        if (i == 0) {
            base = r.report;
            r.speedup = 1.0;
            r.energyEfficiency = 1.0;
        } else {
            const auto cmp = accel::compare(base, r.report);
            r.speedup = cmp.speedup;
            r.energyEfficiency = cmp.energyEfficiency;
        }
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace

std::vector<accel::SystemConfig>
figure13Systems(const Task &task)
{
    return {
        accel::originalSramSystem(),
        accel::originalEdramSystem(),
        accel::aepSramSystem(task.budget),
        accel::aerpSramSystem(task.budget),
        accel::kelleEdramSystem(task.budget),
    };
}

std::vector<SystemResult>
runFigure13(const Task &task, const model::ModelConfig &model,
            std::size_t batch)
{
    return runSystems(task, model, batch, figure13Systems(task));
}

std::vector<SystemResult>
runFigure14(const Task &task, const model::ModelConfig &model,
            std::size_t batch)
{
    return runSystems(task, model, batch,
                      {
                          accel::comparators::jetsonOrin(),
                          accel::comparators::llmNpu(),
                          accel::comparators::dynaX(),
                          accel::comparators::comet(),
                          accel::kelleEdramSystem(task.budget),
                      });
}

AccuracyBench::AccuracyBench(const Task &scaled_task, std::uint64_t seed,
                             const model::ModelConfig &cfg)
    : task_(scaled_task), model_(cfg, model::InitOptions{seed, 1.5f})
{
    stream_ = model::generateStream(model_, task_.ctxLen, task_.decLen,
                                    0.9, seed + 17);
    // Full-KV FP16 baseline run.
    kv::ManagedKvCache cache(kv::makeFullConfig(), cfg.layers,
                             cfg.nKvHeads, cfg.headDim(), cfg.dModel);
    model_.attach(cache);
    baseline_ =
        model::runStream(model_, cache, stream_.tokens, stream_.promptLen);
}

model::PolicyEval
AccuracyBench::run(const kv::KvCacheConfig &cfg,
                   kv::FaultInjector *injector)
{
    return model::evaluatePolicy(model_, cfg, injector, stream_,
                                 baseline_);
}

MultiSeedBench::MultiSeedBench(const Task &scaled_task,
                               std::size_t num_seeds,
                               std::uint64_t base_seed,
                               const model::ModelConfig &cfg)
{
    KELLE_ASSERT(num_seeds > 0, "need at least one seed");
    for (std::size_t i = 0; i < num_seeds; ++i) {
        benches_.push_back(std::make_unique<AccuracyBench>(
            scaled_task, base_seed + 1000 * i, cfg));
    }
}

model::PolicyEval
MultiSeedBench::run(
    const kv::KvCacheConfig &cfg,
    const std::function<std::unique_ptr<kv::FaultInjector>(
        std::uint64_t seed)> &injector_factory)
{
    model::PolicyEval acc;
    for (std::size_t i = 0; i < benches_.size(); ++i) {
        std::unique_ptr<kv::FaultInjector> injector;
        if (injector_factory)
            injector = injector_factory(7919 * (i + 1));
        const auto r = benches_[i]->run(cfg, injector.get());
        acc.perplexity += r.perplexity;
        acc.agreementTop1 += r.agreementTop1;
        acc.residentKvBytes += r.residentKvBytes;
    }
    const auto n = static_cast<double>(benches_.size());
    acc.perplexity /= n;
    acc.agreementTop1 /= n;
    acc.residentKvBytes /= n;
    return acc;
}

double
MultiSeedBench::baselinePerplexity() const
{
    double acc = 0.0;
    for (const auto &b : benches_)
        acc += b->baselinePerplexity();
    return acc / static_cast<double>(benches_.size());
}

} // namespace sim
} // namespace kelle
