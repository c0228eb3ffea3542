/**
 * @file
 * Experiment drivers shared by the bench harnesses: the five-system
 * hardware comparison of Figure 13, the accuracy-policy sweep behind
 * Tables 2-6, and small helpers for the ablation benches.
 */

#ifndef KELLE_SIM_EXPERIMENTS_HPP
#define KELLE_SIM_EXPERIMENTS_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/timing_model.hpp"
#include "edram/fault_model.hpp"
#include "model/evaluate.hpp"
#include "sim/workloads.hpp"

namespace kelle {
namespace sim {

/** One system's result on one task. */
struct SystemResult
{
    std::string system;
    std::string task;
    accel::RunReport report;
    double speedup = 1.0;          ///< vs Original+SRAM
    double energyEfficiency = 1.0; ///< vs Original+SRAM
};

/** The five Figure 13 systems at `task`'s budget, Original+SRAM
 *  (the baseline) first. */
std::vector<accel::SystemConfig> figure13Systems(const Task &task);

/** Run the five Figure 13 systems on one task. */
std::vector<SystemResult> runFigure13(const Task &task,
                                      const model::ModelConfig &model,
                                      std::size_t batch = 16);

/** Run the Figure 14 comparators (normalized to Jetson). */
std::vector<SystemResult> runFigure14(const Task &task,
                                      const model::ModelConfig &model,
                                      std::size_t batch = 16);

/** Accuracy evaluation context reused across policies. */
class AccuracyBench
{
  public:
    /**
     * Build the substrate: a TinyTransformer, a self-generated token
     * stream of task-scaled length, and the full-KV FP16 baseline.
     */
    AccuracyBench(const Task &scaled_task, std::uint64_t seed,
                  const model::ModelConfig &cfg = model::tinyLm());

    /** Evaluate a policy config (optionally with fault injection). */
    model::PolicyEval run(const kv::KvCacheConfig &cfg,
                          kv::FaultInjector *injector = nullptr);

    /** The full-cache baseline evaluation (PPL floor). */
    const model::StreamEval &baseline() const { return baseline_; }
    double baselinePerplexity() const { return baseline_.perplexity(); }
    const Task &task() const { return task_; }
    model::TinyTransformer &model() { return model_; }
    const model::SyntheticStream &stream() const { return stream_; }

  private:
    Task task_;
    model::TinyTransformer model_;
    model::SyntheticStream stream_;
    model::StreamEval baseline_;
};

/**
 * Seed-averaged accuracy bench: runs the same policy across several
 * independently-seeded substrates and streams, averaging perplexity
 * and agreement. Retention-fault experiments are stochastic; the
 * paper averages over datasets, this harness averages over seeds.
 */
class MultiSeedBench
{
  public:
    MultiSeedBench(const Task &scaled_task, std::size_t num_seeds,
                   std::uint64_t base_seed,
                   const model::ModelConfig &cfg = model::tinyLm());

    /**
     * Evaluate a policy; `injector_factory` builds a fresh injector
     * per seed (pass nullptr-returning factory for fault-free runs).
     */
    model::PolicyEval
    run(const kv::KvCacheConfig &cfg,
        const std::function<std::unique_ptr<kv::FaultInjector>(
            std::uint64_t seed)> &injector_factory = {});

    double baselinePerplexity() const;
    std::size_t seeds() const { return benches_.size(); }

  private:
    std::vector<std::unique_ptr<AccuracyBench>> benches_;
};

} // namespace sim
} // namespace kelle

#endif // KELLE_SIM_EXPERIMENTS_HPP
