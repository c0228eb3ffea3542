/**
 * @file
 * The benchmark's workloads: each is a fixed list of cluster *cells*
 * (one `ClusterEngine` built and run on one config), a headline cell
 * whose simulated outputs are the workload's modelled-serving metrics,
 * and the rate ladder the simulated capacity is read from.
 *
 * A *rep* runs every cell once, all on one arrival-trace seed. Rep r
 * of a run seeded S uses `repSeed(S, r)`, so a run covers many
 * independent traces (one trace per rep varies the host work by up to
 * 2x on the bursty workload) and the same S gives the same traces.
 */

#ifndef KELLE_BENCHMARK_WORKLOADS_HPP
#define KELLE_BENCHMARK_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"

namespace kelle {
namespace benchmark {

struct Workload
{
    /** Run in this order; traffic seeds are set per rep. */
    std::vector<cluster::ClusterConfig> cells;
    /** Index into `cells` of the cell the sim_* metrics come from. */
    std::size_t headline = 0;
    /** Cells of the headline dispatch policy in ascending arrival rate
     *  (knee_ladder only; empty elsewhere). */
    std::vector<std::size_t> ladder;
};

/**
 * Build a workload; `smoke` shrinks every cell to 100 requests.
 * Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, bool smoke, Workload *out);

/** Trace seed of rep `rep`: `seed` itself for rep 0, then a
 *  splitmix64 stream. */
std::uint64_t repSeed(std::uint64_t seed, std::size_t rep);

/** What one cell run produced, beyond the ClusterReport itself. */
struct CellResult
{
    cluster::ClusterReport report;
    /** Hash of every request's lifecycle and the report's simulated
     *  fields: equal digests mean bit-equal simulated outputs. */
    std::uint64_t digest = 0;
    std::size_t sent = 0;
    std::uint64_t promptTokens = 0;
    /** sent == completed + rejected (permanent fault failures count
     *  as rejections), every request terminal, every device drained. */
    bool conserved = false;
    std::uint64_t steps = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0;
    std::uint64_t fastForwarded = 0;
    accel::StepCostCache::Stats cache;
};

/** Hooks the traced reps thread through a cell run. */
class SpanRecorder;
struct CellTrace
{
    SpanRecorder *spans = nullptr;
    std::uint64_t parent = 0;
    std::uint64_t cellRun = 0;
};

/** Build and run one cell; with `trace.spans`, record its spans. */
CellResult runCell(const cluster::ClusterConfig &cfg,
                   const CellTrace &trace = {});

} // namespace benchmark
} // namespace kelle

#endif // KELLE_BENCHMARK_WORKLOADS_HPP
