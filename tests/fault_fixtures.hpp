/**
 * @file
 * Tiny-model fault clusters shared by the fault and attribution
 * tests: sub-second runs whose fault streams actually fire.
 */

#ifndef KELLE_TESTS_FAULT_FIXTURES_HPP
#define KELLE_TESTS_FAULT_FIXTURES_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "faults/fault_injector.hpp"

namespace kelle {

inline std::vector<std::pair<sim::Task, double>>
tinyMix()
{
    return {{sim::scaledForTiny(sim::lambada(), 96), 1.0},
            {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
}

/** Fault timescales matched to the tiny-model sim (sub-second runs). */
inline faults::FaultConfig
tinyFaults(std::uint64_t seed = 42)
{
    faults::FaultConfig f;
    f.enabled = true;
    f.mtbfSec = 0.02;
    f.mttrSec = 0.01;
    f.recoverWarmupSec = 0.005;
    f.retryBackoffSec = 0.002;
    f.retryBackoffCapSec = 0.05;
    f.seed = seed;
    return f;
}

inline cluster::ClusterConfig
tinyFaultCluster(std::size_t n_devices, std::uint64_t seed = 42,
                 std::size_t requests = 24)
{
    cluster::ClusterConfig ccfg;
    serving::ServingConfig &cfg = ccfg.engine;
    cfg.model = model::tinyLm();
    cfg.policy = serving::SchedulePolicy::ContinuousBatching;
    cfg.traffic.ratePerSec = 300.0;
    cfg.traffic.seed = seed;
    cfg.traffic.numRequests = requests;
    cfg.traffic.mix = tinyMix();
    ccfg.devices = cluster::homogeneousFleet(
        n_devices, accel::kelleEdramSystem(2048), 512, 4);
    ccfg.faults = tinyFaults(seed);
    return ccfg;
}

/** Crash-only stream at an aggressive rate: every recovery knob and
 *  retry path fires. */
inline cluster::ClusterConfig
crashyCluster(std::uint64_t seed = 42)
{
    cluster::ClusterConfig cfg = tinyFaultCluster(2, seed);
    cfg.faults.slowdownWeight = 0.0;
    cfg.faults.shrinkWeight = 0.0;
    cfg.faults.mtbfSec = 0.01;
    return cfg;
}

} // namespace kelle

#endif // KELLE_TESTS_FAULT_FIXTURES_HPP
