/**
 * @file
 * Analytic latency/energy/area/refresh models of the Kelle system's
 * memories: on-chip SRAM (weight buffer, or KV storage in the
 * SRAM-based baselines), on-chip eDRAM (KV storage and activation
 * buffer) and off-chip LPDDR4 DRAM.
 *
 * Constants follow Table 1 (65 nm SRAM and eDRAM, Destiny) and
 * Section 8 (16 GB LPDDR4 at 64 GB/s simulated with CACTI-7, as in the
 * Google Coral-class edge platform). Capacity scaling: area and leakage
 * scale linearly with capacity; per-byte access energy scales with
 * sqrt(capacity) (bitline/wordline growth), anchored at the 4 MB point.
 */

#ifndef KELLE_MEMORY_MEMORY_MODEL_HPP
#define KELLE_MEMORY_MEMORY_MODEL_HPP

#include <string>

#include "common/units.hpp"

namespace kelle {
namespace mem {

/** A bandwidth/latency/energy point model of one memory. */
class MemoryModel
{
  public:
    MemoryModel() = default;
    MemoryModel(std::string name, Bytes capacity, Bandwidth bw,
                Time access_latency, EnergyPerByte access_energy,
                Power leakage, Area area,
                EnergyPerByte refresh_energy = EnergyPerByte(0));

    const std::string &name() const { return name_; }
    Bytes capacity() const { return capacity_; }
    Bandwidth bandwidth() const { return bandwidth_; }
    Time accessLatency() const { return accessLatency_; }
    EnergyPerByte accessEnergy() const { return accessEnergy_; }
    Power leakage() const { return leakage_; }
    Area area() const { return area_; }
    /** Energy to refresh one resident byte once; zero for memories
     *  that hold data without refresh (SRAM, and DRAM, whose refresh
     *  is in its background power). */
    EnergyPerByte refreshEnergy() const { return refreshEnergy_; }

    /** Streaming transfer time for a volume (bandwidth-bound). */
    Time transferTime(Bytes bytes) const { return bytes / bandwidth_; }
    /** Access energy for a volume. */
    Energy
    transferEnergy(Bytes bytes) const
    {
        return accessEnergy_ * bytes;
    }

    bool operator==(const MemoryModel &) const = default;

  private:
    std::string name_;
    Bytes capacity_;
    Bandwidth bandwidth_;
    Time accessLatency_;
    EnergyPerByte accessEnergy_;
    Power leakage_;
    Area area_;
    EnergyPerByte refreshEnergy_;
};

/**
 * On-chip SRAM scaled from the Table 1 4 MB anchor
 * (7.3 mm^2, 2.6 ns, 185.9 pJ/B, 415 mW) to the given capacity.
 */
MemoryModel sram(Bytes capacity, Bandwidth bw);

/**
 * On-chip eDRAM scaled from the Table 1 4 MB anchor
 * (3.2 mm^2, 1.9 ns, 84.8 pJ/B, 154 mW), refreshed at a steady-state
 * 112 pJ/B (see memory_model.cpp). The banked array and its 2DRP
 * refresh controllers live in src/edram; this point model covers
 * bandwidth/energy/area/refresh for the analytic timing model.
 */
MemoryModel edram(Bytes capacity, Bandwidth bw);

/** 16 GB LPDDR4 at 64 GB/s (Section 8). */
MemoryModel lpddr4();

} // namespace mem
} // namespace kelle

#endif // KELLE_MEMORY_MEMORY_MODEL_HPP
