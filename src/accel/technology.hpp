/**
 * @file
 * Technology and platform constants of the Kelle accelerator and its
 * baselines (Sections 5 and 8). Every constant cites the table or
 * paragraph it comes from; everything downstream (timing, energy,
 * area) derives from this one struct so experiments can perturb a
 * single knob. Each memory is one `mem::MemoryModel` that describes
 * itself whole, refresh included: an eDRAM refreshes at its own
 * per-byte energy, an SRAM at none, so no flag here repeats which
 * technology a memory is.
 */

#ifndef KELLE_ACCEL_TECHNOLOGY_HPP
#define KELLE_ACCEL_TECHNOLOGY_HPP

#include <cstddef>

#include "common/units.hpp"
#include "memory/memory_model.hpp"

namespace kelle {
namespace accel {

/** Compute-array parameters. */
struct RsaConfig
{
    std::size_t rows = 32; ///< 32x32 PEs (Section 5)
    std::size_t cols = 32;
    double clockHz = 1e9; ///< 1 GHz (Section 8)
    /**
     * MACs per PE per cycle. The paper reports 4.13 INT8 TOPs for the
     * 32x32 array at 1 GHz, which implies a double-pumped 8-bit MAC
     * datapath (2 MACs/PE/cycle ~ 4.1 TOPS at 2 ops/MAC).
     */
    double macsPerPeCycle = 2.0;
    /**
     * 8-bit MAC energy at 45 nm synthesis; 0.25 pJ/MAC including local
     * registers and clocking is the NanGate-class figure consistent
     * with the paper's 17% RSA share of 6.52 W on-chip power.
     */
    Energy macEnergy = Energy::picos(0.25);
    /** Area of the PE array + evictor + control (23% of 9.5 mm^2). */
    Area area = Area::mm2(2.19);
    /** Sustained utilization of the array on decode GEMV/GEMM work. */
    double utilization = 0.75;

    bool operator==(const RsaConfig &) const = default;

    double peakMacsPerSec() const
    {
        return static_cast<double>(rows * cols) * clockHz *
               macsPerPeCycle;
    }
    /** INT8 TOPS at 2 ops per MAC (the paper's 4.13 TOPs metric). */
    double
    peakInt8Tops() const
    {
        return 2.0 * peakMacsPerSec() / 1e12;
    }
};

/** Special function unit (softmax/normalization/activation/embedding). */
struct SfuConfig
{
    /** Energy per scalar nonlinear op (Softermax-style LUT path). */
    Energy opEnergy = Energy::picos(1.2);
    /** Scalar ops per cycle (vector lanes). */
    std::size_t lanes = 32;
    Area area = Area::mm2(0.67); ///< 7% of 9.5 mm^2

    bool operator==(const SfuConfig &) const = default;
};

/** The full platform: compute + memory hierarchy. */
struct TechnologyConfig
{
    RsaConfig rsa;
    SfuConfig sfu;

    /** Weight staging SRAM: 2 MB at 128 GB/s (Sections 5.1, 8). */
    mem::MemoryModel weightSram =
        mem::sram(Bytes::mib(2), Bandwidth::gibPerSec(128));

    /** KV storage: 4 MB eDRAM at 256 GB/s (Section 8), or SRAM in the
     *  SRAM-based systems. Its refresh energy prices resident KV. */
    mem::MemoryModel kvMemory =
        mem::edram(Bytes::mib(4), Bandwidth::gibPerSec(256));

    /** Activation buffer: 256 KB eDRAM (Section 5.1). Its refresh
     *  energy prices transient activations. */
    mem::MemoryModel actBuffer =
        mem::edram(Bytes::kib(256), Bandwidth::gibPerSec(256));

    /** Off-chip LPDDR4. */
    mem::MemoryModel dram = mem::lpddr4();

    /** Weight precision in bits (Section 5: weights quantized to 8). */
    int weightBits = 8;

    /**
     * Fraction of peak DRAM bandwidth the platform sustains on decode
     * traffic. Dedicated streaming accelerators with a DMA'd layout
     * reach ~1.0; GPUs running small-batch GEMV typically sustain
     * 50-60% of peak (used by the Figure 14 comparators).
     */
    double dramEfficiency = 1.0;

    /** Additional always-on platform power (GPU SoC uncore etc.). */
    Power socStaticPower = Power::watts(0);

    bool operator==(const TechnologyConfig &) const = default;
};

/** The Kelle accelerator as evaluated (Section 8). */
TechnologyConfig kelleTech();

/**
 * The Original+SRAM baseline: iso-area SRAM system with a 24x24 RSA
 * and 4 MB of SRAM (Section 8.1.1), 16 GB DRAM.
 */
TechnologyConfig originalSramTech();

/** A 4 MB- or 8 MB-SRAM variant used by the Figure 3 motivation. */
TechnologyConfig sramSystemTech(Bytes sram_capacity,
                                std::size_t rsa_dim = 32);
/** eDRAM system variant for Figure 3 (KV in eDRAM of given size). */
TechnologyConfig edramSystemTech(Bytes edram_capacity);

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_TECHNOLOGY_HPP
