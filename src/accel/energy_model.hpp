/**
 * @file
 * Component-wise energy accounting of a simulated run.
 */

#ifndef KELLE_ACCEL_ENERGY_MODEL_HPP
#define KELLE_ACCEL_ENERGY_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/repeated_add.hpp"
#include "common/units.hpp"

namespace kelle {
namespace accel {

/** Per-component energy of one phase (prefill or decode). */
struct EnergyBreakdown
{
    Energy rsa;        ///< MAC array switching energy
    Energy sfu;        ///< nonlinear ops
    Energy weightSram; ///< weight staging traffic
    Energy kvMem;      ///< on-chip KV traffic (eDRAM or SRAM)
    Energy refresh;    ///< eDRAM refresh (KV-resident + transients)
    Energy dram;       ///< off-chip traffic
    Energy leakage;    ///< on-chip leakage + DRAM background

    Energy total() const;

    EnergyBreakdown &
    operator+=(const EnergyBreakdown &o)
    {
        rsa += o.rsa;
        sfu += o.sfu;
        weightSram += o.weightSram;
        kvMem += o.kvMem;
        refresh += o.refresh;
        dram += o.dram;
        leakage += o.leakage;
        return *this;
    }

    /** `k` sequential `+= o`, bit for bit (`repeatedAdd` per
     *  component). */
    EnergyBreakdown &
    addRepeated(const EnergyBreakdown &o, std::uint64_t k)
    {
        const auto add = [k](Energy &s, Energy x) {
            s.value = repeatedAdd(s.value, x.value, k);
        };
        add(rsa, o.rsa);
        add(sfu, o.sfu);
        add(weightSram, o.weightSram);
        add(kvMem, o.kvMem);
        add(refresh, o.refresh);
        add(dram, o.dram);
        add(leakage, o.leakage);
        return *this;
    }

    /** On-chip share only (the paper's Figure 13 pie charts). */
    Energy onChipTotal() const;

    /** Human-readable component: fraction table. */
    std::vector<std::pair<std::string, double>> shares() const;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_ENERGY_MODEL_HPP
