#include "accel/energy_model.hpp"

namespace kelle {
namespace accel {

Energy
EnergyBreakdown::total() const
{
    return rsa + sfu + weightSram + kvMem + refresh + dram + leakage;
}

Energy
EnergyBreakdown::onChipTotal() const
{
    return rsa + sfu + weightSram + kvMem + refresh;
}

std::vector<std::pair<std::string, double>>
EnergyBreakdown::shares() const
{
    const double t = total().j();
    auto frac = [t](Energy e) { return t > 0 ? e.j() / t : 0.0; };
    return {
        {"rsa", frac(rsa)},        {"sfu", frac(sfu)},
        {"weight_sram", frac(weightSram)},
        {"kv_mem", frac(kvMem)},   {"refresh", frac(refresh)},
        {"dram", frac(dram)},      {"leakage", frac(leakage)},
    };
}

} // namespace accel
} // namespace kelle
