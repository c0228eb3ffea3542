#include "accel/technology.hpp"

namespace kelle {
namespace accel {

TechnologyConfig
kelleTech()
{
    return TechnologyConfig{};
}

TechnologyConfig
originalSramTech()
{
    TechnologyConfig t;
    // Section 8.1.1: balanced compute/memory-IO ratio gives a 24x24
    // 8-bit PE array with 4 MB of on-chip SRAM at the same total area.
    t.rsa.rows = 24;
    t.rsa.cols = 24;
    t.rsa.area = Area::mm2(2.19 * (24.0 * 24.0) / (32.0 * 32.0));
    t.kvMemory = mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(128));
    t.actBuffer = mem::sram(Bytes::kib(256), Bandwidth::gibPerSec(128));
    return t;
}

TechnologyConfig
sramSystemTech(Bytes sram_capacity, std::size_t rsa_dim)
{
    TechnologyConfig t;
    t.rsa.rows = rsa_dim;
    t.rsa.cols = rsa_dim;
    t.kvMemory = mem::sram(sram_capacity, Bandwidth::gibPerSec(128));
    t.actBuffer = mem::sram(Bytes::kib(256), Bandwidth::gibPerSec(128));
    return t;
}

TechnologyConfig
edramSystemTech(Bytes edram_capacity)
{
    TechnologyConfig t;
    t.kvMemory = mem::edram(edram_capacity, Bandwidth::gibPerSec(256));
    return t;
}

} // namespace accel
} // namespace kelle
