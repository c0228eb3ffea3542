/**
 * @file
 * Transaction-level model of the Kelle KV-cache eDRAM subsystem
 * (Figure 10): 32 banks organized as four lanes — Key-MSB, Key-LSB,
 * Value-MSB, Value-LSB — of 8 banks each, a 4-bit importance-score
 * register file with one entry per row, an eviction controller, and
 * two refresh controllers (one over the MSB lanes, one over the LSB
 * lanes) each maintaining separate HST and LST interval timers.
 *
 * The model tracks time at nanosecond resolution: demand accesses
 * occupy banks, refresh passes are scheduled into idle windows
 * ("the refresh operation is triggered when the KV vectors are not
 *  used by the model, so the refresh latency can be hidden",
 * Section 5.1), and energy for access, refresh and leakage is
 * accounted explicitly.
 */

#ifndef KELLE_EDRAM_EDRAM_ARRAY_HPP
#define KELLE_EDRAM_EDRAM_ARRAY_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "edram/refresh_policy.hpp"

namespace kelle {
namespace edram {

/** The four bank lanes of Figure 10. */
enum class Lane
{
    KeyMsb = 0,
    KeyLsb = 1,
    ValueMsb = 2,
    ValueLsb = 3,
};

inline constexpr std::size_t kNumLanes = 4;

/** Physical/electrical parameters (Table 1, 65 nm, 105 C). */
struct EdramArrayConfig
{
    Bytes capacity = Bytes::mib(4);
    std::size_t banksPerLane = 8; ///< 4 lanes x 8 banks = 32 banks
    /** Row payload per lane (128 bits in Figure 10). */
    Bytes laneRowBytes = Bytes::count(16);
    Bandwidth totalBandwidth = Bandwidth::gibPerSec(256);
    Time accessLatency = Time::nanos(1.9);
    EnergyPerByte accessEnergy = EnergyPerByte::picojoules(84.8);
    /** Read+write energy of refreshing one byte (1.14 mJ / 4 MiB). */
    EnergyPerByte refreshEnergy = EnergyPerByte::picojoules(272.0);
    /** Leakage power scaled to the configured capacity. */
    Power leakagePer4Mib = Power::milliwatts(154);

    bool operator==(const EdramArrayConfig &) const = default;

    std::size_t totalBanks() const { return kNumLanes * banksPerLane; }
    Bandwidth
    perBankBandwidth() const
    {
        return Bandwidth::bytesPerSec(totalBandwidth.value /
                                      static_cast<double>(totalBanks()));
    }
    /** Number of addressable rows (token entries) per lane bank set. */
    std::size_t rowCapacity() const;
    Power
    leakage() const
    {
        return Power::watts(leakagePer4Mib.w() * capacity.inMib() / 4.0);
    }
};

/** Completed-transaction timing result. */
struct AccessResult
{
    Time start;
    Time complete;
};

/** The banked KV eDRAM array with 2DRP refresh controllers. */
class KvEdramArray
{
  public:
    KvEdramArray(const EdramArrayConfig &cfg, RefreshIntervals intervals);

    /** Allocate/overwrite a token row; returns write timing. */
    AccessResult writeRow(std::size_t row, Time now);
    /** Read one token row across all four lanes in parallel. */
    AccessResult readRow(std::size_t row, Time now);
    /** Read only one lane of a row (e.g. recompute needs x once). */
    AccessResult readLane(std::size_t row, Lane lane, Time now);
    /** Invalidate a row (eviction controller). */
    void evictRow(std::size_t row);

    /** Update the 4-bit importance score register of a row. */
    void setScore(std::size_t row, std::uint8_t score4);
    std::uint8_t score(std::size_t row) const;
    /** Scores at or above this value belong to the HST group. */
    void setHstThreshold(std::uint8_t threshold);

    /**
     * Advance wall time, executing due refresh passes. Refresh work is
     * overlapped with bank idle time; any residue that could not be
     * hidden is accumulated as stall time.
     */
    void advanceTo(Time now);

    /** Energy consumed so far (access + refresh + leakage up to now). */
    Energy totalEnergy(Time now) const;
    Energy refreshEnergySpent() const { return refreshEnergy_; }
    Energy accessEnergySpent() const { return accessEnergy_; }
    Time hiddenRefreshTime() const { return hiddenRefresh_; }
    Time stallTime() const { return stall_; }
    std::uint64_t refreshOps() const { return stats_.refreshRows; }
    std::size_t validRows() const;

    /** Row operation counts since construction. */
    struct Stats
    {
        std::uint64_t reads = 0;       ///< full-row reads (both lanes)
        std::uint64_t writes = 0;      ///< full-row writes
        std::uint64_t refreshRows = 0; ///< rows refreshed, all passes
    };

    const EdramArrayConfig &config() const { return cfg_; }
    const Stats &stats() const { return stats_; }

  private:
    struct Row
    {
        bool valid = false;
        std::uint8_t score = 0;
    };

    /** One refresh timer per (controller in {MSB, LSB}) x (HST/LST). */
    struct GroupTimer
    {
        Time nextDue;
        Time interval;
        bool msbController = false;
        bool hstGroup = false;
    };

    std::size_t bankOf(std::size_t row) const
    {
        return row % cfg_.banksPerLane;
    }
    Time &bankFree(Lane lane, std::size_t bank);
    Time perRowTime() const;
    void runRefreshPass(const GroupTimer &timer, Time due);

    EdramArrayConfig cfg_;
    std::vector<Row> rows_;
    /** nextFree per (lane, bank). */
    std::array<std::vector<Time>, kNumLanes> bankFree_;
    /** End of the last *demand* occupancy per (lane, bank); used to
     *  attribute refresh time to hidden vs stalling work. */
    std::array<std::vector<Time>, kNumLanes> demandBusy_;
    std::array<GroupTimer, 4> timers_;
    std::uint8_t hstThreshold_ = 8;

    Time lastAdvance_;
    Energy accessEnergy_;
    Energy refreshEnergy_;
    Time hiddenRefresh_;
    Time stall_;
    Stats stats_;
};

} // namespace edram
} // namespace kelle

#endif // KELLE_EDRAM_EDRAM_ARRAY_HPP
