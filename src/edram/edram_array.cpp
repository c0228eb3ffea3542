#include "edram/edram_array.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace kelle {
namespace edram {

std::size_t
EdramArrayConfig::rowCapacity() const
{
    // A row spans all four lanes: each lane stores laneRowBytes of it.
    const double row_bytes = laneRowBytes.b() * kNumLanes;
    return static_cast<std::size_t>(capacity.b() / row_bytes);
}

KvEdramArray::KvEdramArray(const EdramArrayConfig &cfg,
                           RefreshIntervals intervals)
    : cfg_(cfg), rows_(cfg.rowCapacity()), lastAdvance_(Time::seconds(0)),
      accessEnergy_(Energy::joules(0)), refreshEnergy_(Energy::joules(0)),
      hiddenRefresh_(Time::seconds(0)), stall_(Time::seconds(0))
{
    KELLE_ASSERT(cfg.banksPerLane > 0, "need at least one bank per lane");
    for (auto &lane : bankFree_)
        lane.assign(cfg.banksPerLane, Time::seconds(0));
    for (auto &lane : demandBusy_)
        lane.assign(cfg.banksPerLane, Time::seconds(0));

    // MSB controller covers Key-MSB + Value-MSB lanes; LSB controller
    // the two LSB lanes. Each controller has an HST and an LST timer
    // (Section 5.1: "two refresh controllers ... executing 2DRP
    // separately over MSB and LSB banks").
    timers_[0] = {intervals.of(RefreshGroup::HstMsb),
                  intervals.of(RefreshGroup::HstMsb), true, true};
    timers_[1] = {intervals.of(RefreshGroup::LstMsb),
                  intervals.of(RefreshGroup::LstMsb), true, false};
    timers_[2] = {intervals.of(RefreshGroup::HstLsb),
                  intervals.of(RefreshGroup::HstLsb), false, true};
    timers_[3] = {intervals.of(RefreshGroup::LstLsb),
                  intervals.of(RefreshGroup::LstLsb), false, false};
}

Time &
KvEdramArray::bankFree(Lane lane, std::size_t bank)
{
    return bankFree_[static_cast<std::size_t>(lane)][bank];
}

Time
KvEdramArray::perRowTime() const
{
    // Streaming one lane-row out of one bank at the per-bank bandwidth.
    return cfg_.laneRowBytes / cfg_.perBankBandwidth();
}

AccessResult
KvEdramArray::writeRow(std::size_t row, Time now)
{
    KELLE_ASSERT(row < rows_.size(), "row out of range");
    advanceTo(now);
    rows_[row].valid = true;

    const std::size_t bank = bankOf(row);
    Time start = now;
    Time demand_ready = now;
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        start = std::max(start, bankFree_[l][bank]);
        demand_ready = std::max(demand_ready, demandBusy_[l][bank]);
    }
    // Any wait beyond pending demand work is refresh-induced stall.
    if (start > demand_ready)
        stall_ += start - demand_ready;
    const Time complete = start + perRowTime() + cfg_.accessLatency;
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        bankFree_[l][bank] = complete;
        demandBusy_[l][bank] = complete;
    }

    accessEnergy_ +=
        cfg_.accessEnergy * Bytes(cfg_.laneRowBytes.b() * kNumLanes);
    ++stats_.writes;
    return {start, complete};
}

AccessResult
KvEdramArray::readRow(std::size_t row, Time now)
{
    KELLE_ASSERT(row < rows_.size(), "row out of range");
    KELLE_ASSERT(rows_[row].valid, "read of an invalid row ", row);
    advanceTo(now);

    const std::size_t bank = bankOf(row);
    Time start = now;
    Time demand_ready = now;
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        start = std::max(start, bankFree_[l][bank]);
        demand_ready = std::max(demand_ready, demandBusy_[l][bank]);
    }
    if (start > demand_ready)
        stall_ += start - demand_ready;
    const Time complete = start + perRowTime() + cfg_.accessLatency;
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        bankFree_[l][bank] = complete;
        demandBusy_[l][bank] = complete;
    }

    accessEnergy_ +=
        cfg_.accessEnergy * Bytes(cfg_.laneRowBytes.b() * kNumLanes);
    ++stats_.reads;
    return {start, complete};
}

AccessResult
KvEdramArray::readLane(std::size_t row, Lane lane, Time now)
{
    KELLE_ASSERT(row < rows_.size(), "row out of range");
    KELLE_ASSERT(rows_[row].valid, "read of an invalid row ", row);
    advanceTo(now);

    const std::size_t bank = bankOf(row);
    const Time start = std::max(now, bankFree(lane, bank));
    const Time demand_ready = std::max(
        now, demandBusy_[static_cast<std::size_t>(lane)][bank]);
    if (start > demand_ready)
        stall_ += start - demand_ready;
    const Time complete = start + perRowTime() + cfg_.accessLatency;
    bankFree(lane, bank) = complete;
    demandBusy_[static_cast<std::size_t>(lane)][bank] = complete;

    accessEnergy_ += cfg_.accessEnergy * cfg_.laneRowBytes;
    return {start, complete};
}

void
KvEdramArray::evictRow(std::size_t row)
{
    KELLE_ASSERT(row < rows_.size(), "row out of range");
    rows_[row].valid = false;
    rows_[row].score = 0;
}

void
KvEdramArray::setScore(std::size_t row, std::uint8_t score4)
{
    KELLE_ASSERT(row < rows_.size(), "row out of range");
    KELLE_ASSERT(score4 < 16, "scores are 4-bit (Figure 10)");
    rows_[row].score = score4;
}

std::uint8_t
KvEdramArray::score(std::size_t row) const
{
    return rows_.at(row).score;
}

void
KvEdramArray::setHstThreshold(std::uint8_t threshold)
{
    hstThreshold_ = threshold;
}

void
KvEdramArray::runRefreshPass(const GroupTimer &timer, Time due)
{
    // Count the rows of this group: the controller walks the register
    // file and refreshes the rows whose score class matches.
    std::size_t count = 0;
    for (const auto &row : rows_) {
        if (!row.valid)
            continue;
        const bool hst = row.score >= hstThreshold_;
        if (hst == timer.hstGroup)
            ++count;
    }
    if (count == 0)
        return;

    // Each refreshed row touches the two lanes of the controller
    // (Key + Value at one significance), read-modify-write.
    const double bytes = static_cast<double>(count) *
                         cfg_.laneRowBytes.b() * 2.0;
    refreshEnergy_ += cfg_.refreshEnergy * Bytes(bytes);
    stats_.refreshRows += count;

    // Refresh occupies the controller's banks. Work that fits in the
    // idle window before the next demand access is hidden; the rest
    // stalls subsequent accesses (Section 5.1 hides refresh behind
    // compute phases, so in steady state stall should be ~0).
    // Refresh never preempts demand: it executes at its due time or
    // queues behind whatever occupies the bank. Whether that work ends
    // up stalling anything is decided at the *next demand access*
    // (see the stall attribution in readRow/writeRow).
    const Time busy =
        Time::seconds(bytes / cfg_.totalBandwidth.value * 2.0);
    const std::size_t lane_lo = timer.msbController ? 0u : 1u;
    for (std::size_t lane = lane_lo; lane < kNumLanes; lane += 2) {
        for (std::size_t b = 0; b < cfg_.banksPerLane; ++b) {
            Time &free_at = bankFree_[lane][b];
            free_at = std::max(free_at, due) + busy;
            hiddenRefresh_ += busy;
        }
    }
}

void
KvEdramArray::advanceTo(Time now)
{
    if (now < lastAdvance_)
        return;
    // Execute refresh passes in due order up to `now`.
    while (true) {
        GroupTimer *next = nullptr;
        for (auto &t : timers_) {
            if (t.nextDue <= now && (!next || t.nextDue < next->nextDue))
                next = &t;
        }
        if (!next)
            break;
        runRefreshPass(*next, next->nextDue);
        next->nextDue += next->interval;
    }
    lastAdvance_ = now;
}

Energy
KvEdramArray::totalEnergy(Time now) const
{
    return accessEnergy_ + refreshEnergy_ + cfg_.leakage() * now;
}

std::size_t
KvEdramArray::validRows() const
{
    std::size_t n = 0;
    for (const auto &row : rows_)
        n += row.valid;
    return n;
}

} // namespace edram
} // namespace kelle
