/**
 * @file
 * `PhaseProfiler`: wall-clock self-profiling of the simulation core,
 * answering "where does sim wall time go" — lookahead windows vs
 * serialized fallback rounds vs inline decode fast-forward vs trace
 * generation and roll-up. Reported by `bench_simspeed` (phase table
 * plus a `phases` section in its JSON).
 *
 * Accumulators are relaxed atomics, so worker lanes of the cluster
 * drive loop add concurrently without synchronizing (TSan-clean).
 * Wall-clock readings are inherently nondeterministic; the profiler
 * never feeds back into simulation state, so sim outputs stay
 * bit-identical with or without it. Engines hold a null pointer when
 * profiling is off — the disabled hook is one branch, no clock read.
 */

#ifndef KELLE_OBS_PROFILE_HPP
#define KELLE_OBS_PROFILE_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace kelle {
namespace obs {

class PhaseProfiler
{
  public:
    enum class Phase : std::size_t
    {
        TraceGen,    ///< arrival-trace generation
        SerialDrive, ///< retired serial engine: never timed, reads 0
        Window,      ///< drive loop: lock-free lookahead windows
        SerialRound, ///< drive loop: serialized rounds
        FastForward, ///< inline decode-boundary replay
        RollUp,      ///< report summarization
        kCount,
    };
    static constexpr std::size_t kPhases =
        static_cast<std::size_t>(Phase::kCount);
    static const char *phaseName(Phase p);

    /** Add one measured stretch: `sec` wall seconds, `n` occurrences
     *  (windows run, boundaries replayed, ...). Thread-safe. */
    void
    add(Phase p, double sec, std::uint64_t n = 1)
    {
        Entry &e = entries_[static_cast<std::size_t>(p)];
        e.nanos.fetch_add(static_cast<std::uint64_t>(sec * 1e9),
                          std::memory_order_relaxed);
        e.count.fetch_add(n, std::memory_order_relaxed);
    }

    double
    seconds(Phase p) const
    {
        return static_cast<double>(
                   entries_[static_cast<std::size_t>(p)].nanos.load(
                       std::memory_order_relaxed)) /
               1e9;
    }
    std::uint64_t
    count(Phase p) const
    {
        return entries_[static_cast<std::size_t>(p)].count.load(
            std::memory_order_relaxed);
    }
    /** Sum over every phase (phases may nest; see phase docs). */
    double totalSeconds() const;

    /** RAII stretch timer; a null profiler skips the clock reads. */
    class Timer
    {
      public:
        Timer(PhaseProfiler *p, Phase phase) : p_(p), phase_(phase)
        {
            if (p_ != nullptr)
                t0_ = std::chrono::steady_clock::now();
        }
        ~Timer()
        {
            if (p_ != nullptr)
                p_->add(phase_,
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0_)
                            .count());
        }
        Timer(const Timer &) = delete;
        Timer &operator=(const Timer &) = delete;

      private:
        PhaseProfiler *p_;
        Phase phase_;
        std::chrono::steady_clock::time_point t0_;
    };

  private:
    struct Entry
    {
        std::atomic<std::uint64_t> nanos{0};
        std::atomic<std::uint64_t> count{0};
    };
    std::array<Entry, kPhases> entries_;
};

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_PROFILE_HPP
