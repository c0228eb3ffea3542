#include "faults/fault_injector.hpp"

#include <cmath>

#include "common/log.hpp"

namespace kelle {
namespace faults {

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Slowdown:
        return "slowdown";
      case FaultKind::PoolShrink:
        return "pool_shrink";
      case FaultKind::Recover:
        return "recover";
    }
    return "?";
}

namespace {

/** SplitMix64 finalizer: decorrelates the per-device seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

FaultInjector::FaultInjector(const FaultConfig &cfg,
                             std::size_t n_devices)
    : cfg_(cfg)
{
    KELLE_ASSERT(n_devices > 0, "fault injector over an empty fleet");
    KELLE_ASSERT(cfg_.mtbfSec > 0.0 && cfg_.mttrSec > 0.0 &&
                     cfg_.recoverWarmupSec >= 0.0,
                 "MTBF/MTTR must be positive, the warm-up not negative");
    KELLE_ASSERT(cfg_.crashWeight + cfg_.slowdownWeight +
                         cfg_.shrinkWeight >
                     0.0,
                 "at least one fault kind needs positive weight");
    streams_.resize(n_devices);
    for (std::size_t d = 0; d < n_devices; ++d) {
        DeviceStream &s = streams_[d];
        // A device's whole fault history depends only on (seed, d).
        s.rng = Rng(cfg_.seed ^ mix(static_cast<std::uint64_t>(d) + 1));
        s.next.device = d;
        // As if a slowdown ended at t = 0: advance() times the first
        // up phase.
        s.next.kind = FaultKind::Recover;
        s.next.cause = FaultKind::Slowdown;
        advance(s);
    }
}

double
FaultInjector::expDraw(DeviceStream &s, double mean)
{
    // Inverse-CDF; uniform() < 1 so the log argument is positive.
    return -mean * std::log(1.0 - s.rng.uniform());
}

FaultKind
FaultInjector::drawKind(DeviceStream &s)
{
    const double total =
        cfg_.crashWeight + cfg_.slowdownWeight + cfg_.shrinkWeight;
    const double u = s.rng.uniform() * total;
    if (u < cfg_.crashWeight)
        return FaultKind::Crash;
    if (u < cfg_.crashWeight + cfg_.slowdownWeight)
        return FaultKind::Slowdown;
    return FaultKind::PoolShrink;
}

void
FaultInjector::advance(DeviceStream &s)
{
    FaultEvent &e = s.next;
    switch (e.kind) {
      case FaultKind::Crash:
      case FaultKind::Slowdown:
      case FaultKind::PoolShrink:
        // Disruption starts (its cause is its kind); time the repair.
        s.atSec += expDraw(s, cfg_.mttrSec);
        e.kind = FaultKind::Recover;
        break;
      case FaultKind::Recover:
        // Up phase starts; time the next disruption. A crash repair's
        // warm-up delays it and emits no event of its own.
        if (e.cause == FaultKind::Crash)
            s.atSec += cfg_.recoverWarmupSec;
        s.atSec += expDraw(s, cfg_.mtbfSec);
        e.kind = drawKind(s);
        e.cause = e.kind;
        break;
    }
    e.at = sim::SimTime::fromSec(s.atSec);
}

std::size_t
FaultInjector::earliest() const
{
    std::size_t best = 0;
    for (std::size_t d = 1; d < streams_.size(); ++d) {
        if (streams_[d].next.at < streams_[best].next.at)
            best = d;
    }
    return best;
}

sim::SimTime
FaultInjector::nextEventTime() const
{
    return streams_[earliest()].next.at;
}

FaultEvent
FaultInjector::pop()
{
    DeviceStream &s = streams_[earliest()];
    const FaultEvent e = s.next;
    advance(s);
    KELLE_ASSERT(!(s.next.at < e.at),
                 "fault stream went backwards in time");
    return e;
}

} // namespace faults
} // namespace kelle
