#include "obs/attribution.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace kelle {
namespace obs {

using sim::SimTime;

const char *
toString(LatencyComponent c)
{
    switch (c) {
    case LatencyComponent::QueueWait:
        return "queue_wait";
    case LatencyComponent::KvStall:
        return "kv_stall";
    case LatencyComponent::PrefillCompute:
        return "prefill_compute";
    case LatencyComponent::ChunkInterleave:
        return "chunk_interleave";
    case LatencyComponent::DecodeCompute:
        return "decode_compute";
    case LatencyComponent::BatchInterference:
        return "batch_interference";
    case LatencyComponent::PreemptLoss:
        return "preempt_loss";
    case LatencyComponent::DecodeStall:
        return "decode_stall";
    }
    return "?";
}

const char *
toString(MissCause c)
{
    switch (c) {
    case MissCause::None:
        return "none";
    case MissCause::Queue:
        return "queue";
    case MissCause::KvPressure:
        return "kv_pressure";
    case MissCause::Interference:
        return "interference";
    case MissCause::Preempt:
        return "preempt";
    case MissCause::Compute:
        return "compute";
    case MissCause::OverloadReject:
        return "overload_reject";
    case MissCause::DeviceFault:
        return "device_fault";
    }
    return "?";
}

MissCause
classifyMiss(bool rejected, bool missed_ttft, bool missed_tpot,
             const std::int64_t c[kLatencyComponentCount], bool faulted)
{
    if (rejected)
        return faulted ? MissCause::DeviceFault
                       : MissCause::OverloadReject;
    if (!missed_ttft && !missed_tpot)
        return MissCause::None;
    // A fault inflated whichever component the vote below would have
    // blamed; the disruption owns the miss.
    if (faulted)
        return MissCause::DeviceFault;

    // Buckets in tie-break order. Only the components of the missed
    // deadline(s) vote: a TPOT-only miss must not be blamed on queue
    // wait that happened before the (met) first token.
    const MissCause order[] = {MissCause::Queue, MissCause::KvPressure,
                               MissCause::Interference,
                               MissCause::Preempt, MissCause::Compute};
    std::int64_t bucket[5] = {};
    if (missed_ttft) {
        bucket[0] += c[0]; // queue_wait
        bucket[1] += c[1]; // kv_stall
        bucket[2] += c[3]; // chunk_interleave
        bucket[4] += c[2]; // prefill_compute
    }
    if (missed_tpot) {
        bucket[2] += c[5] + c[7]; // batch_interference + decode_stall
        bucket[3] += c[6];        // preempt_loss
        bucket[4] += c[4];        // decode_compute
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < 5; ++i)
        if (bucket[i] > bucket[best])
            best = i;
    return order[best];
}

void
LatencyWaterfall::beginRun(std::size_t n_requests)
{
    entries_.assign(n_requests, WaterfallEntry{});
}

WaterfallEntry &
LatencyWaterfall::at(std::size_t idx)
{
    // Owners pre-size via beginRun; growth here only covers bare
    // DeviceEngine use and always happens on the coordinator (enqueue
    // runs with workers joined), mirroring the shared request table.
    if (idx >= entries_.size())
        entries_.resize(idx + 1);
    return entries_[idx];
}

void
LatencyWaterfall::onArrival(std::size_t idx, std::uint64_t req_id,
                            SimTime t, double ttft_deadline_sec,
                            double tpot_target_sec, std::size_t dec_len)
{
    WaterfallEntry &e = at(idx);
    e.reqId = req_id;
    e.arrival = t;
    e.ttftDeadlineSec = ttft_deadline_sec;
    e.tpotTargetSec = tpot_target_sec;
    e.decLen = dec_len;
}

namespace {

constexpr std::size_t kDecodeCompute =
    static_cast<std::size_t>(LatencyComponent::DecodeCompute);
constexpr std::size_t kBatchInterference =
    static_cast<std::size_t>(LatencyComponent::BatchInterference);

/** `total` less the first `n` components (the fold remainder). */
std::int64_t
foldRemainder(std::int64_t total, const std::int64_t *c, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        total = sim::subTicks(total, c[i]);
    return total;
}

/** Terminal event: compute the components, classify, seal. */
void
finalize(WaterfallEntry &e, SimTime t, std::uint32_t device,
         bool rejected)
{
    e.finished = t;
    e.device = device;
    e.rejected = rejected;
    std::int64_t *c = e.components;
    const auto ix = [](LatencyComponent comp) {
        return static_cast<std::size_t>(comp);
    };
    if (e.rejected) {
        // A reject never produced a token: its whole life was queue
        // wait. (A preempted victim re-dispatched to a pool that can
        // never fit its floor is rejected too; its pre-preempt
        // service is discarded from the waterfall exactly as its
        // emitted tokens were.)
        std::fill(c, c + kLatencyComponentCount, 0);
        c[ix(LatencyComponent::QueueWait)] = (e.finished - e.arrival).ns();
        e.ttftNs = c[ix(LatencyComponent::QueueWait)];
        e.e2eNs = c[ix(LatencyComponent::QueueWait)];
    } else {
        e.ttftNs = (e.firstToken - e.arrival).ns();
        e.e2eNs = (e.finished - e.arrival).ns();
        // First admission verdict: the first deferral if the
        // allocator ever said no, else the admission itself.
        const SimTime verdict = e.deferred ? e.firstDefer : e.admitted;
        c[ix(LatencyComponent::QueueWait)] = (verdict - e.arrival).ns();
        c[ix(LatencyComponent::KvStall)] =
            e.deferred ? (e.admitted - e.firstDefer).ns() : 0;
        // c3 (prefill) accumulated in onPrefillChunk; c4 is the TTFT
        // remainder.
        c[ix(LatencyComponent::ChunkInterleave)] =
            foldRemainder(e.ttftNs, c, 3);
        // c5/c6 accumulated at decode boundaries; c7 is the single
        // first loss -> last resume interval (later lives' queue,
        // prefill and lost decode live inside it); c8 is the E2E
        // remainder.
        c[ix(LatencyComponent::PreemptLoss)] =
            e.preempted ? (e.resumeAt - e.preemptAt).ns() : 0;
        c[ix(LatencyComponent::DecodeStall)] = foldRemainder(e.e2eNs, c, 7);
    }
    e.missedTtft = !e.rejected && e.ttftDeadlineSec > 0.0 &&
                   SimTime::nanos(e.ttftNs).sec() > e.ttftDeadlineSec;
    e.missedTpot = false;
    if (!e.rejected && e.tpotTargetSec > 0.0 && e.decLen > 0) {
        const double tpot = (e.finished - e.firstToken).sec() /
                            static_cast<double>(e.decLen);
        e.missedTpot = tpot > e.tpotTargetSec;
    }
    e.cause = classifyMiss(e.rejected, e.missedTtft, e.missedTpot, c,
                           e.faulted);
    e.terminal = true;
}

} // namespace

void
LatencyWaterfall::onDeferred(std::size_t idx, SimTime t)
{
    WaterfallEntry &e = at(idx);
    if (!e.deferred && e.admitted == SimTime()) {
        e.deferred = true;
        e.firstDefer = t;
    }
}

void
LatencyWaterfall::onAdmitted(std::size_t idx, SimTime t)
{
    WaterfallEntry &e = at(idx);
    if (e.admitted == SimTime())
        e.admitted = t;
}

void
LatencyWaterfall::onPrefillChunk(std::size_t idx, SimTime dur)
{
    WaterfallEntry &e = at(idx);
    std::int64_t &c3 = e.components[static_cast<std::size_t>(
        LatencyComponent::PrefillCompute)];
    if (e.firstToken == SimTime())
        c3 = sim::addTicks(c3, dur.ns());
}

void
LatencyWaterfall::onFirstToken(std::size_t idx, SimTime t)
{
    WaterfallEntry &e = at(idx);
    if (e.firstToken == SimTime()) {
        e.firstToken = t;
        return;
    }
    // A resume. Decode steps since the first loss ran in lives that
    // were lost again, inside the c7 interval this resume extends.
    e.resumeAt = t;
    e.components[kDecodeCompute] = e.decodeAtLoss[0];
    e.components[kBatchInterference] = e.decodeAtLoss[1];
}

void
LatencyWaterfall::onPreempt(std::size_t idx, SimTime t)
{
    WaterfallEntry &e = at(idx);
    // c7 runs from the first loss to the last resume, so only the
    // first loss stamps; it also snapshots c5/c6 for the resumes.
    if (e.preempted)
        return;
    e.preempted = true;
    e.preemptAt = t;
    e.decodeAtLoss[0] = e.components[kDecodeCompute];
    e.decodeAtLoss[1] = e.components[kBatchInterference];
}

void
LatencyWaterfall::onDecodeBoundary(std::size_t idx, SimTime step,
                                   std::size_t batch)
{
    onDecodeShares(idx, DecodeShares::of(step, batch));
}

void
LatencyWaterfall::onDecodeShares(std::size_t idx,
                                 const DecodeShares &shares)
{
    std::int64_t *c = at(idx).components;
    c[kDecodeCompute] = sim::addTicks(c[kDecodeCompute], shares.fair);
    c[kBatchInterference] =
        sim::addTicks(c[kBatchInterference], shares.interference);
}

void
LatencyWaterfall::onFaultEvict(std::size_t idx, SimTime t)
{
    WaterfallEntry &e = at(idx);
    e.faulted = true;
    // A victim that had served its first token regenerates through
    // the preempt machinery and shares its c7 interval. Pre-first-
    // token victims restart their whole TTFT window: their lost time
    // folds into c1/c4, no preempt interval to open.
    if (e.firstToken != SimTime())
        onPreempt(idx, t);
}

void
LatencyWaterfall::onCompleted(std::size_t idx, SimTime t,
                              std::uint32_t device)
{
    finalize(at(idx), t, device, /*rejected=*/false);
}

void
LatencyWaterfall::onRejected(std::size_t idx, SimTime t,
                             std::uint32_t device)
{
    finalize(at(idx), t, device, /*rejected=*/true);
}

void
LatencyWaterfall::onFaultFailed(std::size_t idx, SimTime t,
                                std::uint32_t device)
{
    WaterfallEntry &e = at(idx);
    e.faulted = true;
    finalize(e, t, device, /*rejected=*/true);
}

AttributionReport
LatencyWaterfall::report(std::size_t n_devices) const
{
    AttributionReport rep;
    std::size_t slots = n_devices;
    for (const WaterfallEntry &e : entries_)
        if (e.terminal && e.device + 1u > slots)
            slots = e.device + 1u;
    rep.devices.resize(slots);
    std::vector<std::array<std::int64_t, kLatencyComponentCount>> ticks(
        slots);
    for (const WaterfallEntry &e : entries_) {
        if (!e.terminal)
            continue;
        AttributionReport::Device &dev = rep.devices[e.device];
        ++rep.terminal;
        ++dev.terminal;
        if (e.rejected) {
            ++rep.rejected;
            ++dev.rejected;
        } else {
            ++rep.completed;
        }
        for (std::size_t i = 0; i < kLatencyComponentCount; ++i)
            ticks[e.device][i] =
                sim::addTicks(ticks[e.device][i], e.components[i]);
        ++rep.missCounts[static_cast<std::size_t>(e.cause)];
        ++dev.missCounts[static_cast<std::size_t>(e.cause)];
        if (e.cause != MissCause::None) {
            ++rep.misses;
            ++dev.misses;
        }
    }
    // Summed in ticks, converted once: the totals are exact.
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        std::int64_t all = 0;
        for (std::size_t d = 0; d < slots; ++d) {
            rep.devices[d].componentTotals[i] =
                SimTime::nanos(ticks[d][i]).sec();
            all = sim::addTicks(all, ticks[d][i]);
        }
        rep.componentTotals[i] = SimTime::nanos(all).sec();
    }
    return rep;
}

void
exportAttributionMetrics(const LatencyWaterfall &wf,
                         MetricsRegistry &reg)
{
    const AttributionReport rep =
        wf.report(/*n_devices=*/0);
    char name[96];
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        const char *comp = toString(static_cast<LatencyComponent>(i));
        std::snprintf(name, sizeof name, "attribution.%s_total_sec",
                      comp);
        reg.setGauge(name, rep.componentTotals[i]);
    }
    for (std::size_t i = 0; i < kMissCauseCount; ++i) {
        // The fault cause appears only on fault runs, keeping the
        // pre-fault metrics surface (and its digests) unchanged.
        if (static_cast<MissCause>(i) == MissCause::DeviceFault &&
            rep.missCounts[i] == 0)
            continue;
        std::snprintf(name, sizeof name, "attribution.miss.%s",
                      toString(static_cast<MissCause>(i)));
        reg.setGauge(name, static_cast<double>(rep.missCounts[i]));
    }
    reg.setGauge("attribution.misses",
                 static_cast<double>(rep.misses));
    reg.setGauge("attribution.terminal",
                 static_cast<double>(rep.terminal));

    // Terminal entries in (finish time, request id) order: the
    // cumulative per-component series and histogram fills are
    // insertion-order independent.
    std::vector<std::size_t> order;
    order.reserve(wf.entries().size());
    for (std::size_t i = 0; i < wf.entries().size(); ++i)
        if (wf.entries()[i].terminal)
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const WaterfallEntry &ea = wf.entries()[a];
                  const WaterfallEntry &eb = wf.entries()[b];
                  if (ea.finished != eb.finished)
                      return ea.finished < eb.finished;
                  return ea.reqId < eb.reqId;
              });

    std::int64_t cum[kLatencyComponentCount] = {};
    for (std::size_t idx : order) {
        const WaterfallEntry &e = wf.entries()[idx];
        for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
            const char *comp =
                toString(static_cast<LatencyComponent>(i));
            std::snprintf(name, sizeof name, "attribution.%s_sec",
                          comp);
            reg.histogram(name, 0.0, 120.0, 24)
                .observe(SimTime::nanos(e.components[i]).sec());
            cum[i] = sim::addTicks(cum[i], e.components[i]);
            std::snprintf(name, sizeof name,
                          "attribution.%s_cum_sec", comp);
            reg.series(name).push(e.finished.sec(),
                                  SimTime::nanos(cum[i]).sec());
        }
    }
}

} // namespace obs
} // namespace kelle
