/**
 * @file
 * Deterministic request-lifecycle tracing.
 *
 * `TraceRecorder` collects structured events from the serving engines
 * (layers 5-6) and exports them as Chrome trace-event JSON that
 * Perfetto (https://ui.perfetto.dev) and `chrome://tracing` load
 * directly: one process per device with duration slices for every
 * prefill chunk and decode step plus counter tracks (KV pool bytes,
 * queue depth, decode batch size, cumulative eDRAM refresh energy),
 * and a `requests` process with one async span per request (arrival
 * to completion/rejection) plus dispatch instants.
 *
 * Determinism contract (enforced by test_obs and a golden digest):
 * every event is stamped with *sim time*, each engine writes only its
 * own `TraceTrack`, and the export concatenates tracks in a fixed
 * order (requests, then device 0..N-1). Cross-device interleaving
 * never enters the byte stream, so the exported JSON is byte-identical
 * for any `ClusterConfig::threads` value and for fastSim on/off — the
 * fast-forward path replays per-boundary events exactly as the
 * step-at-a-time path emits them. Within one track, timestamps are
 * monotone non-decreasing.
 *
 * Cost contract: engines hold a `TraceTrack *` that is null when
 * tracing is off, so the disabled hooks are a pointer test — no
 * allocation, no output perturbation (golden digests and the
 * allocation-free steady-state assert are unchanged). With tracing on,
 * recording is an amortized vector push per event.
 *
 * Thread safety: a track has exactly one writer (its device engine, or
 * the cluster coordinator for the requests track). The parallel
 * cluster engine's lookahead windows hand each device to at most one
 * worker and join before the coordinator touches anything, so no
 * additional synchronization is needed (TSan-checked in CI). Use one
 * recorder per run; export only after the run drains.
 */

#ifndef KELLE_OBS_TRACE_HPP
#define KELLE_OBS_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim_time.hpp"

namespace kelle {
namespace obs {

/** Event taxonomy (see docs/ARCHITECTURE.md "Observability"). */
enum class TraceEventKind : std::uint8_t
{
    Arrival,     ///< request entered a device queue (span begin)
    Requeue,     ///< preemption victim re-entered a device queue
    Dispatch,    ///< cluster routed a request to a device
    Admit,       ///< KV grant issued (v0 granted, v1 requested tokens)
    Defer,       ///< admission blocked by the allocator (v0 requested,
                 ///< v1 floor) — the eviction-pressure signal
    Reject,      ///< floor exceeds the whole pool (span end; v0 floor)
    Preempt,     ///< deadline-doomed decode reclaimed
    FirstToken,  ///< prefill finished, decoding begins
    PrefillStep, ///< one prefill chunk (slice; v0 tokens, v1 refresh J)
    DecodeStep,  ///< one batched decode step (slice; v0 batch size,
                 ///< v1 refresh J)
    Complete,    ///< request finished (span end; v0 emitted tokens)
    KvInUse,     ///< KV pool occupancy counter sample (v0 bytes)
    QueueDepth,  ///< waiting-queue depth counter sample (v0 depth)
    /** @name Paged KV pool counters (paged mode only). @{ */
    KvPagesFree,   ///< free-list pages counter sample (v0 pages)
    KvPagesShared, ///< prefix-indexed pages counter sample (v0 pages)
    KvPrefixHits,  ///< cumulative prefix-hit tokens (v0 tokens)
    /** @} */
    Slo, ///< request SLO targets (v0 TTFT deadline s, v1 TPOT target
         ///< s) — emitted at arrival when attribution is on, so
         ///< offline tools can re-derive miss classification
    /** @name Fault lifecycle (src/faults; fault runs only). @{ */
    DeviceFault,   ///< device disruption began (v0 kind code: 0 crash,
                   ///< 1 slowdown, 2 pool shrink; v1 magnitude)
    DeviceRecover, ///< disruption over (v0 kind code)
    FaultEvict,    ///< request evicted by a crash / pressure shed
                   ///< (v0 KV tokens lost — the regeneration cost)
    FaultFail,     ///< fault-retry budget exhausted (span end)
    /** @} */
};

/** One recorded event; payload meaning depends on `kind`. */
struct TraceEvent
{
    sim::SimTime ts;
    sim::SimTime dur; ///< slice duration (PrefillStep/DecodeStep)
    double v0 = 0.0;
    double v1 = 0.0;
    std::uint64_t req = 0; ///< request id (0 when not request-bound)
    std::uint32_t name = 0; ///< interned task name (Arrival only)
    TraceEventKind kind = TraceEventKind::Arrival;
};

/**
 * One engine's private event buffer. All emission methods append in
 * sim-time order; the recorder turns the buffer into JSON at export.
 */
class TraceTrack
{
  public:
    /** @name Emission hooks (single writer: the owning engine). @{ */
    void
    requestArrived(sim::SimTime t, std::uint64_t req, const std::string &task)
    {
        push(t, TraceEventKind::Arrival, req, 0.0, 0.0, intern(task));
    }
    void
    requestRequeued(sim::SimTime t, std::uint64_t req)
    {
        push(t, TraceEventKind::Requeue, req);
    }
    void
    dispatched(sim::SimTime t, std::uint64_t req, std::size_t device)
    {
        push(t, TraceEventKind::Dispatch, req,
             static_cast<double>(device));
    }
    void
    admitted(sim::SimTime t, std::uint64_t req, std::size_t granted,
             std::size_t requested)
    {
        push(t, TraceEventKind::Admit, req,
             static_cast<double>(granted),
             static_cast<double>(requested));
    }
    void
    deferred(sim::SimTime t, std::uint64_t req, std::size_t requested,
             std::size_t floor)
    {
        push(t, TraceEventKind::Defer, req,
             static_cast<double>(requested),
             static_cast<double>(floor));
    }
    void
    rejected(sim::SimTime t, std::uint64_t req, std::size_t floor)
    {
        push(t, TraceEventKind::Reject, req,
             static_cast<double>(floor));
    }
    void
    preempted(sim::SimTime t, std::uint64_t req)
    {
        push(t, TraceEventKind::Preempt, req);
    }
    void
    firstToken(sim::SimTime t, std::uint64_t req)
    {
        push(t, TraceEventKind::FirstToken, req);
    }
    void
    prefillStep(sim::SimTime t, sim::SimTime dur, std::uint64_t req,
                std::size_t tokens, double refresh_j)
    {
        push(t, TraceEventKind::PrefillStep, req,
             static_cast<double>(tokens), refresh_j, 0, dur);
    }
    void
    decodeStep(sim::SimTime t, sim::SimTime dur, std::size_t batch,
               double refresh_j)
    {
        push(t, TraceEventKind::DecodeStep, 0,
             static_cast<double>(batch), refresh_j, 0, dur);
    }
    void
    completed(sim::SimTime t, std::uint64_t req, std::size_t tokens)
    {
        push(t, TraceEventKind::Complete, req,
             static_cast<double>(tokens));
    }
    void
    kvInUse(sim::SimTime t, double bytes)
    {
        push(t, TraceEventKind::KvInUse, 0, bytes);
    }
    void
    queueDepth(sim::SimTime t, std::size_t depth)
    {
        push(t, TraceEventKind::QueueDepth, 0,
             static_cast<double>(depth));
    }
    void
    kvPagesFree(sim::SimTime t, std::size_t pages)
    {
        push(t, TraceEventKind::KvPagesFree, 0,
             static_cast<double>(pages));
    }
    void
    kvPagesShared(sim::SimTime t, std::size_t pages)
    {
        push(t, TraceEventKind::KvPagesShared, 0,
             static_cast<double>(pages));
    }
    void
    kvPrefixHitTokens(sim::SimTime t, std::uint64_t tokens)
    {
        push(t, TraceEventKind::KvPrefixHits, 0,
             static_cast<double>(tokens));
    }
    void
    sloTarget(sim::SimTime t, std::uint64_t req, double ttft_deadline_sec,
              double tpot_target_sec)
    {
        push(t, TraceEventKind::Slo, req, ttft_deadline_sec,
             tpot_target_sec);
    }
    void
    deviceFault(sim::SimTime t, int kind_code, double magnitude)
    {
        push(t, TraceEventKind::DeviceFault, 0,
             static_cast<double>(kind_code), magnitude);
    }
    void
    deviceRecover(sim::SimTime t, int kind_code)
    {
        push(t, TraceEventKind::DeviceRecover, 0,
             static_cast<double>(kind_code));
    }
    void
    faultEvicted(sim::SimTime t, std::uint64_t req,
                 std::uint64_t lost_tokens)
    {
        push(t, TraceEventKind::FaultEvict, req,
             static_cast<double>(lost_tokens));
    }
    void
    faultFailed(sim::SimTime t, std::uint64_t req)
    {
        push(t, TraceEventKind::FaultFail, req);
    }
    /** @} */

    /** @name Structured read access (tests, metrics ingestion). @{ */
    const std::string &name() const { return name_; }
    const std::vector<TraceEvent> &events() const { return events_; }
    const std::string &taskName(std::uint32_t id) const
    {
        return taskNames_[id];
    }
    /** @} */

  private:
    friend class TraceRecorder;
    explicit TraceTrack(std::string name) : name_(std::move(name)) {}

    std::uint32_t intern(const std::string &task);
    void
    push(sim::SimTime t, TraceEventKind kind, std::uint64_t req,
         double v0 = 0.0, double v1 = 0.0, std::uint32_t name = 0,
         sim::SimTime dur = sim::SimTime())
    {
        TraceEvent e;
        e.ts = t;
        e.dur = dur;
        e.v0 = v0;
        e.v1 = v1;
        e.req = req;
        e.name = name;
        e.kind = kind;
        events_.push_back(e);
    }

    std::string name_;
    std::vector<TraceEvent> events_;
    std::vector<std::string> taskNames_; ///< interned Arrival names
};

class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * The cluster coordinator's track (dispatch instants); exported
     * first, as the `requests` process that also carries every
     * request's async span.
     */
    TraceTrack *requestsTrack();
    /** Register device track i (exported in registration order). */
    TraceTrack *addDeviceTrack(const std::string &name);

    const std::vector<std::unique_ptr<TraceTrack>> &
    deviceTracks() const
    {
        return deviceTracks_;
    }

    /** Serialize to Chrome trace-event JSON (one event per line). */
    std::string toJson() const;
    /** toJson() to `path`; false, after one warning line naming the
     *  path, on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    std::unique_ptr<TraceTrack> requests_;
    std::vector<std::unique_ptr<TraceTrack>> deviceTracks_;
};

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_TRACE_HPP
