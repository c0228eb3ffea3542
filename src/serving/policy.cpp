#include "serving/policy.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace kelle {
namespace serving {

namespace {

/**
 * SjfWithinDeadline promotes a request out of the SJF order once its
 * remaining TTFT slack falls below this fraction of its whole SLO
 * budget; promoted requests are served earliest-deadline-first.
 */
constexpr double kUrgentSlackFraction = 0.5;

/** Absolute TTFT deadline in seconds; +inf when the request has none
 *  (sorts after every dead-lined request). */
double
deadlineSec(const Request &r)
{
    if (r.ttftDeadlineSec <= 0.0)
        return std::numeric_limits<double>::infinity();
    return r.ttftDeadline().sec();
}

/** SjfWithinDeadline's promotion test at `now`: the remaining TTFT
 *  slack has fallen below kUrgentSlackFraction of the whole budget.
 *  Once true it stays true as `now` advances. */
bool
urgentAt(const Request &r, sim::SimTime now)
{
    if (r.ttftDeadlineSec <= 0.0)
        return false;
    const double slack = deadlineSec(r) - now.sec();
    return slack < kUrgentSlackFraction * r.ttftDeadlineSec;
}

/** Prefill-priority step: the given admitted request's next chunk if
 *  any, else one decode iteration over the whole batch. */
void
prefillPriorityStep(const EngineView &v, std::size_t admitted_pick,
                    EngineStepPlan &plan)
{
    if (!v.admitted.empty()) {
        const Request &r = v.requests[admitted_pick];
        plan.kind = EngineStepKind::PrefillChunk;
        plan.requestIdx = admitted_pick;
        plan.chunkTokens = Policy::nextChunkLen(v, r);
        return;
    }
    if (!v.running.empty()) {
        plan.kind = EngineStepKind::DecodeStep;
        plan.decodeBatch.assign(v.running.begin(), v.running.end());
    }
}

class FcfsPolicy final : public Policy
{
  public:
    SchedulePolicy kind() const override { return SchedulePolicy::Fcfs; }
    std::size_t
    admissionCap(std::size_t) const override
    {
        return 1; // run-to-completion: one request owns the machine
    }
    void
    nextStep(const EngineView &v, EngineStepPlan &plan) const override
    {
        prefillPriorityStep(
            v, v.admitted.empty() ? 0 : v.admitted.front(), plan);
    }
};

class ContinuousBatchingPolicy final : public Policy
{
  public:
    SchedulePolicy
    kind() const override
    {
        return SchedulePolicy::ContinuousBatching;
    }
    void
    nextStep(const EngineView &v, EngineStepPlan &plan) const override
    {
        prefillPriorityStep(
            v, v.admitted.empty() ? 0 : v.admitted.front(), plan);
    }
};

class SjfWithinDeadlinePolicy final : public Policy
{
  public:
    SchedulePolicy
    kind() const override
    {
        return SchedulePolicy::SjfWithinDeadline;
    }
    bool skipBlocked() const override { return true; }
    bool fifoAdmission() const override { return false; }

    void
    admissionOrder(const EngineView &v,
                   std::vector<std::size_t> &order) const override
    {
        order.assign(v.waiting.begin(), v.waiting.end());
        auto jobSize = [](const Request &r) {
            return r.task.ctxLen + r.task.decLen;
        };
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const Request &ra = v.requests[a];
                      const Request &rb = v.requests[b];
                      const bool ua = urgentAt(ra, v.now);
                      const bool ub = urgentAt(rb, v.now);
                      if (ua != ub)
                          return ua; // deadline-pressed first
                      if (ua) {      // both urgent: EDF
                          if (deadlineSec(ra) != deadlineSec(rb))
                              return deadlineSec(ra) < deadlineSec(rb);
                          return ra.id < rb.id;
                      }
                      if (jobSize(ra) != jobSize(rb)) // both calm: SJF
                          return jobSize(ra) < jobSize(rb);
                      return ra.id < rb.id;
                  });
    }

    /** Both the urgent (EDF) and the calm (SJF) orders are fixed, so
     *  the order changes only when a calm waiter turns urgent. */
    sim::SimTime
    nextOrderChange(const EngineView &v) const override
    {
        sim::SimTime next = sim::SimTime::never();
        for (std::size_t idx : v.waiting) {
            const Request &r = v.requests[idx];
            if (r.ttftDeadlineSec <= 0.0 || urgentAt(r, v.now))
                continue;
            // The flip lies near deadline - fraction x budget; walk
            // the estimate down to a calm tick (the walk stops by
            // `now`, which is calm), so the window ends early, never
            // late.
            sim::SimTime flip =
                r.ttftDeadline() -
                sim::SimTime::fromSec(kUrgentSlackFraction *
                                      r.ttftDeadlineSec);
            while (urgentAt(r, flip))
                flip = flip - sim::SimTime::nanos(1);
            next = std::min(next, flip);
        }
        return next;
    }

    void
    nextStep(const EngineView &v, EngineStepPlan &plan) const override
    {
        // Admission order already encodes the priority; steps stay
        // prefill-priority FIFO over the admitted set.
        prefillPriorityStep(
            v, v.admitted.empty() ? 0 : v.admitted.front(), plan);
    }
};

class EdfChunkedPolicy final : public Policy
{
  public:
    SchedulePolicy
    kind() const override
    {
        return SchedulePolicy::EdfChunked;
    }
    bool skipBlocked() const override { return true; }
    bool fifoAdmission() const override { return false; }

    void
    admissionOrder(const EngineView &v,
                   std::vector<std::size_t> &order) const override
    {
        order.assign(v.waiting.begin(), v.waiting.end());
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double da = deadlineSec(v.requests[a]);
                      const double db = deadlineSec(v.requests[b]);
                      if (da != db)
                          return da < db;
                      return v.requests[a].id < v.requests[b].id;
                  });
    }

    void
    nextStep(const EngineView &v, EngineStepPlan &plan) const override
    {
        // Sarathi-style alternation: after a prefill chunk, give the
        // decode batch one iteration before the next chunk, so chunked
        // long prompts neither stall decode nor get starved by it.
        // Chunk the admitted request with the earliest deadline:
        // chunk-level preemption of long prefills by urgent work.
        std::size_t pick = 0;
        if (!v.admitted.empty()) {
            pick = v.admitted.front();
            for (std::size_t idx : v.admitted) {
                const double d = deadlineSec(v.requests[idx]);
                const double best = deadlineSec(v.requests[pick]);
                if (d < best ||
                    (d == best &&
                     v.requests[idx].id < v.requests[pick].id))
                    pick = idx;
            }
        }
        // Slack-aware alternation: a prefill whose TTFT slack has run
        // short keeps the machine for consecutive chunks instead of
        // yielding to decode, trading a bounded decode stall for the
        // knee-regime TTFT tax. Off (and bit-exact) at frac 0.
        bool pressed = false;
        if (v.chunkSlackFrac > 0.0 && !v.admitted.empty()) {
            const Request &r = v.requests[pick];
            if (r.ttftDeadlineSec > 0.0) {
                const double slack = deadlineSec(r) - v.now.sec();
                pressed = slack <
                          v.chunkSlackFrac * r.ttftDeadlineSec;
            }
        }
        if (!v.running.empty() && !v.admitted.empty() &&
            v.lastStep == EngineStepKind::PrefillChunk && !pressed) {
            plan.kind = EngineStepKind::DecodeStep;
            plan.decodeBatch.assign(v.running.begin(), v.running.end());
            return;
        }
        if (!v.admitted.empty()) {
            prefillPriorityStep(v, pick, plan);
            return;
        }
        if (!v.running.empty()) {
            plan.kind = EngineStepKind::DecodeStep;
            plan.decodeBatch.assign(v.running.begin(), v.running.end());
        }
    }
};

} // namespace

std::string
toString(EngineStepKind k)
{
    switch (k) {
      case EngineStepKind::Idle:
        return "idle";
      case EngineStepKind::PrefillChunk:
        return "prefill-chunk";
      case EngineStepKind::DecodeStep:
        return "decode-step";
    }
    return "?";
}

std::string
toString(SchedulePolicy p)
{
    switch (p) {
      case SchedulePolicy::Fcfs:
        return "fcfs";
      case SchedulePolicy::ContinuousBatching:
        return "contbatch";
      case SchedulePolicy::SjfWithinDeadline:
        return "sjf-deadline";
      case SchedulePolicy::EdfChunked:
        return "edf-chunked";
    }
    return "?";
}

bool
parseSchedulePolicy(const std::string &text, SchedulePolicy *out)
{
    if (text == "fcfs") {
        *out = SchedulePolicy::Fcfs;
        return true;
    }
    if (text == "contbatch" || text == "continuous" ||
        text == "continuous-batching") {
        *out = SchedulePolicy::ContinuousBatching;
        return true;
    }
    if (text == "sjf-deadline" || text == "sjf") {
        *out = SchedulePolicy::SjfWithinDeadline;
        return true;
    }
    if (text == "edf-chunked" || text == "edf") {
        *out = SchedulePolicy::EdfChunked;
        return true;
    }
    return false;
}

std::string
schedulePolicyNames()
{
    std::string names;
    for (SchedulePolicy p : allSchedulePolicies()) {
        if (!names.empty())
            names += "|";
        names += toString(p);
    }
    return names;
}

std::vector<SchedulePolicy>
allSchedulePolicies()
{
    return {SchedulePolicy::Fcfs, SchedulePolicy::ContinuousBatching,
            SchedulePolicy::SjfWithinDeadline,
            SchedulePolicy::EdfChunked};
}

void
Policy::admissionOrder(const EngineView &v,
                       std::vector<std::size_t> &order) const
{
    order.assign(v.waiting.begin(), v.waiting.end());
}

std::size_t
Policy::nextChunkLen(const EngineView &v, const Request &r)
{
    const std::size_t remaining = r.remainingPrompt();
    KELLE_ASSERT(remaining > 0, "prefill already complete");
    return v.chunkTokens ? std::min(v.chunkTokens, remaining)
                         : remaining;
}

std::unique_ptr<Policy>
makePolicy(SchedulePolicy kind)
{
    switch (kind) {
      case SchedulePolicy::Fcfs:
        return std::make_unique<FcfsPolicy>();
      case SchedulePolicy::ContinuousBatching:
        return std::make_unique<ContinuousBatchingPolicy>();
      case SchedulePolicy::SjfWithinDeadline:
        return std::make_unique<SjfWithinDeadlinePolicy>();
      case SchedulePolicy::EdfChunked:
        return std::make_unique<EdfChunkedPolicy>();
    }
    KELLE_ASSERT(false, "unknown SchedulePolicy");
    return nullptr;
}

} // namespace serving
} // namespace kelle
