#include "serving/serving_metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace kelle {
namespace serving {

void
ServingMetrics::onCompleted(const Request &r)
{
    KELLE_ASSERT(r.state == RequestState::Completed,
                 "recording an unfinished request");
    completed_.push_back(r);
}

void
ServingMetrics::onRejected(const Request &r)
{
    KELLE_ASSERT(r.state == RequestState::Rejected, "state mismatch");
    ++rejected_;
}

void
ServingMetrics::sampleQueueDepth(std::size_t depth)
{
    queueDepthSum_ += static_cast<double>(depth);
    ++queueDepthSamples_;
    maxQueueDepth_ = std::max(maxQueueDepth_, depth);
}

void
ServingMetrics::onBypass(std::size_t overtaken)
{
    bypasses_ += overtaken;
}

void
ServingMetrics::onPreempted()
{
    ++preemptions_;
}

void
ServingMetrics::merge(const ServingMetrics &other)
{
    completed_.insert(completed_.end(), other.completed_.begin(),
                      other.completed_.end());
    rejected_ += other.rejected_;
    bypasses_ += other.bypasses_;
    preemptions_ += other.preemptions_;
    energy_ += other.energy_;
    queueDepthSum_ += other.queueDepthSum_;
    queueDepthSamples_ += other.queueDepthSamples_;
    maxQueueDepth_ = std::max(maxQueueDepth_, other.maxQueueDepth_);
}

bool
ServingMetrics::metTtft(const Request &r)
{
    if (r.ttftDeadlineSec <= 0.0)
        return true;
    return (r.firstToken - r.arrival).sec() <= r.ttftDeadlineSec;
}

bool
ServingMetrics::metTpot(const Request &r)
{
    if (r.tpotTargetSec <= 0.0 || r.task.decLen == 0)
        return true;
    const double per_tok = (r.completed - r.firstToken).sec() /
                           static_cast<double>(r.task.decLen);
    return per_tok <= r.tpotTargetSec;
}

double
ServingMetrics::percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, p);
}

double
ServingMetrics::percentileSorted(const std::vector<double> &sorted,
                                 double p)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
    const std::size_t idx = rank < 1.0
                                ? 0
                                : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

ServingSummary
ServingMetrics::summarize(Time makespan) const
{
    ServingSummary s;
    s.completed = completed_.size();
    s.rejected = rejected_;
    s.makespan = makespan;
    s.energy = energy_;
    s.admissionBypasses = bypasses_;
    s.preemptions = preemptions_;
    if (queueDepthSamples_ > 0) {
        s.meanQueueDepth =
            queueDepthSum_ / static_cast<double>(queueDepthSamples_);
        s.maxQueueDepth = maxQueueDepth_;
    }

    // SLO attainment over terminal requests; a rejected request never
    // produced a token, so it misses both deadlines. A run that
    // served nobody attains nothing.
    const std::size_t terminal = completed_.size() + rejected_;
    if (terminal == 0) {
        s.sloTtftAttainment = 0.0;
        s.sloTpotAttainment = 0.0;
        s.sloAttainment = 0.0;
    } else {
        std::size_t met_ttft = 0;
        std::size_t met_tpot = 0;
        std::size_t met_both = 0;
        for (const auto &r : completed_) {
            const bool ttft_ok = metTtft(r);
            const bool tpot_ok = metTpot(r);
            met_ttft += ttft_ok ? 1 : 0;
            met_tpot += tpot_ok ? 1 : 0;
            met_both += (ttft_ok && tpot_ok) ? 1 : 0;
        }
        const double n_term = static_cast<double>(terminal);
        s.sloTtftAttainment = static_cast<double>(met_ttft) / n_term;
        s.sloTpotAttainment = static_cast<double>(met_tpot) / n_term;
        s.sloAttainment = static_cast<double>(met_both) / n_term;
    }
    if (completed_.empty())
        return s;

    for (const auto &r : completed_) {
        s.maxQueueWaitSec = std::max(s.maxQueueWaitSec,
                                     (r.admitted - r.arrival).sec());
    }

    std::vector<double> ttft;
    std::vector<double> e2e;
    std::vector<double> tpot;
    std::vector<double> gap;
    double ttft_sum = 0.0;
    double tpot_sum = 0.0;
    double tokens = 0.0;
    double budget_frac_sum = 0.0;
    for (const auto &r : completed_) {
        const double t = (r.firstToken - r.arrival).sec();
        ttft.push_back(t);
        ttft_sum += t;
        e2e.push_back((r.completed - r.arrival).sec());
        if (r.task.decLen > 0) {
            const double per_tok =
                (r.completed - r.firstToken).sec() /
                static_cast<double>(r.task.decLen);
            tpot.push_back(per_tok);
            tpot_sum += per_tok;
        }
        gap.push_back(r.maxTokenGapSec);
        tokens += static_cast<double>(r.generated);
        budget_frac_sum +=
            r.budgetRequested > 0
                ? static_cast<double>(r.budgetGranted) /
                      static_cast<double>(r.budgetRequested)
                : 1.0;
    }
    // One sort per sample vector; every rank indexes the sorted copy.
    std::sort(ttft.begin(), ttft.end());
    std::sort(e2e.begin(), e2e.end());
    std::sort(tpot.begin(), tpot.end());
    std::sort(gap.begin(), gap.end());
    const double n = static_cast<double>(completed_.size());
    s.ttftMean = ttft_sum / n;
    s.ttftP50 = percentileSorted(ttft, 50.0);
    s.ttftP95 = percentileSorted(ttft, 95.0);
    s.ttftP99 = percentileSorted(ttft, 99.0);
    s.e2eP50 = percentileSorted(e2e, 50.0);
    s.e2eP95 = percentileSorted(e2e, 95.0);
    s.e2eP99 = percentileSorted(e2e, 99.0);
    s.tpotMean = tpot.empty()
                     ? 0.0
                     : tpot_sum / static_cast<double>(tpot.size());
    s.tpotP50 = percentileSorted(tpot, 50.0);
    s.tpotP95 = percentileSorted(tpot, 95.0);
    s.tokenGapP95 = percentileSorted(gap, 95.0);
    s.meanBudgetFraction = budget_frac_sum / n;
    if (makespan.sec() > 0.0)
        s.goodputTokensPerSec = tokens / makespan.sec();
    if (tokens > 0.0)
        s.energyPerToken = energy_.total().j() / tokens;
    return s;
}

} // namespace serving
} // namespace kelle
