#include "workloads.hpp"

#include <cstring>
#include <memory>

#include "accel/capacity.hpp"
#include "spans.hpp"

namespace kelle {
namespace benchmark {

namespace {

/** The §8.4.1 capacity-analysis KV pool of a Kelle+eDRAM device. */
std::size_t
analysisPoolTokens(const model::ModelConfig &m)
{
    const auto sys = accel::kelleEdramSystem(2048);
    accel::CapacitySpec spec;
    spec.dramCapacity = sys.tech.dram.capacity();
    spec.weightBits = sys.tech.weightBits;
    spec.kvBits = sys.kv.kvBits;
    return accel::maxSupportedTokens(m, spec).maxTokens;
}

/** bench_cluster's knee fleet: alternating full-pool eDRAM and
 *  half-pool SRAM devices. */
std::vector<cluster::DeviceSpec>
kneeFleet(const model::ModelConfig &m, std::size_t n)
{
    const std::size_t pool = analysisPoolTokens(m);
    return cluster::heteroEdramSramFleet(n, 2048, pool, pool / 2, 16);
}

void
kneeLadder(cluster::ClusterConfig base, Workload *w)
{
    base.devices = kneeFleet(base.engine.model, 2);
    const double rates[] = {0.01, 0.015, 0.02, 0.03};
    for (const auto d : cluster::allDispatchPolicies()) {
        for (const double r : rates) {
            if (d == cluster::DispatchKind::JoinShortestKv) {
                if (r == 0.015)
                    w->headline = w->cells.size();
                w->ladder.push_back(w->cells.size());
            }
            w->cells.push_back(base);
            w->cells.back().dispatch = d;
            w->cells.back().engine.traffic.ratePerSec = r;
        }
    }
}

void
fleet16Preempt(cluster::ClusterConfig base, bool smoke, Workload *w)
{
    base.devices = kneeFleet(base.engine.model, 16);
    base.dispatch = cluster::DispatchKind::JoinShortestKv;
    base.engine.preempt.enabled = true;
    base.engine.traffic.slo.tpotSec = 0.25;
    base.engine.traffic.ratePerSec = 0.12;
    base.engine.traffic.numRequests = smoke ? 100 : 4000;
    base.threads = 2;
    w->cells.push_back(base);
}

void
sessionsPaged(cluster::ClusterConfig base, bool smoke, Workload *w)
{
    base.engine.traffic.numRequests = smoke ? 100 : 2000;
    base.devices = cluster::homogeneousFleet(
        2, accel::kelleEdramSystem(2048), 12000, 16);
    base.engine.paged.enabled = true;
    base.engine.paged.blockTokens = 64;
    base.engine.paged.sharePrefixes = true;
    base.engine.traffic.sessions = 8;
    base.engine.traffic.process = serving::ArrivalProcess::Bursty;
    base.engine.traffic.mix = serving::pg19HeavyMix();
    base.engine.traffic.ratePerSec = 0.01;
    base.engine.policy = serving::SchedulePolicy::EdfChunked;
    base.engine.chunkTokens = 256;
    w->cells.push_back(base);
}

/** FNV-1a over raw bytes. */
struct Hasher
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    void add(Time t) { add(t.sec()); }
};

std::uint64_t
digestOf(const cluster::ClusterEngine &engine,
         const cluster::ClusterReport &rep)
{
    Hasher h;
    for (const serving::Request &r : engine.requests()) {
        h.add(r.id);
        h.add(static_cast<int>(r.state));
        h.add(r.arrival);
        h.add(r.admitted);
        h.add(r.firstToken);
        h.add(r.lastToken);
        h.add(r.completed);
        h.add(r.budgetGranted);
        h.add(r.prefilled);
        h.add(r.generated);
        h.add(r.preemptions);
        h.add(r.maxTokenGapSec);
    }
    const serving::ServingReport &a = rep.aggregate;
    const serving::ServingSummary &s = a.summary;
    h.add(a.engineSteps);
    h.add(a.decodeSteps);
    h.add(a.prefillChunks);
    h.add(a.deferrals);
    h.add(a.shrunkGrants);
    h.add(a.peakLogicalTokens);
    h.add(a.poolPeakBytes);
    h.add(a.paged.peakUsedPages);
    h.add(a.paged.prefixHitTokens);
    h.add(a.paged.cowCopies);
    h.add(a.paged.tailReclaims);
    h.add(a.paged.budgetClips);
    h.add(s.completed);
    h.add(s.rejected);
    h.add(s.makespan);
    h.add(s.ttftP50);
    h.add(s.ttftP99);
    h.add(s.tpotP95);
    h.add(s.goodputTokensPerSec);
    h.add(s.sloAttainment);
    h.add(s.admissionBypasses);
    h.add(s.preemptions);
    h.add(s.energy.total().j());
    h.add(s.energyPerToken);
    h.add(rep.loadImbalanceCv);
    for (const cluster::ClusterDeviceReport &d : rep.devices) {
        h.add(d.dispatched);
        h.add(d.busySec);
    }
    return h.h;
}

} // namespace

bool
makeWorkload(const std::string &name, bool smoke, Workload *out)
{
    Workload w;
    cluster::ClusterConfig base;
    base.engine.traffic.numRequests = smoke ? 100 : 1000;
    if (name == "knee_ladder")
        kneeLadder(base, &w);
    else if (name == "fleet16_preempt")
        fleet16Preempt(base, smoke, &w);
    else if (name == "sessions_paged")
        sessionsPaged(base, smoke, &w);
    else
        return false;
    *out = std::move(w);
    return true;
}

std::uint64_t
repSeed(std::uint64_t seed, std::size_t rep)
{
    if (rep == 0)
        return seed;
    std::uint64_t z = seed + rep * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

CellResult
runCell(const cluster::ClusterConfig &cfg, const CellTrace &trace)
{
    CellResult out;
    SpanScope cell(trace.spans, "cell", trace.parent, trace.cellRun);
    std::unique_ptr<cluster::ClusterEngine> engine;
    {
        SpanScope s(trace.spans, "cluster.ctor", cell.id(), trace.cellRun);
        engine = std::make_unique<cluster::ClusterEngine>(cfg);
    }
    {
        SpanScope s(trace.spans, "cluster.run", cell.id(), trace.cellRun);
        out.report = engine->run();
    }

    const auto &reqs = engine->requests();
    out.sent = reqs.size();
    bool terminal = true;
    for (const serving::Request &r : reqs) {
        out.promptTokens += r.task.ctxLen;
        terminal = terminal &&
                   (r.state == serving::RequestState::Completed ||
                    r.state == serving::RequestState::Rejected);
    }
    const serving::ServingSummary &s = out.report.aggregate.summary;
    out.conserved = terminal && out.report.aggregate.drained &&
                    out.sent == s.completed + s.rejected;
    for (std::size_t i = 0; i < engine->deviceCount(); ++i) {
        const serving::DeviceEngine &d = engine->device(i);
        out.steps += d.engineSteps();
        out.decodeSteps += d.decodeSteps();
        out.prefillChunks += d.prefillChunks();
        out.fastForwarded += d.fastForwardedSteps();
        out.cache += d.costCacheStats();
    }
    out.digest = digestOf(*engine, out.report);
    return out;
}

} // namespace benchmark
} // namespace kelle
