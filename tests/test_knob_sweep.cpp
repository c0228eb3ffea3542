/**
 * @file
 * Knob-sensitivity sweep: every field of the engine, cluster, fault,
 * accelerator-system (its technology field by field) and managed-KV-
 * cache configs, changed one at a time, must move the output digest of
 * at least one case of a small fixed case set — or carry a written
 * verdict in docs/KNOBS.md.
 *
 * The case set:
 *  - `fig13`: one Figure 13 cell, `accel::simulate` of the Kelle
 *    system on PG19 with LLaMA2-7B at batch 16;
 *  - `contiguous`: a 3-device contiguous-KV cluster run with
 *    preemption and fault injection on, and overload rejections;
 *  - `paged`: a 2-device paged-KV cluster run with shared session
 *    prefixes under bursty PG19-heavy `edf-chunked` traffic;
 *  - `kvcache`: a ManagedKvCache driving the functional TinyLM through
 *    a teacher-forced stream, with eDRAM retention faults.
 *
 * docs/KNOBS.md holds one table row per field: `binds` names the
 * cases whose digest the field's perturbation must move, `neutral`
 * states why moving no digest is the field's contract (`fastSim`,
 * `threads`, observers, labels), and `deleted` records a field this
 * repository removed because nothing responded to it. The sweep fails
 * on a field that moves no digest without a `neutral` verdict, on a
 * `binds` verdict whose case does not move, on a `neutral` verdict
 * whose field does move something, on a swept field with no row, and
 * on a row naming a field that neither exists nor is marked deleted.
 * FieldCounts keeps the sweep honest about new fields: it counts each
 * config struct's members (aggregate initialization) and fails when a
 * struct grows a field the sweep does not perturb.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "accel/timing_model.hpp"
#include "cluster/cluster_engine.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "edram/fault_model.hpp"
#include "kvcache/managed_kv_cache.hpp"
#include "model/evaluate.hpp"
#include "model/transformer.hpp"
#include "obs/attribution.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/workloads.hpp"

#ifndef KELLE_SOURCE_DIR
#define KELLE_SOURCE_DIR "."
#endif

namespace kelle {
namespace {

// ---- Field counting --------------------------------------------------

/** Converts to any member type: `T{AnyField{}...}` compiles exactly
 *  while the initializer count does not exceed T's member count. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// ---- Digests ---------------------------------------------------------

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
    void add(Energy e) { add(e.j()); }
    void
    add(const accel::EnergyBreakdown &e)
    {
        for (Energy part : {e.rsa, e.sfu, e.weightSram, e.kvMem,
                            e.refresh, e.dram, e.leakage})
            add(part);
    }
};

void
hashServingReport(Hasher &h, const serving::ServingReport &r)
{
    const serving::ServingSummary &s = r.summary;
    h.add(s.completed);
    h.add(s.rejected);
    h.add(s.makespan);
    for (double v : {s.ttftMean, s.ttftP50, s.ttftP95, s.ttftP99,
                     s.e2eP50, s.e2eP95, s.e2eP99, s.tpotMean,
                     s.tpotP50, s.tpotP95, s.tokenGapP95,
                     s.goodputTokensPerSec, s.sloTtftAttainment,
                     s.sloTpotAttainment, s.sloAttainment,
                     s.maxQueueWaitSec, s.meanQueueDepth,
                     s.meanBudgetFraction, s.energyPerToken})
        h.add(v);
    h.add(s.admissionBypasses);
    h.add(s.preemptions);
    h.add(s.maxQueueDepth);
    h.add(s.energy);
    h.add(r.engineSteps);
    h.add(r.decodeSteps);
    h.add(r.prefillChunks);
    h.add(r.prefills);
    h.add(r.poolTokens);
    h.add(r.poolCapacityBytes);
    h.add(r.poolPeakBytes);
    h.add(r.shrunkGrants);
    h.add(r.deferrals);
    h.add(r.peakLogicalTokens);
    h.add(r.paged.totalPages);
    h.add(r.paged.blockTokens);
    h.add(r.paged.peakUsedPages);
    h.add(r.paged.peakSharedPages);
    h.add(r.paged.prefixHitTokens);
    h.add(r.paged.cowCopies);
    h.add(r.paged.cachedReclaims);
    h.add(r.paged.budgetClips);
    h.add(r.drained);
}

/** Every request's lifecycle plus the whole fleet report. */
std::uint64_t
clusterDigest(const cluster::ClusterConfig &cfg)
{
    cluster::ClusterEngine engine(cfg);
    const cluster::ClusterReport rep = engine.run();
    Hasher h;
    for (const serving::Request &r : engine.requests()) {
        h.add(r.id);
        h.add(r.state);
        for (sim::SimTime t : {r.arrival, r.admitted, r.firstToken,
                               r.lastToken, r.completed})
            h.add(t.ns());
        h.add(r.budgetRequested);
        h.add(r.budgetGranted);
        h.add(r.prefilled);
        h.add(r.generated);
        h.add(r.preemptions);
        h.add(r.faultRetries);
        h.add(r.lostTokens);
        h.add(r.faultFailed);
        h.add(r.maxTokenGapSec);
    }
    hashServingReport(h, rep.aggregate);
    for (const cluster::ClusterDeviceReport &d : rep.devices) {
        hashServingReport(h, d.report);
        h.add(d.dispatched);
        h.add(d.busySec);
    }
    h.add(rep.loadImbalanceCv);
    h.add(rep.refreshEnergyJ);
    const cluster::ClusterFaultReport &f = rep.faults;
    h.add(f.totalDowntimeSec);
    for (std::uint64_t v : {f.crashes, f.slowdowns, f.shrinks,
                            f.lostTokens, f.retries, f.retrySuccesses,
                            f.shedRequests, f.permanentFailures})
        h.add(v);
    return h.h;
}

// ---- The case set ----------------------------------------------------

enum CaseId : std::size_t
{
    kFig13,
    kContiguous,
    kPaged,
    kKvCache,
    kCaseCount
};

constexpr const char *kCaseNames[kCaseCount] = {"fig13", "contiguous",
                                                "paged", "kvcache"};

/**
 * Everything the case set reads. The two cluster configs leave
 * `devices` empty to mean "a homogeneous fleet of the case's device
 * spec", so a perturbed `DeviceSpec` field (`name`, `poolTokens`,
 * `maxBatch`) reaches every device; a perturbation of
 * `ClusterConfig::devices` fills it explicitly. `system` is the
 * accelerator every case runs, the fig13 cell's and every device's.
 */
struct Inputs
{
    accel::SystemConfig system = accel::kelleEdramSystem(2048);
    cluster::ClusterConfig contiguous;
    serving::DeviceSpec contiguousDevice;
    std::size_t contiguousDevices = 3;
    cluster::ClusterConfig paged;
    serving::DeviceSpec pagedDevice;
    std::size_t pagedDevices = 2;
    kv::KvCacheConfig kv;
};

Inputs
baseInputs()
{
    Inputs s;
    s.contiguousDevice.name = s.pagedDevice.name = "dev";
    {
        s.contiguousDevice.poolTokens = 4000;
        serving::ServingConfig &e = s.contiguous.engine;
        e.preempt.enabled = true;
        // PG19 with a recent window wider than the pool: its floor
        // never fits, so these requests are overload rejections.
        // LAMBADA's double weight makes some short decodes run alone,
        // below the resident total where the popular-token cap of
        // recomputation binds.
        sim::Task oversized = sim::pg19();
        oversized.recentWindow = 4096;
        e.traffic.mix = {{sim::lambada(), 2.0},
                         {sim::triviaQa(), 1.0},
                         {sim::qasper(), 1.0},
                         {oversized, 1.0}};
        e.traffic.numRequests = 40;
        e.traffic.ratePerSec = 0.03;
        e.traffic.slo.tpotSec = 0.25;
        s.contiguous.faults.enabled = true;
        s.contiguous.faults.mtbfSec = 120.0;
        s.contiguous.faults.mttrSec = 20.0;
    }
    {
        s.pagedDevice.poolTokens = 12000;
        serving::ServingConfig &e = s.paged.engine;
        e.paged.enabled = true;
        e.traffic.numRequests = 40;
        e.traffic.sessions = 4;
        e.traffic.process = serving::ArrivalProcess::Bursty;
        e.traffic.mix = serving::pg19HeavyMix();
        e.traffic.ratePerSec = 0.01;
        e.policy = serving::SchedulePolicy::EdfChunked;
        e.chunkTokens = 256;
    }
    s.kv = kv::makeAerpConfig(24, 2, 8);
    s.kv.precision = kv::KvPrecision::Int8;
    return s;
}

/** `c` on its explicit fleet, or on n copies of `device` running
 *  `system`, named as `homogeneousFleet` names them. */
cluster::ClusterConfig
lift(const cluster::ClusterConfig &c, const serving::DeviceSpec &device,
     std::size_t n, const accel::SystemConfig &system)
{
    cluster::ClusterConfig out = c;
    if (!out.devices.empty())
        return out;
    for (std::size_t i = 0; i < n; ++i) {
        serving::DeviceSpec &d = out.devices.emplace_back(device);
        d.name = device.name + std::to_string(i);
        d.system = system;
    }
    return out;
}

std::uint64_t
fig13Digest(const Inputs &s)
{
    const accel::RunReport r = accel::simulate(
        s.system, sim::makeWorkload(sim::pg19(), model::llama2_7b(), 16));
    Hasher h;
    h.add(r.prefillLatency);
    h.add(r.decodeLatency);
    h.add(r.prefillEnergy);
    h.add(r.decodeEnergy);
    for (double v : {r.dramBytesTotal, r.macsTotal,
                     r.recomputedTokensPerStep, r.kvResidentBytesEnd,
                     r.kvOnChipFraction})
        h.add(v);
    return h.h;
}

std::uint64_t
kvCacheDigest(const Inputs &s)
{
    model::TinyTransformer tiny(model::tinyLm(),
                                model::InitOptions{.seed = 5});
    const model::ModelConfig &m = tiny.config();
    kv::ManagedKvCache cache(s.kv, m.layers, m.nKvHeads, m.headDim(),
                             m.dModel);
    // Retention faults only in the low-score group: which tokens the
    // cache files as high-score decides what gets corrupted.
    auto faults =
        edram::RefreshFaultModel::withRates({0.0, 0.0, 2e-3, 2e-2}, 9);
    cache.setFaultInjector(&faults);
    tiny.attach(cache);
    Rng rng(17);
    std::vector<int> tokens(96);
    for (int &t : tokens)
        t = static_cast<int>(rng.next() % m.vocab);
    const model::StreamEval eval = model::runStream(tiny, cache, tokens, 48);
    Hasher h;
    for (double ce : eval.crossEntropy)
        h.add(ce);
    for (int a : eval.argmax)
        h.add(a);
    h.add(cache.residentKvBytes());
    h.add(cache.residentActivationBytes());
    h.add(faults.flipsInjected());
    return h.h;
}

using Digests = std::array<std::uint64_t, kCaseCount>;

Digests
runCases(const Inputs &s, unsigned mask)
{
    Digests d{};
    if (mask & (1u << kFig13))
        d[kFig13] = fig13Digest(s);
    if (mask & (1u << kContiguous))
        d[kContiguous] = clusterDigest(lift(
            s.contiguous, s.contiguousDevice, s.contiguousDevices, s.system));
    if (mask & (1u << kPaged))
        d[kPaged] = clusterDigest(
            lift(s.paged, s.pagedDevice, s.pagedDevices, s.system));
    if (mask & (1u << kKvCache))
        d[kKvCache] = kvCacheDigest(s);
    return d;
}

// ---- The swept fields ------------------------------------------------

constexpr unsigned kServing = (1u << kContiguous) | (1u << kPaged);
constexpr unsigned kSystem = (1u << kFig13) | kServing;
constexpr unsigned kKv = 1u << kKvCache;

struct Knob
{
    std::string field; ///< "Owner::member", as KNOBS.md names it
    unsigned cases;    ///< which cases can read the field
    std::function<void(Inputs &)> perturb;
};

/** A field of both cluster cases' engine config. */
Knob
engineKnob(std::string field,
           std::function<void(serving::ServingConfig &)> f)
{
    return {std::move(field), kServing, [f](Inputs &s) {
                f(s.contiguous.engine);
                f(s.paged.engine);
            }};
}

/** A field of both cluster cases' device spec. */
Knob
deviceKnob(std::string field,
           std::function<void(serving::DeviceSpec &)> f)
{
    return {std::move(field), kServing, [f](Inputs &s) {
                f(s.contiguousDevice);
                f(s.pagedDevice);
            }};
}

/** A field of both cluster cases' ClusterConfig. */
Knob
clusterKnob(std::string field,
            std::function<void(cluster::ClusterConfig &)> f)
{
    return {std::move(field), kServing, [f](Inputs &s) {
                f(s.contiguous);
                f(s.paged);
            }};
}

Knob
systemKnob(std::string field,
           std::function<void(accel::SystemConfig &)> f)
{
    return {std::move(field), kSystem,
            [f](Inputs &s) { f(s.system); }};
}

Knob
kvKnob(std::string field, std::function<void(kv::KvCacheConfig &)> f)
{
    return {std::move(field), kKv, [f](Inputs &s) { f(s.kv); }};
}

/** A field of the system's technology. */
Knob
techKnob(std::string field,
         std::function<void(accel::TechnologyConfig &)> f)
{
    return systemKnob(std::move(field),
                      [f](accel::SystemConfig &s) { f(s.tech); });
}

/** Observers whose pointers a perturbation installs; they outlive
 *  every run of the sweep. */
struct Observers
{
    obs::TraceRecorder trace;
    obs::LatencyWaterfall waterfall;
    obs::PhaseProfiler profiler;
};

std::vector<Knob>
sweptKnobs(Observers &o)
{
    using serving::ServingConfig;
    using cluster::ClusterConfig;
    using accel::SystemConfig;
    using accel::TechnologyConfig;
    using kv::KvCacheConfig;
    return {
        // DeviceSpec (`system` is swept as SystemConfig below).
        deviceKnob("DeviceSpec::name",
                   [](serving::DeviceSpec &d) { d.name = "renamed"; }),
        deviceKnob("DeviceSpec::poolTokens",
                   [](serving::DeviceSpec &d) { d.poolTokens /= 2; }),
        deviceKnob("DeviceSpec::maxBatch",
                   [](serving::DeviceSpec &d) { d.maxBatch = 4; }),
        // DeviceConfig.
        engineKnob("DeviceConfig::model",
                   [](ServingConfig &e) { e.model = model::llama32_3b(); }),
        engineKnob("DeviceConfig::policy",
                   [](ServingConfig &e) {
                       e.policy = serving::SchedulePolicy::SjfWithinDeadline;
                   }),
        engineKnob("DeviceConfig::chunkTokens",
                   [](ServingConfig &e) { e.chunkTokens = 128; }),
        engineKnob("DeviceConfig::budgetOverride",
                   [](ServingConfig &e) { e.budgetOverride = 600; }),
        engineKnob("DeviceConfig::highWatermark",
                   [](ServingConfig &e) { e.highWatermark = 0.5; }),
        engineKnob("DeviceConfig::chunkSlackFrac",
                   [](ServingConfig &e) { e.chunkSlackFrac = 0.5; }),
        engineKnob("DeviceConfig::maxEngineSteps",
                   [](ServingConfig &e) { e.maxEngineSteps = 200; }),
        engineKnob("DeviceConfig::fastSim",
                   [](ServingConfig &e) { e.fastSim = false; }),
        engineKnob("DeviceConfig::verbose",
                   [](ServingConfig &e) { e.verbose = true; }),
        engineKnob("DeviceConfig::profiler",
                   [&o](ServingConfig &e) { e.profiler = &o.profiler; }),
        // PreemptConfig, PagedKvConfig.
        engineKnob("PreemptConfig::enabled",
                   [](ServingConfig &e) {
                       e.preempt.enabled = !e.preempt.enabled;
                   }),
        engineKnob("PagedKvConfig::enabled",
                   [](ServingConfig &e) {
                       e.paged.enabled = !e.paged.enabled;
                   }),
        engineKnob("PagedKvConfig::blockTokens",
                   [](ServingConfig &e) { e.paged.blockTokens = 16; }),
        engineKnob("PagedKvConfig::quantBits",
                   [](ServingConfig &e) { e.paged.quantBits = 8; }),
        engineKnob("PagedKvConfig::sharePrefixes",
                   [](ServingConfig &e) { e.paged.sharePrefixes = false; }),
        // ServingConfig's own fields.
        engineKnob("ServingConfig::traffic",
                   [](ServingConfig &e) { e.traffic.seed = 7; }),
        engineKnob("ServingConfig::trace",
                   [&o](ServingConfig &e) { e.trace = &o.trace; }),
        engineKnob("ServingConfig::waterfall",
                   [&o](ServingConfig &e) { e.waterfall = &o.waterfall; }),
        // ClusterConfig (`engine` and `faults` are expanded).
        clusterKnob("ClusterConfig::dispatch",
                    [](ClusterConfig &c) {
                        c.dispatch = cluster::DispatchKind::JoinShortestKv;
                    }),
        {"ClusterConfig::devices", kServing,
         [](Inputs &s) {
             s.contiguous.devices = cluster::heteroEdramSramFleet(
                 s.contiguousDevices, 2048,
                 s.contiguousDevice.poolTokens,
                 s.contiguousDevice.poolTokens / 2);
             s.paged.devices = cluster::heteroEdramSramFleet(
                 s.pagedDevices, 2048, s.pagedDevice.poolTokens,
                 s.pagedDevice.poolTokens / 2);
         }},
        clusterKnob("ClusterConfig::threads",
                    [](ClusterConfig &c) { c.threads = 2; }),
        // FaultConfig.
        clusterKnob("FaultConfig::enabled",
                    [](ClusterConfig &c) {
                        c.faults.enabled = !c.faults.enabled;
                    }),
        clusterKnob("FaultConfig::mtbfSec",
                    [](ClusterConfig &c) { c.faults.mtbfSec = 30.0; }),
        clusterKnob("FaultConfig::mttrSec",
                    [](ClusterConfig &c) { c.faults.mttrSec = 5.0; }),
        clusterKnob("FaultConfig::crashWeight",
                    [](ClusterConfig &c) { c.faults.crashWeight = 4.0; }),
        clusterKnob("FaultConfig::slowdownWeight",
                    [](ClusterConfig &c) { c.faults.slowdownWeight = 4.0; }),
        clusterKnob("FaultConfig::shrinkWeight",
                    [](ClusterConfig &c) { c.faults.shrinkWeight = 4.0; }),
        clusterKnob("FaultConfig::recoverWarmupSec",
                    [](ClusterConfig &c) {
                        c.faults.recoverWarmupSec = 0.0;
                    }),
        clusterKnob("FaultConfig::maxRetries",
                    [](ClusterConfig &c) { c.faults.maxRetries = 0; }),
        clusterKnob("FaultConfig::retryBackoffSec",
                    [](ClusterConfig &c) { c.faults.retryBackoffSec = 4.0; }),
        clusterKnob("FaultConfig::retryBackoffCapSec",
                    [](ClusterConfig &c) {
                        c.faults.retryBackoffCapSec = 0.5;
                    }),
        clusterKnob("FaultConfig::seed",
                    [](ClusterConfig &c) { c.faults.seed = 7; }),
        // SystemConfig (`tech`, `kv` and `refresh` are expanded).
        systemKnob("SystemConfig::name",
                   [](SystemConfig &s) { s.name = "renamed"; }),
        systemKnob("SystemConfig::scheduler",
                   [](SystemConfig &s) {
                       s.scheduler = accel::SchedulerKind::Baseline;
                   }),
        systemKnob("SystemConfig::prefillComputeSpeedup",
                   [](SystemConfig &s) { s.prefillComputeSpeedup = 2.0; }),
        systemKnob("SystemConfig::prefillAttnSparsity",
                   [](SystemConfig &s) { s.prefillAttnSparsity = 0.5; }),
        systemKnob("KvPolicySpec::evict",
                   [](SystemConfig &s) { s.kv.evict = false; }),
        systemKnob("KvPolicySpec::budget",
                   [](SystemConfig &s) { s.kv.budget = 512; }),
        systemKnob("KvPolicySpec::recompute",
                   [](SystemConfig &s) {
                       s.kv.recompute = accel::RecomputeMode::None;
                   }),
        systemKnob("KvPolicySpec::popularFraction",
                   [](SystemConfig &s) { s.kv.popularFraction = 0.7; }),
        systemKnob("KvPolicySpec::kvBits",
                   [](SystemConfig &s) { s.kv.kvBits = 8; }),
        systemKnob("KvPolicySpec::systolicEvictor",
                   [](SystemConfig &s) { s.kv.systolicEvictor = false; }),
        systemKnob("RefreshSpec::intervals",
                   [](SystemConfig &s) {
                       s.refresh.intervals = edram::RefreshIntervals::uniform(
                           Time::micros(100));
                   }),
        systemKnob("RefreshSpec::hstFraction",
                   [](SystemConfig &s) { s.refresh.hstFraction = 0.2; }),
        // TechnologyConfig (`rsa` and `sfu` are expanded).
        techKnob("RsaConfig::rows",
                 [](TechnologyConfig &t) { t.rsa.rows = 24; }),
        techKnob("RsaConfig::cols",
                 [](TechnologyConfig &t) { t.rsa.cols = 24; }),
        techKnob("RsaConfig::clockHz",
                 [](TechnologyConfig &t) { t.rsa.clockHz = 0.8e9; }),
        techKnob("RsaConfig::macsPerPeCycle",
                 [](TechnologyConfig &t) { t.rsa.macsPerPeCycle = 1.0; }),
        techKnob("RsaConfig::macEnergy",
                 [](TechnologyConfig &t) {
                     t.rsa.macEnergy = Energy::picos(0.5);
                 }),
        techKnob("RsaConfig::area",
                 [](TechnologyConfig &t) { t.rsa.area = Area::mm2(3.0); }),
        techKnob("RsaConfig::utilization",
                 [](TechnologyConfig &t) { t.rsa.utilization = 0.5; }),
        techKnob("SfuConfig::opEnergy",
                 [](TechnologyConfig &t) {
                     t.sfu.opEnergy = Energy::picos(2.4);
                 }),
        techKnob("SfuConfig::lanes",
                 [](TechnologyConfig &t) { t.sfu.lanes = 8; }),
        techKnob("SfuConfig::area",
                 [](TechnologyConfig &t) { t.sfu.area = Area::mm2(1.0); }),
        techKnob("TechnologyConfig::weightSram",
                 [](TechnologyConfig &t) {
                     t.weightSram =
                         mem::sram(Bytes::mib(2), Bandwidth::gibPerSec(64));
                 }),
        techKnob("TechnologyConfig::kvMemory",
                 [](TechnologyConfig &t) {
                     t.kvMemory =
                         mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(128));
                 }),
        techKnob("TechnologyConfig::actBuffer",
                 [](TechnologyConfig &t) {
                     t.actBuffer = mem::sram(Bytes::kib(256),
                                             Bandwidth::gibPerSec(128));
                 }),
        techKnob("TechnologyConfig::dram",
                 [](TechnologyConfig &t) {
                     t.dram = mem::MemoryModel(
                         "lpddr4-half", Bytes::gib(16),
                         Bandwidth::gibPerSec(32), Time::nanos(100),
                         EnergyPerByte::picojoules(120.0),
                         Power::watts(0.55), Area::mm2(16.0));
                 }),
        techKnob("TechnologyConfig::weightBits",
                 [](TechnologyConfig &t) { t.weightBits = 4; }),
        techKnob("TechnologyConfig::dramEfficiency",
                 [](TechnologyConfig &t) { t.dramEfficiency = 0.5; }),
        techKnob("TechnologyConfig::socStaticPower",
                 [](TechnologyConfig &t) {
                     t.socStaticPower = Power::watts(1.0);
                 }),
        // KvCacheConfig.
        kvKnob("KvCacheConfig::policy",
               [](KvCacheConfig &k) { k.policy = kv::Policy::H2O; }),
        kvKnob("KvCacheConfig::budget",
               [](KvCacheConfig &k) { k.budget = 16; }),
        kvKnob("KvCacheConfig::sinkTokens",
               [](KvCacheConfig &k) { k.sinkTokens = 6; }),
        kvKnob("KvCacheConfig::recentWindow",
               [](KvCacheConfig &k) { k.recentWindow = 4; }),
        kvKnob("KvCacheConfig::precision",
               [](KvCacheConfig &k) { k.precision = kv::KvPrecision::Int4; }),
        kvKnob("KvCacheConfig::quantGroup",
               [](KvCacheConfig &k) { k.quantGroup = 8; }),
        kvKnob("KvCacheConfig::recompute",
               [](KvCacheConfig &k) { k.recompute = false; }),
        kvKnob("KvCacheConfig::popularityTheta",
               [](KvCacheConfig &k) { k.popularityTheta = 0.9; }),
        kvKnob("KvCacheConfig::useRawLogits",
               [](KvCacheConfig &k) { k.useRawLogits = true; }),
        kvKnob("KvCacheConfig::hstFraction",
               [](KvCacheConfig &k) { k.hstFraction = 0.2; }),
    };
}

/** Members swept through another struct's knobs (`Owner::member`). */
const std::set<std::string> kExpanded = {
    "DeviceSpec::system",    "DeviceConfig::preempt",
    "DeviceConfig::paged",   "ClusterConfig::engine",
    "ClusterConfig::faults", "SystemConfig::tech",
    "SystemConfig::kv",      "SystemConfig::refresh",
    "TechnologyConfig::rsa", "TechnologyConfig::sfu",
};

/** Member count of every swept struct. ServingConfig's count
 *  excludes its DeviceConfig base. */
const std::map<std::string, std::size_t> kFieldCounts = {
    {"DeviceSpec", fieldCount<serving::DeviceSpec>()},
    {"DeviceConfig", fieldCount<serving::DeviceConfig>()},
    {"PreemptConfig", fieldCount<serving::PreemptConfig>()},
    {"PagedKvConfig", fieldCount<serving::PagedKvConfig>()},
    {"ServingConfig", fieldCount<serving::ServingConfig>() - 1},
    {"ClusterConfig", fieldCount<cluster::ClusterConfig>()},
    {"FaultConfig", fieldCount<faults::FaultConfig>()},
    {"SystemConfig", fieldCount<accel::SystemConfig>()},
    {"TechnologyConfig", fieldCount<accel::TechnologyConfig>()},
    {"RsaConfig", fieldCount<accel::RsaConfig>()},
    {"SfuConfig", fieldCount<accel::SfuConfig>()},
    {"KvPolicySpec", fieldCount<accel::KvPolicySpec>()},
    {"RefreshSpec", fieldCount<accel::RefreshSpec>()},
    {"KvCacheConfig", fieldCount<kv::KvCacheConfig>()},
};

std::string
ownerOf(const std::string &field)
{
    return field.substr(0, field.find("::"));
}

// ---- docs/KNOBS.md ---------------------------------------------------

struct Verdict
{
    std::string kind;               ///< binds | neutral | deleted
    std::vector<std::string> cases; ///< binds: cases that must move
    std::string reason;
};

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t`");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t`");
    return s.substr(b, e - b + 1);
}

/** Rows `| field | verdict | cases | reason |` of the verdict tables. */
std::map<std::string, Verdict>
readVerdicts(std::string *error)
{
    const std::string path =
        std::string(KELLE_SOURCE_DIR) + "/docs/KNOBS.md";
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return {};
    }
    std::map<std::string, Verdict> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cols;
        std::stringstream ss(line.substr(1));
        std::string col;
        while (std::getline(ss, col, '|'))
            cols.push_back(trim(col));
        if (cols.size() < 4 || cols[0].find("::") == std::string::npos)
            continue;
        Verdict v;
        v.kind = cols[1];
        std::stringstream cs(cols[2]);
        std::string c;
        while (std::getline(cs, c, ','))
            if (!trim(c).empty() && trim(c) != "-")
                v.cases.push_back(trim(c));
        v.reason = cols[3];
        out[cols[0]] = v;
    }
    return out;
}

// ---- Tests -----------------------------------------------------------

TEST(KnobSweep, FieldCountsMatchTheSweep)
{
    Observers o;
    std::map<std::string, std::size_t> swept;
    for (const Knob &k : sweptKnobs(o))
        ++swept[ownerOf(k.field)];
    for (const std::string &e : kExpanded)
        ++swept[ownerOf(e)];
    std::size_t total = 0;
    for (const auto &[owner, count] : kFieldCounts) {
        EXPECT_EQ(swept[owner], count)
            << owner << " has " << count << " fields but the sweep "
            << "covers " << swept[owner]
            << ": perturb the new field in sweptKnobs() and give it a "
               "verdict in docs/KNOBS.md";
        total += count;
    }
    // The options count next to the line count (CI run summary).
    std::printf("swept config fields: %zu\n", total);
}

TEST(KnobSweep, EveryFieldBindsOrHasAVerdict)
{
    std::string error;
    const std::map<std::string, Verdict> verdicts = readVerdicts(&error);
    ASSERT_TRUE(error.empty()) << error;

    Observers o;
    const std::vector<Knob> knobs = sweptKnobs(o);
    const Inputs base = baseInputs();
    const Digests base_digests = runCases(base, kSystem | kKv);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Quiet); // the `verbose` knob's log lines

    std::set<std::string> seen;
    for (const Knob &k : knobs) {
        seen.insert(k.field);
        Inputs s = base;
        k.perturb(s);
        const Digests d = runCases(s, k.cases);
        std::set<std::string> moved;
        for (std::size_t c = 0; c < kCaseCount; ++c)
            if ((k.cases & (1u << c)) && d[c] != base_digests[c])
                moved.insert(kCaseNames[c]);

        std::string moved_list;
        for (const std::string &c : moved)
            moved_list += (moved_list.empty() ? "" : ", ") + c;
        const auto it = verdicts.find(k.field);
        if (it == verdicts.end()) {
            ADD_FAILURE() << k.field << " has no row in docs/KNOBS.md ("
                          << (moved.empty() ? "it moves no digest"
                                            : "it binds in " + moved_list)
                          << ")";
            continue;
        }
        const Verdict &v = it->second;
        if (v.kind == "binds") {
            EXPECT_FALSE(v.cases.empty())
                << k.field << ": a binds verdict names its cases";
            for (const std::string &c : v.cases)
                EXPECT_TRUE(moved.count(c))
                    << k.field << " is listed as binding in " << c
                    << " but its perturbation leaves that digest as is";
        } else if (v.kind == "neutral") {
            EXPECT_TRUE(moved.empty())
                << k.field << " is listed as output-neutral but moves "
                << moved_list;
            EXPECT_FALSE(v.reason.empty())
                << k.field << ": a neutral verdict needs its reason";
        } else {
            ADD_FAILURE() << k.field << " is swept but its verdict is '"
                          << v.kind << "'";
        }
    }
    setLogLevel(level);

    for (const auto &[field, v] : verdicts) {
        if (v.kind == "deleted")
            EXPECT_FALSE(seen.count(field))
                << field << " is marked deleted but still swept";
        else
            EXPECT_TRUE(seen.count(field))
                << "docs/KNOBS.md lists " << field
                << ", which the sweep does not perturb";
    }
}

TEST(KnobSweep, SystemPerturbationsCompareUnequal)
{
    // A cluster gives devices whose systems compare equal one decode
    // memo. A field left out of the equality would let two devices
    // with different systems share step costs, and no digest would
    // notice while both systems cost alike.
    const std::set<std::string> system_owners = {
        "SystemConfig", "TechnologyConfig", "RsaConfig", "SfuConfig",
        "KvPolicySpec", "RefreshSpec"};
    Observers o;
    const Inputs base = baseInputs();
    std::size_t checked = 0;
    for (const Knob &k : sweptKnobs(o)) {
        if (!system_owners.count(ownerOf(k.field)))
            continue;
        Inputs s = base;
        k.perturb(s);
        EXPECT_FALSE(s.system == base.system)
            << k.field << " changes the system but it still compares "
               "equal to the base";
        ++checked;
    }
    // Every system field but `tech`, `kv`, `refresh`, `tech.rsa` and
    // `tech.sfu`, which are expanded.
    EXPECT_EQ(checked, kFieldCounts.at("SystemConfig") - 3 +
                           kFieldCounts.at("TechnologyConfig") - 2 +
                           kFieldCounts.at("RsaConfig") +
                           kFieldCounts.at("SfuConfig") +
                           kFieldCounts.at("KvPolicySpec") +
                           kFieldCounts.at("RefreshSpec"));
}

} // namespace
} // namespace kelle
