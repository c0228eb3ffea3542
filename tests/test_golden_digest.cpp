/**
 * @file
 * Golden-digest regression tier: the full text output (stdout +
 * stderr) of the serving/cluster benches, the edge_server example and
 * the analytic paper-figure benches on a small deterministic config is
 * hashed (FNV-1a 64) against a checked-in digest. Any future perf work
 * that perturbs a single byte of the simulation's observable results —
 * a latency, an energy figure, a percentile, a log line — fails here
 * in tier 1 rather than surfacing as a silent result drift.
 *
 * The digests were recorded from the PR 4 engine; the ISSUE 5 fast
 * path (step-cost memoization, fast-forwarded stepping) reproduces
 * them bit-for-bit, which is exactly the invariant this test pins.
 * If a deliberate, reviewed behaviour change moves the outputs,
 * re-record with the commands in each test and update the constants
 * in the same commit.
 *
 * Most digests were recorded from a single-device engine and a serial
 * shared-heap cluster engine that are both gone: the cluster drive
 * loop, at one lane or many, reproduces every one of them, so these
 * constants are what remains of the retired engines' behaviour.
 *
 * `GoldenDigest.StepReportGrid` hashes the analytic step-cost model's
 * own StepReports in process, over a grid of systems and step shapes,
 * so a model change shows even where no bench prints it.
 *
 * The HostileFlags suite drives the same binaries with out-of-range
 * flag values and requires a clean one-line error exit; one case reads
 * every numeric flag and its declared range from each binary's
 * `--help` and feeds it values outside that range.
 *
 * Binaries are located through KELLE_BIN_DIR (the CMake binary dir,
 * injected by tests/CMakeLists.txt); a test skips when its binary was
 * not built (e.g. -DKELLE_BUILD_BENCH=OFF).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "accel/comparators.hpp"
#include "accel/timing_model.hpp"

using namespace kelle;

namespace {

#ifndef KELLE_BIN_DIR
#define KELLE_BIN_DIR "."
#endif

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/** Run `cmd` (stderr folded into stdout), return its full output. */
std::string
capture(const std::string &cmd, int *exit_code)
{
    std::string out;
    std::FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
        *exit_code = -1;
        return out;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    *exit_code = ::pclose(pipe);
    return out;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
expectDigest(const std::string &binary, const std::string &flags,
             std::uint64_t want)
{
    const std::string path = std::string(KELLE_BIN_DIR) + "/" + binary;
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    int exit_code = 0;
    const std::string out = capture(path + " " + flags, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::uint64_t got = fnv1a64(out);
    EXPECT_EQ(got, want)
        << "output of `" << binary << " " << flags
        << "` drifted from the golden digest (got 0x" << std::hex
        << got << ", want 0x" << want
        << ").\nIf the change is deliberate, re-record the digest "
           "from this command's full stdout+stderr.";
}

TEST(GoldenDigest, BenchServingSmallConfig)
{
    expectDigest("bench/bench_serving",
                 "--rate 0.05 --requests 16 --policy all --sweep 0 "
                 "--study 0",
                 0x451a96a526f86c74ull);
}

TEST(GoldenDigest, BenchServingPagedSessionsSmoke)
{
    // The paged KV pool rides the same deterministic engine: the
    // paged + sessions smoke config is pinned byte-for-byte, so any
    // nondeterminism in page allocation, prefix sharing, or the
    // paged fast-forward path shows up as a digest drift here.
    // Re-pinned once when the paged note dropped its always-zero
    // "tail reclaims freed 0 pages" clause (the tail-page harvest is
    // retired); no other byte moved.
    expectDigest("bench/bench_serving",
                 "--paged --sessions 4 --rate 0.05 --requests 16 "
                 "--policy contbatch --sweep 0 --study 0",
                 0xbf6958f37de1ef32ull);
}

TEST(GoldenDigest, BenchServingPagedAdmissionPressure)
{
    // A 6000-token paged pool (93 pages) KV-blocks waiters often
    // enough that admission pressure clamps the running budgets
    // (clampRunningBudgets): the clamp moves this digest, both the
    // headline row and the paged rows' clip counts, so the only
    // pressure response the paged pool has left is pinned here.
    // Re-pinned with the smoke config above, for the same note clause.
    expectDigest("bench/bench_serving",
                 "--paged --sessions 4 --pool 6000 --rate 0.05 "
                 "--requests 16 --policy contbatch --sweep 0 --study 0",
                 0x7e32321b30fa9674ull);
}

TEST(GoldenDigest, BenchTable3PagedKnee)
{
    // The Table 3 bench's paged axis: contiguous and paged 1-device
    // runs of a tight 256-token pool at batch cap 12, over four
    // budgets. It is the only serving path of that bench, and it sets
    // the device's system, pool and batch cap itself.
    expectDigest("bench/bench_table3_budget", "--paged 1",
                 0x9510cbad8e3f557cull);
}

TEST(GoldenDigest, BenchClusterSmallHeteroConfig)
{
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0",
                 0x1bf07f53c96d1bb8ull);
}

TEST(GoldenDigest, BenchClusterThreadedMatchesSerialDigest)
{
    // The drive loop's lane contract in one line: the 4-lane run
    // hashes to the *same* golden digest as the one-lane run above. A
    // changed byte anywhere in the report means the lookahead/commit
    // protocol reordered something observable.
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0 --threads 4",
                 0x1bf07f53c96d1bb8ull);
}

TEST(GoldenDigest, BenchClusterThreadedPreemptMatchesSerialDigest)
{
    // Same pinning for the preempt-and-requeue path: the serialized
    // rounds must merge cross-device requeues in canonical order. The
    // one-lane and 4-lane digests are recorded from the same command
    // modulo --threads, and must stay equal.
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0 --preempt --rate 0.08",
                 0x3f3f11f1704caf8cull);
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0 --preempt --rate 0.08 --threads 4",
                 0x3f3f11f1704caf8cull);
}

TEST(GoldenDigest, BenchClusterFaultRunMatchesAcrossThreads)
{
    // The fault-injection subsystem rides the same byte-exactness
    // contract: a seeded fault run (crashes, retries, the degradation
    // ladder, the fault report table) is pinned, and the 4-lane run
    // must hash to the same digest as the one-lane run. Faults OFF is
    // covered by every digest above staying unchanged — the null test.
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0 --faults "
                              "--mtbf 40 --mttr 10";
    expectDigest("bench/bench_cluster", flags, 0x64c29f80073e442eull);
    expectDigest("bench/bench_cluster", flags + " --threads 4",
                 0x64c29f80073e442eull);
}

TEST(GoldenDigest, BenchClusterEdfChunkedPreemptFaultRun)
{
    // Chunked EDF prefill, preempt-and-requeue and fault re-dispatch
    // on a 4-device hetero fleet in one run: same-time requeues from
    // several devices, retries landing in the same rounds, and the
    // degradation ladder all interleave here. The run has preemptions
    // and 30 crashes under round-robin; 1 and 4 lanes must agree.
    const std::string flags =
        "--devices 4 --hetero --policy edf-chunked --chunk-tokens 64 "
        "--preempt --faults --mtbf 40 --mttr 10 --requests 24 "
        "--sweep 0 --study 0";
    expectDigest("bench/bench_cluster", flags + " --threads 1",
                 0x79cc0473fbf69817ull);
    expectDigest("bench/bench_cluster", flags + " --threads 4",
                 0x79cc0473fbf69817ull);
}

TEST(GoldenDigest, EdgeServerDefaultSession)
{
    expectDigest("examples/edge_server", "", 0x9852bb7d3bac4ca7ull);
}

TEST(GoldenDigest, EdgeServerTwoDeviceHeteroSession)
{
    // Multi-device narration: dispatch lines carry the round time, and
    // each device's lines run in time order. Lines from different
    // devices inside one lookahead window are not merged by time, so
    // this digest pins the window structure of the drive loop too.
    expectDigest("examples/edge_server",
                 "--devices 2 --hetero --dispatch join-shortest-kv",
                 0x8d0c0a15032438f4ull);
}

TEST(GoldenDigest, EdgeServerFaultSession)
{
    // The narrated fault session: crash, slowdown and pool-degrade
    // lines and their recoveries, the evictions, retries and the fault
    // report, on the default two-device fleet. Re-pinned once when a
    // crash warm-up's end stopped being a fault instant: it no longer
    // splits a lookahead window, so one dev1 line at t=538 s now
    // prints after dev0's lines of the same window. The sorted lines
    // are unchanged.
    expectDigest("examples/edge_server", "--devices 2 --faults",
                 0x3f385a28d475e17full);
}

// The Fig. 3, Fig. 13-16, Table 1 and Table 7-9 benches print the
// analytic model's paper tables; each runs in milliseconds and takes
// no flags. A change to the memory, decode, prefill or energy model
// that moves a printed figure fails here.

TEST(GoldenDigest, BenchFig3Motivation)
{
    // Prints the SRAM and eDRAM system variants of the motivation
    // study, including the unoptimized eDRAM system's refresh share.
    expectDigest("bench/bench_fig3_motivation", "",
                 0x3dfb093ccebb2efcull);
}

TEST(GoldenDigest, BenchTable1Memcmp)
{
    // Prints the 4 MB SRAM and eDRAM memory models field by field.
    expectDigest("bench/bench_table1_memcmp", "",
                 0xe737388dfdbae875ull);
}

TEST(GoldenDigest, BenchFig13EndToEnd)
{
    expectDigest("bench/bench_fig13_end2end", "", 0x0923b9df5bb85a35ull);
}

TEST(GoldenDigest, BenchFig14Accelerators)
{
    expectDigest("bench/bench_fig14_accelerators", "",
                 0x9da19583f3dbe889ull);
}

TEST(GoldenDigest, BenchFig15Ablation)
{
    expectDigest("bench/bench_fig15_ablation", "", 0xdc8a47c36298bb4eull);
}

TEST(GoldenDigest, BenchFig16Roofline)
{
    expectDigest("bench/bench_fig16_roofline", "", 0x02944c1e219f65feull);
}

TEST(GoldenDigest, BenchTable7BudgetEnergy)
{
    expectDigest("bench/bench_table7_budget_energy", "",
                 0x54bc484202b0f9e2ull);
}

TEST(GoldenDigest, BenchTable8RetentionEnergy)
{
    expectDigest("bench/bench_table8_retention_energy", "",
                 0x821d654e0693e3e0ull);
}

TEST(GoldenDigest, BenchTable9Batch)
{
    expectDigest("bench/bench_table9_batch", "", 0xcbbf37934a3727fcull);
}

/** Fold one double's bit pattern into an FNV-1a 64 state. */
void
fnvFold(std::uint64_t *h, double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
        *h ^= (bits >> (8 * i)) & 0xffu;
        *h *= 1099511628211ull;
    }
}

void
fnvFold(std::uint64_t *h, const accel::StepReport &r)
{
    fnvFold(h, r.latency.sec());
    for (const Energy e : {r.energy.rsa, r.energy.sfu, r.energy.weightSram,
                           r.energy.kvMem, r.energy.refresh, r.energy.dram,
                           r.energy.leakage})
        fnvFold(h, e.j());
    fnvFold(h, r.dramBytes);
    fnvFold(h, r.macs);
}

TEST(GoldenDigest, StepReportGrid)
{
    // Every field of the step-cost model's StepReports, bit for bit,
    // over a (system x model x shape) grid: decode steps at batch
    // B = 1..32 and B*4096 >= N >= 0 resident tokens in a stride that
    // is coprime to every B, and prefill chunks at deep and shallow
    // offsets. The systems cover every branch of the roofline, refresh
    // and eviction model: the five Fig. 13 systems, Over-recompute,
    // the software evictor, uniform and retention-floor refresh, INT4
    // KV, and the Fig. 14 comparators (NPU and sparse prefill, GPU
    // static power and DRAM efficiency). Pins the analytic model
    // independently of the serving digests above; a deliberate model
    // change re-records the constant from this test's failure message.
    std::vector<accel::SystemConfig> systems = {
        accel::originalSramSystem(), accel::originalEdramSystem(),
        accel::aepSramSystem(2048), accel::aerpSramSystem(2048),
        accel::kelleEdramSystem(2048)};
    const auto kelle = accel::kelleEdramSystem(2048);
    systems.push_back(kelle);
    systems.back().kv.recompute = accel::RecomputeMode::Over;
    systems.push_back(kelle);
    systems.back().kv.systolicEvictor = false;
    systems.push_back(kelle);
    systems.back().refresh.intervals =
        edram::RefreshIntervals::uniform(Time::millis(0.36));
    systems.push_back(kelle);
    systems.back().refresh.intervals =
        edram::RefreshIntervals::retentionFloor();
    systems.push_back(kelle);
    systems.back().kv.kvBits = 4;
    systems.push_back(accel::comparators::jetsonOrin());
    systems.push_back(accel::comparators::llmNpu());
    systems.push_back(accel::comparators::dynaX());

    std::uint64_t h = 14695981039346656037ull;
    std::size_t points = 0;
    for (const auto &m : {model::llama2_7b(), model::llama3_8b()}) {
        for (const auto &sys : systems) {
            for (std::size_t b = 1; b <= 32; ++b) {
                for (std::size_t n = 0; n <= b * 4096; n += 97) {
                    fnvFold(&h,
                            accel::simulateBatchedDecodeStep(sys, m, b, n));
                    ++points;
                }
            }
            for (const std::size_t off : {0, 1, 100, 1000, 4095, 8000})
                for (const std::size_t len : {1, 7, 64, 256, 1000, 4096}) {
                    fnvFold(&h,
                            accel::simulatePrefillChunk(sys, m, off, len));
                    ++points;
                }
        }
    }
    EXPECT_EQ(points, 581048u);
    EXPECT_EQ(h, 0x133c7a0b31c45f2full)
        << "step-cost grid drifted from the golden digest (got 0x"
        << std::hex << h << ")";
}

/** Read a whole file (empty string when unreadable). */
std::string
slurp(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(GoldenDigest, BenchClusterTraceFile)
{
    // The exported Perfetto trace is pinned exactly like the text
    // output: any byte drift in the event stream — an extra event, a
    // reordered track, a timestamp or formatting change — fails here.
    // The threaded run must produce the *same* trace file.
    const std::string path = std::string(KELLE_BIN_DIR) +
                             "/bench/bench_cluster";
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0";
    const std::uint64_t want = 0x68b05ea58c74dc73ull;
    for (const std::string threads : {" --threads 1", " --threads 4"}) {
        const std::string trace =
            std::string(::testing::TempDir()) + "/kelle_trace.json";
        std::remove(trace.c_str());
        int exit_code = 0;
        const std::string out = capture(
            path + " " + flags + threads + " --trace-out " + trace,
            &exit_code);
        ASSERT_EQ(exit_code, 0) << out;
        const std::string bytes = slurp(trace);
        ASSERT_FALSE(bytes.empty()) << "no trace written to " << trace;
        EXPECT_EQ(fnv1a64(bytes), want)
            << "trace bytes drifted (threads flag:" << threads
            << "). If the change is deliberate, re-record from this "
               "command's --trace-out file.";
        std::remove(trace.c_str());
    }
}

TEST(GoldenDigest, BenchClusterAttributionReport)
{
    // The attribution tables (latency waterfall + miss causes) ride
    // the same byte-exactness contract as the rest of the report:
    // one-lane and 4-lane runs must print identical bytes, pinned
    // against the recorded digest. Components are exact decompositions
    // of deterministic sim times, so a drift here means either a
    // simulation change (expected to fail the digests above too) or
    // an attribution regression (fails only here).
    // The overloaded config (tight pool, tight TPOT target) makes the
    // breakdown substantive: queue, kv-pressure, preempt and compute
    // causes all non-zero, preempt_loss carrying real requeue time.
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0 --preempt "
                              "--pool 3072 --rate 0.2 "
                              "--slo-tpot 0.15 --attribution";
    expectDigest("bench/bench_cluster", flags, 0x0987db4a3fe57e0eull);
    expectDigest("bench/bench_cluster", flags + " --threads 4",
                 0x0987db4a3fe57e0eull);
}

TEST(GoldenDigest, KelleTraceReportOnRecordedTrace)
{
    // End-to-end CLI pinning: record the preempt trace with
    // attribution (slo instants included), run `kelle_trace report`
    // over it, and hash the report. Covers the reader's event
    // taxonomy, the offline waterfall reconstruction and the report
    // formatting in one digest.
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string trace =
        std::string(::testing::TempDir()) + "/kelle_attr_trace.json";
    std::remove(trace.c_str());
    int exit_code = 0;
    std::string out = capture(
        bench + " --devices 2 --hetero --requests 12 --sweep 0 "
                "--study 0 --preempt --pool 3072 --rate 0.2 "
                "--slo-tpot 0.15 --attribution --trace-out " + trace,
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    out = capture(cli + " report " + trace, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    // The first line echoes the trace path (environment-dependent);
    // everything after it is the deterministic report body.
    const std::size_t body = out.find('\n');
    ASSERT_NE(body, std::string::npos) << out;
    const std::uint64_t got = fnv1a64(out.substr(body + 1));
    EXPECT_EQ(got, 0x05bb5aed71706c9bull)
        << "kelle_trace report output drifted (got 0x" << std::hex
        << got << ").\nIf the change is deliberate, re-record from "
           "`kelle_trace report` on the trace this test writes.";
    std::remove(trace.c_str());
}

TEST(GoldenDigest, KelleTraceReportOnFaultTrace)
{
    // Offline fault forensics: record a fault run's trace, run
    // `kelle_trace report` over it, and require the fault taxonomy to
    // survive the round-trip — a non-empty fault tally line and a
    // device_fault row in the miss-cause breakdown — plus the usual
    // byte pinning of the report body.
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string trace =
        std::string(::testing::TempDir()) + "/kelle_fault_trace.json";
    std::remove(trace.c_str());
    int exit_code = 0;
    std::string out = capture(
        bench + " --devices 2 --hetero --requests 12 --sweep 0 "
                "--study 0 --faults --mtbf 40 --mttr 10 "
                "--trace-out " + trace,
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    out = capture(cli + " report " + trace, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::size_t body = out.find('\n');
    ASSERT_NE(body, std::string::npos) << out;
    const std::string report = out.substr(body + 1);
    EXPECT_NE(report.find("faults: "), std::string::npos) << report;
    EXPECT_NE(report.find("device faults"), std::string::npos)
        << report;
    EXPECT_NE(report.find("device_fault"), std::string::npos)
        << "miss-cause breakdown lost the device_fault rows:\n"
        << report;
    const std::uint64_t got = fnv1a64(report);
    EXPECT_EQ(got, 0x491197445a6a213full)
        << "kelle_trace fault report drifted (got 0x" << std::hex
        << got << ").\nIf the change is deliberate, re-record from "
           "`kelle_trace report` on the trace this test writes.";
    std::remove(trace.c_str());
}

TEST(GoldenDigest, KelleTraceDiffThreadsIsEmpty)
{
    // The determinism contract as a user-visible CLI check: traces
    // recorded at --threads 1 and --threads 4 must byte-compare
    // identical (`kelle_trace diff` exits 0).
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0 --preempt "
                              "--pool 3072 --rate 0.2 "
                              "--slo-tpot 0.15 --attribution";
    std::string traces[2];
    int exit_code = 0;
    for (int t : {0, 1}) {
        traces[t] = std::string(::testing::TempDir()) +
                    "/kelle_diff_t" + (t == 0 ? "1" : "4") + ".json";
        std::remove(traces[t].c_str());
        const std::string out = capture(
            bench + " " + flags + " --threads " +
                (t == 0 ? "1" : "4") + " --trace-out " + traces[t],
            &exit_code);
        ASSERT_EQ(exit_code, 0) << out;
    }
    const std::string out =
        capture(cli + " diff " + traces[0] + " " + traces[1],
                &exit_code);
    EXPECT_EQ(exit_code, 0)
        << "threads 1 vs 4 traces diverge:\n" << out;
    EXPECT_NE(out.find("identical"), std::string::npos) << out;
    std::remove(traces[0].c_str());
    std::remove(traces[1].c_str());
}

/** Out-of-range flag values must end in exit 1 with a one-line
 *  message naming the flag, never a run on a silently clamped value
 *  (or, for a zero page size, UB and `-nan` tables). */
void
expectFlagRejected(const std::string &binary, const std::string &flags,
                   const std::string &flag)
{
    const std::string path = std::string(KELLE_BIN_DIR) + "/" + binary;
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    int status = 0;
    const std::string out = capture(path + " " + flags, &status);
    const std::string what = binary + " " + flags;
    ASSERT_TRUE(WIFEXITED(status)) << what << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << what << "\n" << out;
    EXPECT_NE(out.find(flag), std::string::npos) << what << "\n" << out;
    EXPECT_EQ(out.find('\n'), out.size() - 1)
        << what << ": expected exactly one line\n" << out;
}

TEST(HostileFlags, ZeroPageSizeIsRejected)
{
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --block-tokens 0", "--block-tokens");
    expectFlagRejected("bench/bench_serving",
                       "--paged --block-tokens 0 --requests 4 --sweep 0 "
                       "--study 0",
                       "--block-tokens");
}

TEST(HostileFlags, EmptyFleetOrBatchIsRejected)
{
    expectFlagRejected("bench/bench_cluster",
                       "--devices 0 --requests 4 --sweep 0 --study 0",
                       "--devices");
    expectFlagRejected("bench/bench_cluster",
                       "--maxbatch 0 --requests 4 --sweep 0 --study 0",
                       "--maxbatch");
}

TEST(HostileFlags, NonPositiveFaultTimesAreRejected)
{
    expectFlagRejected("bench/bench_cluster",
                       "--faults --mtbf 0 --requests 4 --sweep 0 "
                       "--study 0",
                       "--mtbf");
    expectFlagRejected("bench/bench_cluster",
                       "--faults --mttr -5 --requests 4 --sweep 0 "
                       "--study 0",
                       "--mttr");
    // edge_server aborted on a failed assertion (exit 134) here.
    expectFlagRejected("examples/edge_server", "--faults --mtbf 0",
                       "--mtbf");
    expectFlagRejected("examples/edge_server", "--faults --mttr -5",
                       "--mttr");
}

TEST(HostileFlags, UnsupportedKvQuantIsRejected)
{
    for (const char *bits : {"3", "-1", "16"})
        expectFlagRejected("bench/bench_serving",
                           std::string("--paged --kv-quant ") + bits +
                               " --requests 4 --sweep 0 --study 0",
                           "--kv-quant");
}

TEST(HostileFlags, NonPositiveOrNonFiniteRateIsRejected)
{
    // 0, -1 and nan used to trip an assertion in the request generator
    // (exit 134); inf ran silently with every arrival at t = 0.
    for (const char *rate : {"0", "-1", "nan", "inf"}) {
        const std::string flags = std::string("--rate ") + rate +
                                  " --requests 4 --sweep 0 --study 0";
        expectFlagRejected("bench/bench_serving", flags, "--rate");
        expectFlagRejected("bench/bench_cluster", flags, "--rate");
        expectFlagRejected("examples/edge_server",
                           std::string("--rate ") + rate, "--rate");
    }
}

TEST(HostileFlags, ServingZeroBatchCapIsRejected)
{
    expectFlagRejected("bench/bench_serving",
                       "--maxbatch 0 --requests 4 --sweep 0 --study 0",
                       "--maxbatch");
}

TEST(HostileFlags, PrefixFractionOutsideUnitIntervalIsRejected)
{
    for (const char *frac : {"1.5", "-0.5", "nan"})
        expectFlagRejected("bench/bench_serving",
                           std::string("--prefix-frac ") + frac +
                               " --sessions 2 --requests 4 --sweep 0 "
                               "--study 0",
                           "--prefix-frac");
}

TEST(HostileFlags, NegativeOrNanChunkSlackIsRejected)
{
    for (const char *slack : {"-1", "nan"}) {
        const std::string flags = std::string("--chunk-slack ") + slack +
                                  " --requests 4 --sweep 0 --study 0";
        expectFlagRejected("bench/bench_serving", flags, "--chunk-slack");
        expectFlagRejected("bench/bench_cluster", flags, "--chunk-slack");
    }
}

TEST(HostileFlags, RetryCountOutsideUint32IsRejected)
{
    // -1 used to wrap to 4,294,967,295 retries; 2^32 wrapped to 0.
    for (const char *n : {"-1", "4294967296"})
        expectFlagRejected("bench/bench_cluster",
                           std::string("--retries ") + n +
                               " --faults --requests 4 --sweep 0 "
                               "--study 0",
                           "--retries");
}

TEST(HostileFlags, ClientRetriesFlagIsUnknown)
{
    // Client retries were deleted: a floor the whole pool cannot hold
    // is rejected again on every resubmit, so the flag is gone. An
    // unknown flag exits 1 and prints the usage after its one line.
    for (const char *binary :
         {"bench/bench_serving", "examples/edge_server"}) {
        const std::string path =
            std::string(KELLE_BIN_DIR) + "/" + binary;
        if (!fileExists(path))
            GTEST_SKIP() << path << " not built";
        int status = 0;
        const std::string out =
            capture(path + " --client-retries 2", &status);
        ASSERT_TRUE(WIFEXITED(status)) << binary << "\n" << out;
        EXPECT_EQ(WEXITSTATUS(status), 1) << binary << "\n" << out;
        EXPECT_NE(out.find("unknown flag --client-retries\n"),
                  std::string::npos)
            << binary << "\n" << out;
    }
}

TEST(HostileFlags, NonFiniteSloScaleIsRejected)
{
    // nan deadlines made every SLO check false: 0.0% attainment.
    for (const char *scale : {"nan", "inf", "0"})
        expectFlagRejected("bench/bench_serving",
                           std::string("--slo-scale ") + scale +
                               " --requests 4 --sweep 0 --study 0",
                           "--slo-scale");
}

TEST(HostileFlags, MetricsIntervalOutsidePositiveFiniteIsRejected)
{
    // Each wrote a CSV with only the header row and exited 0.
    for (const char *interval : {"0", "-1", "nan"}) {
        const std::string flags =
            std::string("--metrics-interval ") + interval +
            " --metrics-out m.csv --requests 4 --sweep 0 --study 0";
        expectFlagRejected("bench/bench_serving", flags,
                           "--metrics-interval");
        expectFlagRejected("bench/bench_cluster", flags,
                           "--metrics-interval");
        expectFlagRejected("examples/edge_server",
                           std::string("--metrics-interval ") + interval +
                               " --metrics-out m.csv",
                           "--metrics-interval");
    }
}

TEST(HostileFlags, ZeroRequestsIsRejected)
{
    // An empty trace tripped an assertion in the request generator.
    expectFlagRejected("bench/bench_serving",
                       "--requests 0 --sweep 0 --study 0", "--requests");
    expectFlagRejected("bench/bench_cluster",
                       "--requests 0 --sweep 0 --study 0", "--requests");
    expectFlagRejected("examples/edge_server", "--requests 0",
                       "--requests");
}

TEST(HostileFlags, SimspeedNegativeRateIsRejected)
{
    expectFlagRejected("bench/bench_simspeed",
                       "--requests 4 --json /dev/null --rate -1", "--rate");
}

TEST(HostileFlags, ZeroDevicesIsRejectedNotClamped)
{
    // Both ran the session on one device.
    expectFlagRejected("bench/bench_simspeed",
                       "--requests 4 --json /dev/null --devices 0",
                       "--devices");
    expectFlagRejected("examples/edge_server", "--devices 0", "--devices");
}

TEST(HostileFlags, LongContextSharedPrefixAboveOneIsRejected)
{
    // Printed "infx" and "-2.00x" prefix-sharing multipliers.
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --prefix-frac 2", "--prefix-frac");
}

TEST(HostileFlags, LongContextWholeContextPrefixSaysUnbounded)
{
    // frac = 1 is in range: the table rows stay finite (S/N physical
    // tokens per logical one) and the limit note printed "infx".
    const std::string path =
        std::string(KELLE_BIN_DIR) + "/bench/bench_sec84_longcontext";
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    int status = 0;
    const std::string out =
        capture(path + " --paged --prefix-frac 1", &status);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 0) << out;
    EXPECT_EQ(out.find("infx"), std::string::npos) << out;
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    EXPECT_NE(out.find("grows without bound"), std::string::npos) << out;
    EXPECT_NE(out.find("4.00x"), std::string::npos) << out; // N = 4S
}

TEST(HostileFlags, LongContextPageLargerThanFreeDramIsRejected)
{
    // Printed "0 pages" and "-nanx" multipliers with exit 0; the
    // largest in-range value also overflowed the page's value count.
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --block-tokens 1000000000",
                       "--block-tokens");
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --block-tokens 9223372036854775807",
                       "--block-tokens");
}

TEST(HostileFlags, IntegerOverflowIsRejectedNotSaturated)
{
    // strtoll saturated to INT64_MAX: 0 pages and a "-nanx" multiplier.
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --block-tokens 99999999999999999999",
                       "--block-tokens");
    expectFlagRejected("bench/bench_serving",
                       "--requests 4 --sweep 0 --study 0 "
                       "--seed -99999999999999999999",
                       "--seed");
}

/** A numeric flag as `--help` lists it: `--name <int|num>  help
 *  (default D, RANGE)`. */
struct HelpFlag
{
    std::string name;
    bool integer = false;
    std::string range;
};

std::vector<HelpFlag>
numericFlags(const std::string &help)
{
    std::vector<HelpFlag> out;
    std::istringstream lines(help);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("  --", 0) != 0)
            continue;
        const std::size_t space = line.find(' ', 4);
        if (space == std::string::npos ||
            (line.compare(space + 1, 5, "<int>") != 0 &&
             line.compare(space + 1, 5, "<num>") != 0))
            continue;
        HelpFlag f{line.substr(4, space - 4),
                   line.compare(space + 1, 5, "<int>") == 0, "<none>"};
        const std::size_t def = line.rfind("(default ");
        const std::size_t comma = line.find(", ", def);
        if (def != std::string::npos && comma != std::string::npos &&
            line.back() == ')')
            f.range = line.substr(comma + 2, line.size() - comma - 3);
        out.push_back(f);
    }
    return out;
}

TEST(HostileFlags, EveryNumericFlagDeclaresARangeThatParseEnforces)
{
    // Values outside each range the parser knows, keyed by the range
    // text `--help` prints. An integer flag of any range also rejects
    // a value that overflows int64.
    const std::map<std::string, std::vector<std::string>> kHostile = {
        {"any value", {}},
        {"must be >= 0", {"-1"}},
        {"must be >= 1", {"0", "-3"}},
        {"must be in [0, 4294967295]", {"-1", "4294967296"}},
        {"must be a finite number > 0", {"0", "-1", "nan", "inf"}},
        {"must be a finite number >= 0", {"-1", "nan", "inf"}},
        {"must be a fraction in [0, 1]", {"-0.5", "1.5", "nan"}},
    };
    struct Binary
    {
        const char *path;
        /** Keeps a run short should a hostile value get through. */
        const char *quick;
        /** The flags that accept any value: seeds. */
        std::set<std::string> any;
    };
    const std::vector<Binary> binaries = {
        {"bench/bench_serving", "--requests 4 --sweep 0 --study 0",
         {"seed"}},
        {"bench/bench_cluster", "--requests 4 --sweep 0 --study 0",
         {"seed"}},
        {"bench/bench_simspeed", "--requests 4 --json /dev/null",
         {"seed"}},
        {"bench/bench_sec84_longcontext", "--paged", {}},
        {"bench/bench_table2_accuracy", "", {"seed"}},
        {"examples/edge_server", "", {"seed"}},
    };
    for (const Binary &b : binaries) {
        const std::string path = std::string(KELLE_BIN_DIR) + "/" + b.path;
        if (!fileExists(path))
            continue; // not built, as the other cases skip
        int status = 0;
        const std::string help = capture(path + " --help", &status);
        ASSERT_EQ(status, 0) << help;
        const std::vector<HelpFlag> flags = numericFlags(help);
        EXPECT_FALSE(flags.empty()) << b.path << " lists no numeric flag";
        std::set<std::string> any;
        for (const HelpFlag &f : flags) {
            const auto it = kHostile.find(f.range);
            ASSERT_NE(it, kHostile.end())
                << b.path << " --" << f.name << ": unknown range '"
                << f.range << "'";
            if (f.range == "any value")
                any.insert(f.name);
            std::vector<std::string> values = it->second;
            if (f.integer)
                values.push_back("99999999999999999999");
            for (const std::string &v : values)
                expectFlagRejected(b.path,
                                   std::string(b.quick) + " --" +
                                       f.name + " " + v,
                                   "--" + f.name);
        }
        EXPECT_EQ(any, b.any)
            << b.path << ": a numeric flag other than a seed accepts "
                         "any value; declare its range in addInt/"
                         "addDouble";
    }
}

/** Run `flags` with stdout discarded: exit 1 and exactly one stderr
 *  line naming `path` (edge_server also narrates on stderr, so there
 *  only the count of lines naming the path is held to one). */
void
expectWriteFails(const std::string &binary, const std::string &flags,
                 const std::string &path, bool narrated)
{
    const std::string bin = std::string(KELLE_BIN_DIR) + "/" + binary;
    if (!fileExists(bin))
        GTEST_SKIP() << bin << " not built";
    int status = 0;
    const std::string err =
        capture("( " + bin + " " + flags + " 2>&1 >/dev/null )", &status);
    const std::string what = binary + " " + flags;
    ASSERT_TRUE(WIFEXITED(status)) << what << "\n" << err;
    EXPECT_EQ(WEXITSTATUS(status), 1) << what << "\n" << err;
    std::istringstream lines(err);
    std::string line;
    std::size_t naming = 0;
    std::size_t total = 0;
    while (std::getline(lines, line)) {
        ++total;
        naming += line.find(path) != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(naming, 1u) << what << "\n" << err;
    if (!narrated) {
        EXPECT_EQ(total, 1u) << what << "\n" << err;
    }
}

TEST(HostileFlags, FailedWritesFailTheRun)
{
    // The runs used to exit 0 (bench_serving and bench_cluster said
    // nothing; bench_simspeed said "cannot write" and carried on).
    const std::string dir =
        std::string(::testing::TempDir()) + "/kelle_no_such_dir/d";
    const std::string csv = dir + "/m.csv";
    const std::string json = dir + "/t.json";
    const std::string quick = "--requests 4 --sweep 0 --study 0 ";
    for (const char *bench : {"bench/bench_serving", "bench/bench_cluster"}) {
        expectWriteFails(bench, quick + "--metrics-out " + csv, csv, false);
        expectWriteFails(bench, quick + "--trace-out " + json, json, false);
    }
    expectWriteFails("examples/edge_server", "--metrics-out " + csv, csv,
                     true);
    expectWriteFails("examples/edge_server",
                     "--devices 2 --trace-out " + json, json, true);
    expectWriteFails("bench/bench_simspeed", "--requests 4 --json " + json,
                     json, false);
}

TEST(HostileFlags, SimspeedUnwritableJsonFailsBeforeTheSweep)
{
    // The path used to be opened after every cell had been timed; now
    // the run stops before its banner, with the one error line.
    const std::string json = std::string(::testing::TempDir()) +
                             "/kelle_no_such_dir/d/s.json";
    expectFlagRejected("bench/bench_simspeed",
                       "--requests 4 --json " + json,
                       "cannot write " + json);
}

TEST(HostileFlags, MetricsGridOverTheRowLimitFailsTheRun)
{
    // A 1e-12 s interval asked sample() for ~3e15 rows: std::bad_alloc.
    const std::string csv =
        std::string(::testing::TempDir()) + "/kelle_tiny_interval.csv";
    std::remove(csv.c_str());
    expectWriteFails("bench/bench_serving",
                     "--requests 4 --sweep 0 --study 0 --metrics-out " +
                         csv + " --metrics-interval 1e-12",
                     csv, false);
    EXPECT_FALSE(fileExists(csv));
}

} // namespace
