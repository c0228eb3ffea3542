/**
 * @file
 * Golden-digest regression tier: the full text output (stdout +
 * stderr) of the serving/cluster benches and the edge_server example
 * on a small deterministic config is hashed (FNV-1a 64) against a
 * checked-in digest. Any future perf work that perturbs a single
 * byte of the simulation's observable results — a latency, an energy
 * figure, a percentile, a log line — fails here in tier 1 rather
 * than surfacing as a silent result drift.
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
 * The HostileFlags suite drives the same binaries with out-of-range
 * flag values and requires a clean one-line error exit.
 *
 * Binaries are located through KELLE_BIN_DIR (the CMake binary dir,
 * injected by tests/CMakeLists.txt); a test skips when its binary was
 * not built (e.g. -DKELLE_BUILD_BENCH=OFF).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>

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
    expectDigest("bench/bench_serving",
                 "--paged --sessions 4 --rate 0.05 --requests 16 "
                 "--policy contbatch --sweep 0 --study 0",
                 0xce1d383c8662791eull);
}

TEST(GoldenDigest, BenchServingPagedAdmissionPressure)
{
    // A 6000-token paged pool (93 pages) KV-blocks waiters often
    // enough that admission pressure clamps the running budgets
    // (clampRunningBudgets): the clamp moves this digest, both the
    // headline row and the paged rows' clip counts, so the only
    // pressure response the paged pool has left is pinned here.
    expectDigest("bench/bench_serving",
                 "--paged --sessions 4 --pool 6000 --rate 0.05 "
                 "--requests 16 --policy contbatch --sweep 0 --study 0",
                 0xd28f6dd5f6617e78ull);
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
    const std::uint64_t want = 0xc881545f5a9a4130ull;
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
    expectDigest("bench/bench_cluster", flags, 0x2e8705693d5ceea0ull);
    expectDigest("bench/bench_cluster", flags + " --threads 4",
                 0x2e8705693d5ceea0ull);
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
    EXPECT_EQ(got, 0xc4fa211fcb331ae5ull)
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
    EXPECT_EQ(got, 0xc9977284943c2a91ull)
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
    }
}

TEST(HostileFlags, ServingZeroBatchCapIsRejected)
{
    expectFlagRejected("bench/bench_serving",
                       "--maxbatch 0 --requests 4 --sweep 0 --study 0",
                       "--maxbatch");
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

} // namespace
