/**
 * @file
 * Section 8.4.1 reproduction: maximum supported input length for
 * LLaMA2-7B on the 16 GB device — full fp16 cache, AERP layer-wise
 * release, and AERP + 4-bit KV — against the paper's ~19K / ~60K /
 * ~240K token walk-through.
 *
 * `--paged` adds the paged KV pool axis (ISSUE 8): the same free DRAM
 * carved into fixed-size token pages at fp16/INT8/INT4 page precision
 * (tensor::quantizedStoreBytes accounts the per-group scale/zero
 * metadata), plus the steady-state resident-token multiplier that
 * copy-free prefix sharing adds on top for multi-turn sessions.
 */

#include <cstdio>
#include <string>

#include "accel/capacity.hpp"
#include "bench_util.hpp"
#include "common/arg_parser.hpp"
#include "common/table.hpp"
#include "tensor/quant.hpp"

using namespace kelle;
using namespace kelle::accel;

int
main(int argc, char **argv)
{
    common::ArgParser args("bench_sec84_longcontext",
                           "Section 8.4.1 long-context capacity");
    args.addBool("paged", false,
                 "add the paged KV pool capacity axis (page-granular "
                 "pool + shared-prefix multiplier)");
    args.addInt("block-tokens", 64, "paged axis: tokens per KV page",
                common::IntRange::AtLeastOne);
    args.addInt("sessions", 8,
                "paged axis: concurrent sessions sharing one system "
                "prompt each",
                common::IntRange::AtLeastOne);
    args.addDouble("prefix-frac", 0.5,
                   "paged axis: fraction of each context covered by "
                   "the shared session prefix",
                   common::NumRange::UnitFraction);
    if (!args.parse(argc, argv))
        return args.exitCode();

    const auto m = model::llama2_7b();
    CapacitySpec full;
    const auto r1 = maxSupportedTokens(m, full);
    // The paged axis needs at least one fp16 page in the free DRAM
    // (the INT8/INT4 pages are smaller); sized in double so no block
    // count can wrap.
    if (args.getBool("paged")) {
        const double fp16_page = static_cast<double>(
                                     args.getInt("block-tokens")) *
                                 m.kvBytesPerToken(16);
        if (fp16_page > r1.freeBytes) {
            std::fprintf(stderr,
                         "bench_sec84_longcontext: --block-tokens %lld "
                         "makes a %.4g GiB fp16 page, larger than the "
                         "%.4g GiB of free DRAM\n",
                         static_cast<long long>(
                             args.getInt("block-tokens")),
                         fp16_page / (1024.0 * 1024.0 * 1024.0),
                         r1.freeBytes / (1024.0 * 1024.0 * 1024.0));
            return 1;
        }
    }

    bench::banner("Section 8.4.1: long-context capacity on 16 GB DRAM "
                  "(LLaMA2-7B, 8-bit weights)");

    Table t({"configuration", "peak B/token", "max tokens", "paper"});

    t.addRow({"full fp16 KV cache",
              Table::num(r1.bytesPerTokenPeak / 1024, 1) + " KiB",
              std::to_string(r1.maxTokens), "~19,000"});

    CapacitySpec aerp = full;
    aerp.aerpLayerwise = true;
    aerp.budget = 2048;
    const auto r2 = maxSupportedTokens(m, aerp);
    t.addRow({"AERP layer-wise release",
              Table::num(r2.bytesPerTokenPeak / 1024, 1) + " KiB",
              std::to_string(r2.maxTokens), "~60,000"});

    CapacitySpec quant = aerp;
    quant.kvBits = 4;
    const auto r3 = maxSupportedTokens(m, quant);
    t.addRow({"AERP + 4-bit KV",
              Table::num(r3.bytesPerTokenPeak / 1024, 1) + " KiB",
              std::to_string(r3.maxTokens), "~240,000"});
    t.print();

    std::printf("weights: %.2f GB of %.0f GB DRAM\n",
                r1.weightBytes / 1e9, 16.0 * 1.074);
    bench::note("paper: 19K tokens without AERP, ~60K with AERP's "
                "immediate per-layer reduction, ~240K with 4-bit KV "
                "quantization on top");

    // ---- paged axis: the free DRAM as a page pool ---------------------
    if (args.getBool("paged")) {
        const std::size_t block = args.getSize("block-tokens");
        const double values_per_token = m.kvBytesPerToken(16) / 2.0;
        bench::banner(
            "Paged KV pool: free DRAM as " + std::to_string(block) +
            "-token pages (group-quantized page storage)");

        Table p({"page precision", "bytes/page", "pages",
                 "resident tokens", "vs fp16"});
        std::size_t tokens16 = 0;
        for (int bits : {16, 8, 4}) {
            const double bytes_per_page = tensor::quantizedStoreBytes(
                static_cast<std::size_t>(values_per_token) * block,
                bits, 32);
            const auto pages = static_cast<std::size_t>(
                r1.freeBytes / bytes_per_page);
            const std::size_t tokens = pages * block;
            if (bits == 16)
                tokens16 = tokens;
            p.addRow({bits == 16 ? "fp16"
                                 : "INT" + std::to_string(bits),
                      Table::num(bytes_per_page / 1024, 1) + " KiB",
                      std::to_string(pages), std::to_string(tokens),
                      Table::mult(static_cast<double>(tokens) /
                                  static_cast<double>(tokens16))});
        }
        p.print();

        // Copy-free prefix sharing on top: with S sessions each
        // holding one request whose first `frac` of context is the
        // session prompt stored once, every additional same-session
        // turn only pays the (1 - frac) unique tail. In steady state
        // with N resident requests the logical-resident multiplier is
        //   N*L / ((1-frac)*N*L + frac*S*L) = 1 / (1-frac + frac*S/N).
        const std::size_t sessions = args.getSize("sessions");
        const double frac = args.getDouble("prefix-frac");
        Table s({"resident turns", "physical tokens per logical",
                 "shared multiplier"});
        for (std::size_t n : {sessions, 2 * sessions, 4 * sessions}) {
            const double phys =
                (1.0 - frac) +
                frac * static_cast<double>(sessions) /
                    static_cast<double>(n);
            s.addRow({std::to_string(n), Table::num(phys, 2),
                      Table::mult(1.0 / phys)});
        }
        s.print();
        // With the whole context shared, every turn past a session's
        // first is free: 1/(1-frac) has no finite value to print.
        const std::string limit =
            frac < 1.0 ? "approaches 1/(1-frac) = " +
                             Table::mult(1.0 / (1.0 - frac))
                       : "grows without bound (1/(1-frac) at frac = 1)";
        bench::note(
            std::to_string(sessions) + " sessions, " +
            Table::pct(frac) +
            " of each context in the shared prompt: the multiplier " +
            limit +
            " as turns accumulate — on top of the INT8/INT4 page "
            "packing above");
    }
    return 0;
}
