#include "accel/comparators.hpp"

namespace kelle {
namespace accel {
namespace comparators {

namespace {

/** Shared GPU-like platform: Orin-class memory system and SM array. */
TechnologyConfig
gpuTech()
{
    TechnologyConfig t;
    // Emulate ~21 INT8/FP8 TOPS of sustained tensor-core throughput
    // with a wide virtual array; GPUs pay more energy per MAC and per
    // on-chip byte than a dedicated systolic design.
    t.rsa.rows = 128;
    t.rsa.cols = 40;
    t.rsa.clockHz = 1.0e9;
    // Measured edge-GPU serving stacks sustain ~35% of tensor-core
    // peak on transformer kernels (decode GEMV is far worse; prefill
    // GEMM better — 0.35 is the blended figure).
    t.rsa.utilization = 0.35;
    t.rsa.macEnergy = Energy::picos(0.9);
    // L2-like on-chip storage, SRAM, 4 MB.
    t.kvMemory = mem::sram(Bytes::mib(4), Bandwidth::gibPerSec(512));
    t.actBuffer = mem::sram(Bytes::kib(512), Bandwidth::gibPerSec(512));
    // Orin-class LPDDR5: ~102 GB/s.
    t.dram = mem::MemoryModel("lpddr5", Bytes::gib(16),
                              Bandwidth::gibPerSec(102),
                              Time::nanos(90),
                              EnergyPerByte::picojoules(130.0),
                              Power::watts(1.2), Area::mm2(20.0));
    t.weightBits = 8; // FP8 weights
    // Stock serving stacks on edge GPUs sustain ~40% of peak DRAM
    // bandwidth on decode traffic (nvidia-smi-measured 7B token rates
    // imply 35-50%), and the SoC burns several watts of uncore power.
    t.dramEfficiency = 0.40;
    t.socStaticPower = Power::watts(4.0);
    return t;
}

SystemConfig
gpuBase(const char *name)
{
    SystemConfig s;
    s.name = name;
    s.tech = gpuTech();
    s.scheduler = SchedulerKind::Kelle; // GPUs overlap copy/compute
    s.kv.evict = false;
    s.kv.recompute = RecomputeMode::None;
    s.kv.systolicEvictor = false;
    return s;
}

} // namespace

SystemConfig
jetsonOrin()
{
    return gpuBase("Jetson");
}

SystemConfig
llmNpu()
{
    SystemConfig s = gpuBase("LLM.npu");
    // Fast On-device LLM Inference with NPUs: prompt processing is
    // offloaded to the NPU (multi-x prefill gains) and the NPU's DMA
    // engines stream weights more efficiently than the GPU stack.
    s.prefillComputeSpeedup = 3.0;
    s.tech.dramEfficiency = 0.60;
    return s;
}

SystemConfig
dynaX()
{
    SystemConfig s = gpuBase("DynaX");
    // X:M structured pruning reaches ~90% attention sparsity during
    // pre-filling (ASPLOS'25), with a dedicated sparse-attention unit.
    s.prefillAttnSparsity = 0.9;
    s.prefillComputeSpeedup = 1.5;
    s.tech.dramEfficiency = 0.65;
    return s;
}

SystemConfig
comet()
{
    SystemConfig s = gpuBase("COMET");
    // W4A4KV4-class kernels configured as in the paper's comparison:
    // 8-bit weights, 4-bit KV for an iso KV-cache budget vs Kelle.
    // COMET's mixed-precision kernels raise compute-side efficiency;
    // decode DRAM efficiency stays GPU-class, so its gain over Jetson
    // tracks the 4x KV compression (the paper's 2.1-4.5x pattern).
    s.kv.kvBits = 4;
    s.tech.rsa.utilization = 0.5;
    // COMET reports ~1.8-2.8x over FP16 GPU baselines; its packed
    // 4-bit accesses keep decode DRAM efficiency GPU-class.
    s.tech.dramEfficiency = 0.37;
    return s;
}

} // namespace comparators
} // namespace accel
} // namespace kelle
