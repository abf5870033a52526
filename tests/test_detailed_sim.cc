/**
 * @file
 * Detailed-simulator tests: the cycle-level model must respect
 * dependences, bandwidth, and parallelism, and must be usable for
 * simulating selected intervals.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/detailed_validator.hh"
#include "gpu/detailed_checkpoint.hh"
#include "gpu/detailed_sim.hh"
#include "gpu/eu_pipeline.hh"
#include "isa/builder.hh"
#include "sched/thread_pool.hh"
#include "workloads/templates.hh"
#include "workloads/workload.hh"

namespace gt::gpu
{
namespace
{

using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

class DetailedSimTest : public ::testing::Test
{
  protected:
    DetailedSimTest()
        : config(DeviceConfig::hd4000()), memory(16 << 20),
          exec(config, memory)
    {}

    KernelBinary
    chainKernel(bool dependent)
    {
        KernelBuilder b(dependent ? "dep" : "indep", 0);
        Reg c = b.reg();
        std::vector<Reg> regs;
        for (int i = 0; i < 8; ++i)
            regs.push_back(b.reg());
        b.beginLoop(c, imm(200));
        for (int i = 0; i < 8; ++i) {
            if (dependent) {
                // Serial chain through one register.
                b.fmul(regs[0], regs[0], regs[0], 8);
            } else {
                // Independent streams.
                b.fmul(regs[(size_t)i], regs[(size_t)i],
                       regs[(size_t)i], 8);
            }
        }
        b.endLoop();
        b.halt();
        return b.finish();
    }

    DeviceConfig config;
    DeviceMemory memory;
    Executor exec;
};

TEST_F(DetailedSimTest, ProducesPositiveResult)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, d);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.simulatedInstrs, 0u);
    EXPECT_GT(r.spi, 0.0);
}

TEST_F(DetailedSimTest, DependencyChainsAreSlower)
{
    KernelBinary dep = chainKernel(true);
    KernelBinary indep = chainKernel(false);
    Dispatch d;
    d.globalSize = 16; // one thread per EU wave: no SMT hiding
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    d.binary = &dep;
    double t_dep = sim.simulate(exec, d).cycles;
    d.binary = &indep;
    double t_indep = sim.simulate(exec, d).cycles;
    EXPECT_GT(t_dep, t_indep * 1.2);
}

TEST_F(DetailedSimTest, SmtHidesLatency)
{
    KernelBinary dep = chainKernel(true);
    Dispatch one;
    one.binary = &dep;
    one.globalSize = 16; // 1 hardware thread
    one.simdWidth = 16;
    Dispatch many = one;
    many.globalSize = 16 * 8 * 16; // all SMT contexts busy

    DetailedSimulator sim(config);
    double spi_one = sim.simulate(exec, one).spi;
    double spi_many = sim.simulate(exec, many).spi;
    // Per-instruction cost drops when SMT can interleave threads.
    EXPECT_LT(spi_many, spi_one);
}

TEST_F(DetailedSimTest, MoreEusScaleThroughput)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1 << 16;
    d.simdWidth = 16;

    DetailedSimulator ivb(DeviceConfig::hd4000(), 1150.0);
    DetailedSimulator hsw(DeviceConfig::hd4600(), 1150.0);
    double t_ivb = hsw.simulate(exec, d).seconds;
    double t_hsw = ivb.simulate(exec, d).seconds;
    // 20 EUs vs 16 EUs at matched clocks.
    EXPECT_LT(t_ivb, t_hsw);
}

TEST_F(DetailedSimTest, MemoryTrafficCostsCycles)
{
    workloads::TemplateJit jit;
    isa::KernelSource heavy_src;
    heavy_src.name = "mem_heavy";
    heavy_src.templateName = "reduce";
    heavy_src.params = {64, 0xffff, 16};
    KernelBinary heavy = jit.compile(heavy_src);

    isa::KernelSource light_src;
    light_src.name = "mem_light";
    light_src.templateName = "stress";
    light_src.params = {8, 8, 16};
    KernelBinary light = jit.compile(light_src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch dh;
    dh.binary = &heavy;
    dh.globalSize = 1024;
    dh.simdWidth = 16;
    dh.args = {base, base};

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, dh);
    // A gather-heavy kernel must show SPI well above the ~1-cycle
    // ALU ideal.
    double cycles_per_instr = r.cycles /
        ((double)r.simulatedInstrs *
         ((double)dh.numThreads() /
          (double)config.totalHwThreads()));
    EXPECT_GT(cycles_per_instr, 0.0);
    (void)light;
}

TEST_F(DetailedSimTest, DetailedSimIsSlowerThanProfiling)
{
    // The motivation for the whole paper: walking instructions in
    // detail costs orders of magnitude more host work than the fast
    // profiling path. We check the structural fact that the detailed
    // simulator walks (simulates) every instruction of a wave while
    // fast profiling executes only the control slice of one thread.
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "slow";
    src.templateName = "julia";
    src.params = {64, 16};
    KernelBinary bin = jit.compile(src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    d.args = {base, 0x3f000000u, 0x3e000000u};

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, d);
    isa::Relevance rel = isa::analyzeRelevance(bin);
    // Instructions walked in detail exceed the relevant (fast-mode)
    // fraction by a wide margin.
    EXPECT_GT((double)r.simulatedInstrs,
              8.0 * (double)rel.relevantCount);
}

TEST_F(DetailedSimTest, CheckpointMatchesLegacyPath)
{
    // The one-shot entry point is defined as checkpoint-then-replay;
    // building the checkpoint explicitly must give the same bits.
    KernelBinary bin = chainKernel(true);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    DetailedCheckpoint cp = exec.checkpoint(d);
    DetailedResult via_cp = sim.simulate(cp);
    DetailedResult legacy = sim.simulate(exec, d);
    EXPECT_EQ(legacy.cycles, via_cp.cycles);
    EXPECT_EQ(legacy.seconds, via_cp.seconds);
    EXPECT_EQ(legacy.spi, via_cp.spi);
    EXPECT_EQ(legacy.simulatedInstrs, via_cp.simulatedInstrs);
}

TEST_F(DetailedSimTest, ClampsContextsToDispatchThreads)
{
    // A dispatch with fewer hardware threads than SMT contexts must
    // replay only the threads it has: 1 thread issues exactly the
    // traced instructions, 8 threads per EU issue 8x.
    KernelBinary bin = chainKernel(false);
    Dispatch one;
    one.binary = &bin;
    one.globalSize = 16; // one hardware thread total
    one.simdWidth = 16;
    Dispatch full = one;
    full.globalSize = 16ull * config.threadsPerEu * config.numEus;

    DetailedCheckpoint cp1 = exec.checkpoint(one);
    DetailedCheckpoint cp8 = exec.checkpoint(full);
    ASSERT_EQ(cp1.numThreads, 1u);
    ASSERT_EQ(cp8.numThreads,
              (uint64_t)config.threadsPerEu * config.numEus);
    ASSERT_EQ(cp1.tracedInstrs, cp8.tracedInstrs);

    DetailedSimulator sim(config);
    EXPECT_EQ(sim.simulate(cp1).simulatedInstrs, cp1.tracedInstrs);
    EXPECT_EQ(sim.simulate(cp8).simulatedInstrs,
              config.threadsPerEu * cp8.tracedInstrs);
}

TEST_F(DetailedSimTest, TruncatedTraceScalesCycles)
{
    // Capping the block trace below the kernel's dynamic length must
    // record the shortfall and scale the replayed cycles by exactly
    // the truncation factor.
    KernelBinary bin = chainKernel(true);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedCheckpoint full = exec.checkpoint(d);
    DetailedCheckpoint cut = exec.checkpoint(d, 16);
    ASSERT_GT(cut.truncation, 1.0);
    EXPECT_GT(cut.truncation, full.truncation);
    ASSERT_LT(cut.trace.size(), full.trace.size());

    DetailedSimulator sim(config);
    DetailedCheckpoint unscaled = cut;
    unscaled.truncation = 1.0;
    EXPECT_DOUBLE_EQ(sim.simulate(cut).cycles,
                     sim.simulate(unscaled).cycles *
                         cut.truncation);
}

TEST_F(DetailedSimTest, SingleBlockKernel)
{
    // No control flow at all: the trace is one block and the traced
    // instruction count is that block's size.
    KernelBuilder b("straightline", 0);
    Reg r = b.reg();
    for (int i = 0; i < 6; ++i)
        b.fmul(r, r, r, 8);
    b.halt();
    KernelBinary bin = b.finish();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 256;
    d.simdWidth = 16;

    DetailedCheckpoint cp = exec.checkpoint(d);
    ASSERT_EQ(cp.trace.size(), 1u);
    EXPECT_EQ(cp.tracedInstrs,
              bin.blocks[cp.trace[0]].instrs.size());

    DetailedResult r2 = DetailedSimulator(config).simulate(cp);
    EXPECT_GT(r2.cycles, 0.0);
    EXPECT_GT(r2.simulatedInstrs, 0u);
}

TEST_F(DetailedSimTest, MathOpsCostMoreThanAlu)
{
    // Same dependent chain shape, different latency class: the
    // extended-math pipe (fdiv) must be slower than the ALU (fmul)
    // when SMT cannot hide the chain.
    auto chain = [](bool math) {
        KernelBuilder b(math ? "math" : "alu", 0);
        Reg c = b.reg();
        Reg r = b.reg();
        b.beginLoop(c, imm(100));
        for (int i = 0; i < 4; ++i) {
            if (math)
                b.fdiv(r, r, r, 8);
            else
                b.fmul(r, r, r, 8);
        }
        b.endLoop();
        b.halt();
        return b.finish();
    };
    KernelBinary alu = chain(false);
    KernelBinary math = chain(true);

    Dispatch d;
    d.globalSize = 16; // one thread: expose the raw latencies
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    d.binary = &alu;
    double alu_cycles = sim.simulate(exec, d).cycles;
    d.binary = &math;
    double math_cycles = sim.simulate(exec, d).cycles;
    EXPECT_GT(math_cycles, alu_cycles * 1.5);
}

TEST_F(DetailedSimTest, CheckpointStoreMemoizes)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;
    d.args = {1, 2, 3};

    CheckpointStore store;
    const DetailedCheckpoint &a = store.get(exec, d, 7);
    const DetailedCheckpoint &b = store.get(exec, d, 7);
    EXPECT_EQ(&a, &b); // stable reference, no rebuild
    EXPECT_EQ(store.builds(), 1u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.size(), 1u);

    Dispatch other = d;
    other.args = {1, 2, 4};
    const DetailedCheckpoint &c = store.get(exec, other, 7);
    EXPECT_NE(&a, &c); // distinct args -> distinct checkpoint
    EXPECT_EQ(store.builds(), 2u);
    EXPECT_NE(dispatchArgsHash(d.args),
              dispatchArgsHash(other.args));
}

TEST_F(DetailedSimTest, SerialParallelBitwiseAcrossDesignPoints)
{
    // The fig8 replay matrix collapses to 7 distinct design points
    // for the cycle model (noise seeds do not enter it): the
    // profiling clock, the 5-step frequency sweep, and the next
    // generation. At each, the machine layer on 4-wide and
    // hardware-width pools must match the width-1 pool (the serial
    // oracle) bit for bit — for raw replay cells and for whole
    // validation reports.
    KernelBinary dep = chainKernel(true);
    KernelBinary indep = chainKernel(false);
    std::vector<DetailedCheckpoint> cps;
    for (KernelBinary *bin : {&dep, &indep}) {
        for (uint64_t global : {16ull, 1024ull, 1ull << 16}) {
            Dispatch d;
            d.binary = bin;
            d.globalSize = global;
            d.simdWidth = 16;
            cps.push_back(exec.checkpoint(d));
        }
    }
    std::vector<const DetailedCheckpoint *> cells;
    for (const DetailedCheckpoint &cp : cps)
        cells.push_back(&cp);

    struct Point
    {
        DeviceConfig config;
        double freqMhz;
    };
    std::vector<Point> points{{DeviceConfig::hd4000(), 0.0},
                              {DeviceConfig::hd4600(), 0.0}};
    for (double f : {1000.0, 850.0, 700.0, 550.0, 350.0})
        points.push_back({DeviceConfig::hd4000(), f});

    sched::ThreadPool pool1(1), pool4(4);
    std::vector<sched::ThreadPool *> pools{
        &pool4, &sched::ThreadPool::global()};

    for (const Point &pt : points) {
        DetailedSimulator sim(pt.config, pt.freqMhz);
        std::vector<DetailedResult> want =
            sim.simulateBatch(cells, &pool1);
        for (sched::ThreadPool *pool : pools) {
            std::vector<DetailedResult> got =
                sim.simulateBatch(cells, pool);
            ASSERT_EQ(want.size(), got.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(want[i].cycles, got[i].cycles);
                EXPECT_EQ(want[i].seconds, got[i].seconds);
                EXPECT_EQ(want[i].spi, got[i].spi);
                EXPECT_EQ(want[i].simulatedInstrs,
                          got[i].simulatedInstrs);
            }
        }
    }

    setLogQuiet(true);
    core::ProfiledApp app = core::profileApp(
        *workloads::findWorkload("cb-histogram-buffer"));
    core::SubsetSelection sel = core::selectSubset(
        app.db, core::IntervalScheme::SyncBounded, core::FeatureKind::BB);
    core::DetailedValidator serial(app, &pool1);
    for (sched::ThreadPool *pool : pools) {
        core::DetailedValidator wide(app, pool);
        for (const Point &pt : points) {
            core::DesignPoint dp{pt.config, pt.freqMhz};
            core::DetailedValidator::Report want =
                serial.validate(sel, dp);
            core::DetailedValidator::Report got = wide.validate(sel, dp);
            EXPECT_EQ(want.fullSpi, got.fullSpi);
            EXPECT_EQ(want.projectedSpi, got.projectedSpi);
            EXPECT_EQ(want.errorPct, got.errorPct);
            EXPECT_EQ(want.fullWalked, got.fullWalked);
            EXPECT_EQ(want.subsetWalked, got.subsetWalked);
        }
    }
    setLogQuiet(false);
}

} // anonymous namespace
} // namespace gt::gpu
