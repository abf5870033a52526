/**
 * @file
 * Differential tests between the executor and the scalar reference
 * interpreter (tests/reference).
 *
 * The executor (predecoded micro-ops with superblock chaining) must
 * be observationally indistinguishable from the reference switch
 * interpreter: bitwise-identical ExecProfiles (including
 * threadCycles, which is a double and therefore sensitive to FP
 * summation order), identical trace-buffer deltas for instrumented
 * binaries, identical block traces (including truncation points),
 * and identical memory contents after Full-mode runs. The matrix
 * covers every kernel template under {reference,executor} x
 * {Full,Fast} x {plain,instrumented}, plus (GangDiff) the same with
 * distinct per-argument buffers at thread counts from 1 to 24, a
 * shared aliased buffer, batched memory-trace delivery (record order
 * and chunk boundaries), executor reuse across back-to-back
 * dispatches and the plan's Fast-mode verdict. Hand-built kernels
 * add control divergence at the first and the last superblock,
 * cross-thread stores to one address and a SIMD-8 dispatch of SIMD-16
 * sends.
 *
 * Also covered here: the plan-cache generation id (satellite fix — a
 * new binary at a recycled address must not reuse the stale plan) and
 * the soundness of the reset elision (registers outside a kernel's
 * read-set and untouched local memory are skipped during reset, which
 * must be invisible even when consecutive dispatches share the
 * executor's reusable thread context).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec_pair.hh"
#include "gtpin/rewriter.hh"
#include "isa/builder.hh"
#include "workloads/templates.hh"

namespace gt::gpu
{
namespace
{

using gtpin::Instrumenter;
using gtpin::SlotAllocator;
using isa::Flag;
using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

constexpr uint64_t memBytes = 16 << 20;

// Large enough to contain any template's access region (<= 256 KB +
// store span), so consecutive allocations are disjoint.
constexpr uint64_t argBufBytes = 1 << 19;

class InterpDiff : public ::testing::TestWithParam<std::string>
{
  protected:
    KernelBinary
    compile(int64_t leading = 8)
    {
        isa::KernelSource src;
        src.name = "diff_" + GetParam();
        src.templateName = GetParam();
        src.params = {leading};
        return workloads::TemplateJit().compile(src);
    }

    Dispatch
    dispatchFor(const KernelBinary &bin, uint64_t gws = 64)
    {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        uint32_t base = (uint32_t)pair.allocate(4 << 20);
        d.args.assign(bin.numArgs, base);
        return d;
    }

    /** Instrument @p bin the way the GT-Pin tools do: a dynamic
     * instruction counter on every block plus a kernel timer. */
    KernelBinary
    instrument(const KernelBinary &bin, uint32_t &num_slots)
    {
        SlotAllocator slots;
        Instrumenter ins(bin, slots);
        for (const auto &block : bin.blocks) {
            ins.countBlockEntry(block.id, ins.allocSlot(),
                                (uint32_t)block.instrs.size());
        }
        ins.timeKernel(ins.allocSlot());
        num_slots = slots.allocated();
        return ins.apply();
    }

    RefPair pair{memBytes};
};

TEST_P(InterpDiff, FullModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(InterpDiff, FastModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Fast);
}

TEST_P(InterpDiff, FullModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = dispatchFor(rewritten);
    TraceBuffer tr(num_slots), te(num_slots);
    pair.runBoth(d, Executor::Mode::Full, &tr, &te);
    EXPECT_EQ(tr.raw(), te.raw());
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(InterpDiff, FastModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = dispatchFor(rewritten);
    TraceBuffer tr(num_slots), te(num_slots);
    pair.runBoth(d, Executor::Mode::Fast, &tr, &te);
    EXPECT_EQ(tr.raw(), te.raw());
}

TEST_P(InterpDiff, BlockTraceIdentical)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    auto tr = pair.ref.blockTrace(d, 0);
    auto te = pair.exec.blockTrace(d, 0);
    EXPECT_EQ(tr, te);
}

TEST_P(InterpDiff, TruncatedBlockTraceIdentical)
{
    // The truncation point must agree even when it lands mid-way
    // through a superblock: the executor's trace path steps one
    // member basic block at a time.
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    for (uint64_t max_len : {1, 2, 3, 7}) {
        auto tr = pair.ref.blockTrace(d, 0, max_len);
        auto te = pair.exec.blockTrace(d, 0, max_len);
        EXPECT_EQ(tr, te) << "max_len=" << max_len;
        EXPECT_LE(tr.size(), max_len);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, InterpDiff,
    ::testing::ValuesIn(workloads::builtinTemplates().templateNames()),
    [](const auto &info) { return info.param; });

// --- distinct per-argument buffers ---------------------------------------

/**
 * The same executor-vs-reference matrix with one buffer per argument,
 * so stores through one argument never land in another's data, over
 * 24 threads and over thread counts that are not a multiple of 8.
 * The suite, like GangCascade, GangDivergence and GangSafety below,
 * keeps the name it had when the executor also ran a SIMD-lockstep
 * ("gang") path, so its results stay comparable by name; every
 * dispatch now takes the scalar path.
 */
class GangDiff : public InterpDiff
{
  protected:
    /** julia and nbody derive trip counts from argument values; they
     * keep one shared low base so those stay small. */
    Dispatch
    distinctDispatchFor(const KernelBinary &bin, uint64_t gws = 16 * 24)
    {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        if (GetParam() == "julia" || GetParam() == "nbody") {
            uint32_t base = (uint32_t)pair.allocate(argBufBytes);
            d.args.assign(bin.numArgs, base);
        } else {
            for (uint32_t a = 0; a < bin.numArgs; ++a)
                d.args.push_back((uint32_t)pair.allocate(argBufBytes));
        }
        return d;
    }
};

TEST_P(GangDiff, PlanVerdictMatchesExpectation)
{
    // The plan's verdicts are the relevance analysis's, and Fast mode
    // run under them (one representative thread, every thread, or
    // full evaluation) counts exactly what Full mode counts.
    KernelBinary bin = compile();
    ExecPlan plan = Executor::buildPlan(bin, pair.config);
    isa::Relevance rel = isa::analyzeRelevance(bin);
    EXPECT_TRUE(plan.matchesShape(bin));
    EXPECT_EQ(plan.rel.needsFullExec, rel.needsFullExec);
    EXPECT_EQ(plan.rel.threadDependent, rel.threadDependent);
    EXPECT_EQ(plan.rel.relevant, rel.relevant);
    EXPECT_EQ(plan.blockCycles.size(), bin.blocks.size());
    EXPECT_EQ(plan.memberCycles.size(), plan.prog.members.size());

    Dispatch d = distinctDispatchFor(bin);
    ExecProfile fast = pair.exec.run(d, Executor::Mode::Fast);
    ExecProfile full = pair.exec.run(d, Executor::Mode::Full);
    EXPECT_EQ(fast.dynInstrs, full.dynInstrs);
    EXPECT_EQ(fast.blockCounts, full.blockCounts);
    EXPECT_EQ(fast.bytesRead, full.bytesRead);
    EXPECT_EQ(fast.bytesWritten, full.bytesWritten);
}

TEST_P(GangDiff, FullModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = distinctDispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(GangDiff, FastModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = distinctDispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Fast);
}

TEST_P(GangDiff, FullModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = distinctDispatchFor(rewritten);
    TraceBuffer tr(num_slots), te(num_slots);
    pair.runBoth(d, Executor::Mode::Full, &tr, &te);
    EXPECT_EQ(tr.raw(), te.raw());
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(GangDiff, FastModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = distinctDispatchFor(rewritten);
    TraceBuffer tr(num_slots), te(num_slots);
    pair.runBoth(d, Executor::Mode::Fast, &tr, &te);
    EXPECT_EQ(tr.raw(), te.raw());
}

TEST_P(GangDiff, BatchMemTraceBitwiseOrder)
{
    KernelBinary bin = compile();
    Dispatch d = distinctDispatchFor(bin);
    // A chunk smaller than most threads' records forces flushes from
    // inside a thread; the reference's boundaries must reproduce.
    pair.runBothBatch(d, 96);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(GangDiff, SharedBufferFallsBackAndMatches)
{
    // Every argument aliases one buffer, so stores through different
    // arguments overlap; the executor must still match the reference
    // byte for byte.
    KernelBinary bin = compile();
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    uint32_t base = (uint32_t)pair.allocate(argBufBytes);
    d.args.assign(bin.numArgs, base);
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(GangDiff, PartialAndSingleGangs)
{
    KernelBinary bin = compile();
    // Thread counts that are not a multiple of 8, plus a
    // single-thread dispatch.
    for (uint64_t threads : {13, 9, 1}) {
        Dispatch d = distinctDispatchFor(bin, 16 * threads);
        pair.runBoth(d, Executor::Mode::Full);
    }
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_P(GangDiff, ExecutorReuseInvariance)
{
    // Back-to-back dispatches reuse the executor's thread context and
    // scratch accumulators; a second run must reproduce the first
    // exactly (no state leaking through the reused buffers or dirty
    // lists).
    KernelBinary bin = compile();
    Dispatch d = distinctDispatchFor(bin);
    ExecProfile first = pair.exec.run(d, Executor::Mode::Full);
    ExecProfile second = pair.exec.run(d, Executor::Mode::Full);
    expectProfilesEqual(first, second);
    // Matching dispatch count on the reference side: templates that
    // update buffers in place (particle) evolve state per run.
    pair.ref.run(d, Executor::Mode::Full);
    ExecProfile oracle = pair.ref.run(d, Executor::Mode::Full);
    expectProfilesEqual(oracle, second);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, GangDiff,
    ::testing::ValuesIn(workloads::builtinTemplates().templateNames()),
    [](const auto &info) { return info.param; });

// --- thread-dependent control flow ------------------------------------

TEST(InterpDiffCascade, ThreadDependentManyThreads)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "casc";
    src.templateName = "cascade";
    src.params = {12, 0xfff, 8};
    KernelBinary bin = jit.compile(src);

    RefPair pair{memBytes};
    uint32_t base = (uint32_t)pair.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    d.args = {base, base, 2, 0};

    for (auto mode : {Executor::Mode::Full, Executor::Mode::Fast}) {
        ExecProfile pr = pair.ref.run(d, mode);
        ExecProfile pe = pair.exec.run(d, mode);
        expectProfilesEqual(pr, pe);
    }
}

TEST(InterpDiffCascade, SingleThreadMatchesToo)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "casc1";
    src.templateName = "cascade";
    src.params = {12, 0xfff, 8};
    KernelBinary bin = jit.compile(src);

    RefPair pair{memBytes};
    uint32_t base = (uint32_t)pair.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 16;
    d.args = {base, base, 2, 0};

    ExecProfile pr = pair.ref.run(d, Executor::Mode::Full);
    ExecProfile pe = pair.exec.run(d, Executor::Mode::Full);
    expectProfilesEqual(pr, pe);
}

// --- divergence with per-thread memory-trace records -----------------------

/**
 * Thread-dependent divergence via cascade over distinct input and
 * output buffers: threads peel off into a heavier path depending on
 * their id.
 */
class GangCascade : public ::testing::Test
{
  protected:
    Dispatch
    cascadeDispatch()
    {
        isa::KernelSource src;
        src.name = "casc_div";
        src.templateName = "cascade";
        src.params = {12, 0xfff, 8};
        bin = workloads::TemplateJit().compile(src);
        Dispatch d;
        d.binary = &bin;
        d.globalSize = 16 * 64;
        d.simdWidth = 16;
        uint32_t in = (uint32_t)pair.allocate(argBufBytes);
        uint32_t out = (uint32_t)pair.allocate(argBufBytes);
        d.args = {in, out, 2, 0};
        return d;
    }

    KernelBinary bin;
    RefPair pair;
};

TEST_F(GangCascade, DivergentThreadsMatchScalar)
{
    pair.runBoth(cascadeDispatch(), Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

TEST_F(GangCascade, BatchTraceSurvivesRetirement)
{
    // Threads that leave the loop early still deliver their records;
    // the batched stream must stay in thread order.
    pair.runBothBatch(cascadeDispatch(), 64);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

/** Run 24 threads of @p bin in Full mode, one buffer per argument, on
 * both sides of a pair and compare profiles and memory. */
void
expectSingleBufferMatch(const KernelBinary &bin, uint32_t simd_width)
{
    RefPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = simd_width * 24;
    d.simdWidth = simd_width;
    for (uint32_t a = 0; a < bin.numArgs; ++a)
        d.args.push_back((uint32_t)pair.allocate(argBufBytes));
    ExecProfile pr = pair.ref.run(d, Executor::Mode::Full);
    ExecProfile pe = pair.exec.run(d, Executor::Mode::Full);
    expectProfilesEqual(pr, pe);
    pair.expectMemoryEqual(pair.memRef.allocated());
}

/** Divergence decided by the very first compare: odd threads take
 * extra arithmetic before the common store. */
TEST(GangDivergence, FirstSuperblock)
{
    KernelBuilder b("first_div", 1);
    Reg tid = b.reg();
    b.mov(tid, b.dispatchInfo(), 1);
    Reg bit = b.reg();
    b.and_(bit, tid, imm(1), 1);
    Flag f = b.flag();
    b.cmp(isa::CmpOp::Ne, f, bit, imm(0), 1);
    b.brnc(f, "skip");
    Reg acc = b.reg();
    b.mov(acc, imm(3), 16);
    for (int i = 0; i < 8; ++i)
        b.mul(acc, acc, acc, 16);
    b.label("skip");
    Reg idx = b.reg();
    b.and_(idx, b.globalIds(), imm(0xffff), 16);
    Reg addr = b.reg();
    b.shl(addr, idx, imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    expectSingleBufferMatch(b.finish(), 16);
}

/** Divergence on the last superblock: odd threads take a longer exit
 * path after the common body. */
TEST(GangDivergence, LastSuperblock)
{
    KernelBuilder b("last_div", 1);
    Reg idx = b.reg();
    b.and_(idx, b.globalIds(), imm(0xffff), 16);
    Reg addr = b.reg();
    b.shl(addr, idx, imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    Reg tid = b.reg();
    b.mov(tid, b.dispatchInfo(), 1);
    Reg bit = b.reg();
    b.and_(bit, tid, imm(1), 1);
    Flag f = b.flag();
    b.cmp(isa::CmpOp::Ne, f, bit, imm(0), 1);
    b.brnc(f, "skip");
    Reg acc = b.reg();
    b.mov(acc, imm(5), 16);
    for (int i = 0; i < 8; ++i)
        b.add(acc, acc, acc, 16);
    b.label("skip");
    b.halt();
    expectSingleBufferMatch(b.finish(), 16);
}

// --- cross-thread store order ------------------------------------------------

TEST(GangSafety, AliasingStoresPinScalar)
{
    // Every thread stores its ids to the *same* address (arg0): the
    // last writer in thread order must win, as in the reference.
    KernelBuilder b("alias", 1);
    Reg addr = b.reg();
    b.mov(addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    expectSingleBufferMatch(b.finish(), 16);
}

TEST(GangSafety, SimdWidthGuard)
{
    // A SIMD-8 dispatch of stress, whose sends are width 16, so lane
    // ids repeat across a thread's upper half.
    isa::KernelSource src;
    src.name = "stress8";
    src.templateName = "stress";
    src.params = {8};
    expectSingleBufferMatch(workloads::TemplateJit().compile(src), 8);
}

// --- plan-cache identity (generation id satellite) ---------------------

namespace
{

KernelBinary
buildCountedLoop(uint32_t trips)
{
    KernelBuilder b("genkey", 0);
    Reg c = b.reg();
    b.beginLoop(c, imm(trips));
    Reg x = b.reg();
    b.add(x, x, imm(1), 16);
    b.endLoop();
    b.halt();
    return b.finish();
}

} // anonymous namespace

TEST(InterpPlanCache, GenerationIdInvalidatesRecycledAddress)
{
    // Two binaries with identical name, block count, and static
    // instruction count — only a loop-trip immediate differs — placed
    // at the *same address*. Before the generation id, the shape
    // check could not tell them apart and the second run replayed the
    // first binary's predecoded plan.
    DeviceConfig config = DeviceConfig::hd4000();
    DeviceMemory memory(memBytes);
    Executor exec(config, memory);

    auto holder = std::make_unique<KernelBinary>(buildCountedLoop(4));
    Dispatch d;
    d.binary = holder.get();
    d.globalSize = 16;
    d.simdWidth = 16;
    ExecProfile before = exec.run(d, Executor::Mode::Full);

    KernelBinary longer = buildCountedLoop(16);
    ASSERT_EQ(holder->blocks.size(), longer.blocks.size());
    ASSERT_EQ(holder->staticInstrCount(), longer.staticInstrCount());
    *holder = longer;

    ExecProfile after = exec.run(d, Executor::Mode::Full);
    EXPECT_GT(after.dynInstrs, before.dynInstrs);
}

// --- reset elision soundness ------------------------------------------

TEST(InterpResetElision, StaleRegistersInvisibleAcrossDispatches)
{
    // Kernel A dirties a high register; kernel B (same executor, so
    // the same reusable ThreadCtx) reads a register it never writes
    // and stores it. The read must observe zero: the elided reset
    // still clears every register in B's static read-set.
    DeviceConfig config = DeviceConfig::hd4000();
    DeviceMemory memory(memBytes);
    Executor exec(config, memory);
    uint64_t out = memory.allocate(256);

    KernelBuilder a("dirty", 0);
    for (int i = 0; i < 60; ++i) {
        Reg r = a.reg();
        a.mov(r, imm(0xdeadbeef), 16);
    }
    a.halt();
    KernelBinary binA = a.finish();

    KernelBuilder bb("reader", 1);
    Reg addr = bb.reg();
    bb.shl(addr, bb.globalIds(), imm(2), 16);
    bb.add(addr, addr, bb.arg(0), 16);
    Reg never_written = bb.reg();
    bb.store(never_written, addr, 4, 16);
    bb.halt();
    KernelBinary binB = bb.finish();

    Dispatch da;
    da.binary = &binA;
    da.globalSize = 16;
    da.simdWidth = 16;
    exec.run(da, Executor::Mode::Full);

    Dispatch db;
    db.binary = &binB;
    db.globalSize = 16;
    db.simdWidth = 16;
    db.args = {(uint32_t)out};
    exec.run(db, Executor::Mode::Full);

    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(memory.read32(out + lane * 4), 0u);
}

TEST(InterpResetElision, StaleLocalMemoryInvisibleAcrossDispatches)
{
    // Kernel A fills a local-memory word; kernel B loads the same
    // word. B touches local memory, so its reset must clear the
    // 16 KB block even though A ran first in the same ThreadCtx.
    DeviceConfig config = DeviceConfig::hd4000();
    DeviceMemory memory(memBytes);
    Executor exec(config, memory);
    uint64_t out = memory.allocate(256);

    KernelBuilder a("ldirty", 0);
    Reg laddr = a.reg();
    a.mov(laddr, imm(0), 16);
    Reg v = a.reg();
    a.mov(v, imm(0x12345678), 16);
    a.store(v, laddr, 4, 16, 0, isa::AddrSpace::Local);
    a.halt();
    KernelBinary binA = a.finish();

    KernelBuilder bb("lreader", 1);
    Reg laddr2 = bb.reg();
    bb.mov(laddr2, imm(0), 16);
    Reg got = bb.reg();
    bb.load(got, laddr2, 4, 16, 0, isa::AddrSpace::Local);
    Reg addr = bb.reg();
    bb.shl(addr, bb.globalIds(), imm(2), 16);
    bb.add(addr, addr, bb.arg(0), 16);
    bb.store(got, addr, 4, 16);
    bb.halt();
    KernelBinary binB = bb.finish();

    Dispatch da;
    da.binary = &binA;
    da.globalSize = 16;
    da.simdWidth = 16;
    exec.run(da, Executor::Mode::Full);

    Dispatch db;
    db.binary = &binB;
    db.globalSize = 16;
    db.simdWidth = 16;
    db.args = {(uint32_t)out};
    exec.run(db, Executor::Mode::Full);

    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(memory.read32(out + lane * 4), 0u);
}

} // anonymous namespace
} // namespace gt::gpu
