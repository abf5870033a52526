/**
 * @file
 * Batched SoA memory-trace pipeline tests: the MemTraceSink's
 * chunking contract, CacheModel's bulk consumer against the
 * per-access oracle, and end-to-end GT-Pin differentials against the
 * reference interpreter (tests/reference), which delivers every
 * access the moment it executes — the batched stack must be bitwise
 * identical to it at every thread count.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "gpu/executor.hh"
#include "gpu/memtrace.hh"
#include "gtpin/cache_sim.hh"
#include "gtpin/tools.hh"
#include "isa/builder.hh"
#include "ocl/driver.hh"
#include "reference/interpreter.hh"
#include "sched/thread_pool.hh"
#include "workloads/templates.hh"

namespace gt::gtpin
{
namespace
{

using gpu::MemBatch;
using gpu::MemTraceSink;
using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

/** One unpacked trace record, for readable comparisons. */
struct Rec
{
    uint64_t addr;
    uint32_t bytes;
    bool write;
    bool operator==(const Rec &) const = default;
};

/** Append a batch's records to @p out, one Rec per entry. */
void
unpack(const MemBatch &batch, std::vector<Rec> &out)
{
    for (size_t i = 0; i < batch.count; ++i) {
        uint32_t meta = batch.metas[i];
        out.push_back({batch.addrs[i], MemBatch::bytes(meta),
                       MemBatch::isWrite(meta)});
    }
}

// --- MemTraceSink chunking contract ------------------------------------

TEST(MemTraceSink, FlushesFullChunksInOrder)
{
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    gpu::MemBatchFn fn = [&](const MemBatch &b) {
        sizes.push_back(b.count);
        unpack(b, recs);
    };

    MemTraceSink sink;
    sink.begin(&fn, 4);
    for (uint32_t i = 0; i < 10; ++i)
        sink.append(0x1000 + i * 64, 4 + i, i % 2 == 1);
    sink.finish();

    EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));
    ASSERT_EQ(recs.size(), 10u);
    for (uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(recs[i], (Rec{0x1000 + i * 64, 4 + i, i % 2 == 1}))
            << "record " << i;
    }
}

TEST(MemTraceSink, ExactlyFullBufferFlushesOnce)
{
    size_t batches = 0, records = 0;
    gpu::MemBatchFn fn = [&](const MemBatch &b) {
        ++batches;
        records += b.count;
    };
    MemTraceSink sink;
    sink.begin(&fn, 4);
    for (uint32_t i = 0; i < 4; ++i)
        sink.append(i, 4, false);
    // The chunk flushed the moment it filled; finish() must not
    // deliver a second, empty batch.
    EXPECT_EQ(batches, 1u);
    sink.finish();
    EXPECT_EQ(batches, 1u);
    EXPECT_EQ(records, 4u);
}

TEST(MemTraceSink, EmptyTraceDeliversNothing)
{
    size_t batches = 0;
    gpu::MemBatchFn fn = [&](const MemBatch &) { ++batches; };
    MemTraceSink sink;
    sink.begin(&fn, 4);
    sink.finish();
    EXPECT_EQ(batches, 0u);
}

TEST(MemTraceSink, MetaPackingRoundTrips)
{
    // The write flag lives in the top meta bit; byte counts up to
    // bytesMask survive unchanged.
    std::vector<Rec> recs;
    gpu::MemBatchFn fn = [&](const MemBatch &b) { unpack(b, recs); };
    MemTraceSink sink;
    sink.begin(&fn, 8);
    sink.append(~0ull, MemBatch::bytesMask, true);
    sink.append(0, 1, false);
    sink.finish();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0], (Rec{~0ull, MemBatch::bytesMask, true}));
    EXPECT_EQ(recs[1], (Rec{0, 1, false}));
}

// --- CacheModel bulk consumer vs. per-access oracle --------------------

TEST(CacheModelBatch, MatchesPerAccessOracle)
{
    // Pseudo-random trace with deliberate same-line runs and
    // line-straddling accesses; both consumers must agree on every
    // counter and on subsequent behaviour (same final cache state).
    CacheModel oracle(16 * 1024, 4, 64);
    CacheModel batched(16 * 1024, 4, 64);

    std::vector<uint64_t> addrs;
    std::vector<uint32_t> metas;
    uint64_t lcg = 12345;
    for (int i = 0; i < 20000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t addr = (lcg >> 16) % (256 * 1024);
        uint32_t bytes = 1u << ((lcg >> 8) % 6); // 1..32 bytes
        bool write = (lcg & 1) != 0;
        // Every fourth record repeats the previous address to build
        // same-line runs, the accessBatch fast path.
        if (i % 4 == 3 && !addrs.empty()) {
            addr = addrs.back();
            bytes = 4;
        }
        addrs.push_back(addr);
        metas.push_back(bytes | (write ? MemBatch::writeBit : 0));
    }

    for (size_t i = 0; i < addrs.size(); ++i) {
        oracle.access(addrs[i], MemBatch::bytes(metas[i]),
                      MemBatch::isWrite(metas[i]));
    }
    // Feed the batch consumer in uneven chunks to cross run
    // boundaries mid-batch.
    size_t chunk_sizes[] = {1, 7, 100, 4096, 128};
    size_t pos = 0, c = 0;
    while (pos < addrs.size()) {
        size_t n = std::min(chunk_sizes[c++ % 5], addrs.size() - pos);
        batched.accessBatch({addrs.data() + pos, metas.data() + pos, n});
        pos += n;
    }

    EXPECT_EQ(batched.hits(), oracle.hits());
    EXPECT_EQ(batched.misses(), oracle.misses());
    EXPECT_EQ(batched.writebacks(), oracle.writebacks());

    // Final cache state must match too: replay a probe sweep and
    // compare the resulting counters.
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
        oracle.access(addr, 4, false);
        uint64_t a[] = {addr};
        uint32_t m[] = {4};
        batched.accessBatch({a, m, 1});
    }
    EXPECT_EQ(batched.hits(), oracle.hits());
    EXPECT_EQ(batched.misses(), oracle.misses());
    EXPECT_EQ(batched.writebacks(), oracle.writebacks());
}

// --- executor-level delivery -------------------------------------------

class MemTraceExecTest : public ::testing::Test
{
  protected:
    MemTraceExecTest()
        : config(gpu::DeviceConfig::hd4000()), memory(16 << 20),
          exec(config, memory)
    {}

    /** 16 lanes each storing 4 bytes to arg0 + 4*gid. */
    static KernelBinary
    storeKernel()
    {
        KernelBuilder b("st16", 1);
        Reg a = b.reg();
        b.shl(a, b.globalIds(), imm(2), 16);
        b.add(a, a, b.arg(0), 16);
        b.store(b.globalIds(), a, 4, 16);
        b.halt();
        return b.finish();
    }

    gpu::Dispatch
    dispatchOf(const KernelBinary &bin, uint64_t gws) const
    {
        gpu::Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        d.args = {(uint32_t)base};
        return d;
    }

    gpu::ExecProfile
    runBatched(const KernelBinary &bin, uint64_t gws, size_t chunk,
               std::vector<size_t> &sizes, std::vector<Rec> &recs)
    {
        exec.setMemTraceChunk(chunk);
        return exec.run(dispatchOf(bin, gws), gpu::Executor::Mode::Full,
                        nullptr, [&](const MemBatch &b) {
                            sizes.push_back(b.count);
                            unpack(b, recs);
                        });
    }

    /** The same dispatch's accesses as the reference interpreter
     * delivers them, one at a time. */
    std::vector<Rec>
    runReference(const KernelBinary &bin, uint64_t gws)
    {
        std::vector<Rec> recs;
        reference::Interpreter(config, memory)
            .run(dispatchOf(bin, gws), gpu::Executor::Mode::Full, nullptr,
                 [&](uint64_t addr, uint32_t bytes, bool is_write) {
                     recs.push_back({addr, bytes, is_write});
                 });
        return recs;
    }

    gpu::DeviceConfig config;
    gpu::DeviceMemory memory;
    gpu::Executor exec;
    uint64_t base = 0x1000;
};

TEST_F(MemTraceExecTest, ExactlyFullDispatchFlushesOnce)
{
    KernelBinary bin = storeKernel();
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    runBatched(bin, 16, 16, sizes, recs); // 16 records, chunk 16
    EXPECT_EQ(sizes, (std::vector<size_t>{16}));
    ASSERT_EQ(recs.size(), 16u);
    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(recs[lane], (Rec{base + lane * 4, 4, true}));
}

TEST_F(MemTraceExecTest, MultiFlushDispatchPreservesOrder)
{
    KernelBinary bin = storeKernel();
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    runBatched(bin, 64, 5, sizes, recs); // 64 records, chunks of 5
    ASSERT_EQ(sizes.size(), 13u);        // 12 full + final 4
    for (size_t i = 0; i < 12; ++i)
        EXPECT_EQ(sizes[i], 5u);
    EXPECT_EQ(sizes[12], 4u);
    ASSERT_EQ(recs.size(), 64u);
    for (uint32_t gid = 0; gid < 64; ++gid)
        EXPECT_EQ(recs[gid], (Rec{base + gid * 4, 4, true}));
}

TEST_F(MemTraceExecTest, DispatchWithoutSendsDeliversNothing)
{
    KernelBuilder b("nosend", 0);
    Reg r = b.reg();
    b.add(r, b.globalIds(), imm(1), 16);
    b.halt();
    KernelBinary bin = b.finish();

    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    runBatched(bin, 32, 8, sizes, recs);
    EXPECT_TRUE(sizes.empty());
    EXPECT_TRUE(recs.empty());
}

TEST_F(MemTraceExecTest, LocalSendsExcludedIdenticallyToOracle)
{
    // One local store, one local load, one global store per lane:
    // only the global send may appear in the trace, batched or not.
    KernelBuilder b("slm", 1);
    Reg a = b.reg(), v = b.reg(), g = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.store(b.globalIds(), a, 4, 16, 0, isa::AddrSpace::Local);
    b.load(v, a, 4, 16, 0, isa::AddrSpace::Local);
    b.shl(g, b.globalIds(), imm(2), 16);
    b.add(g, g, b.arg(0), 16);
    b.store(v, g, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    std::vector<size_t> sizes;
    std::vector<Rec> batch_recs;
    runBatched(bin, 16, 8, sizes, batch_recs);

    ASSERT_EQ(batch_recs.size(), 16u); // global stores only
    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(batch_recs[lane], (Rec{base + lane * 4, 4, true}));
    EXPECT_EQ(batch_recs, runReference(bin, 16));
}

TEST_F(MemTraceExecTest, BothBackendsEmitIdenticalTraces)
{
    // The executor's batched trace must carry exactly the ordered
    // accesses the reference interpreter delivers one by one.
    KernelBinary bin = storeKernel();
    std::vector<size_t> sizes;
    std::vector<Rec> batch_recs;
    runBatched(bin, 48, 7, sizes, batch_recs);
    EXPECT_EQ(batch_recs, runReference(bin, 48));
}

// --- end-to-end GT-Pin differential ------------------------------------

/** Counters one profiled stack produces; must match the oracle's. */
struct StackResult
{
    uint64_t hits, misses, writebacks;
    uint64_t bytesRead, bytesWritten, dynInstrs;
    bool operator==(const StackResult &) const = default;
};

/**
 * A private driver + GT-Pin stack with a cache simulator and
 * trace-buffer tools attached, over one kernel of template @p tname
 * and one 1 MB buffer bound to every argument.
 */
class Stack
{
  public:
    explicit Stack(const std::string &tname,
                   uint64_t cache_bytes = 64 * 1024)
        : driver(gpu::DeviceConfig::hd4000(), jit, quietTrial()),
          cache(cache_bytes, 16, 64),
          ref(driver.config(), driver.memory())
    {
        pin.addTool(&cache);
        pin.addTool(&mem);
        pin.addTool(&bb);
        pin.attach(driver);
        isa::KernelSource src;
        src.name = tname + "_mt";
        src.templateName = tname;
        kernel = driver.buildKernel(src);
        uint64_t buf = driver.memory().allocate(1 << 20);
        args.assign(driver.binary(kernel).numArgs, (uint32_t)buf);
    }

    /** Dispatch @p global_size items through the production stack. */
    ocl::DispatchResult
    run(uint64_t global_size)
    {
        return driver.execute(kernel, global_size, 16, args);
    }

    /** The same dispatch on the reference interpreter, each access
     * fed to the cache model's per-access oracle as it happens. */
    ocl::DispatchResult
    runReference(uint64_t global_size)
    {
        return reference::executeOnDriver(
            driver, ref, kernel, global_size, 16, args,
            [this](uint64_t addr, uint32_t bytes, bool is_write) {
                cache.cache().access(addr, bytes, is_write);
            });
    }

    StackResult
    result() const
    {
        return {cache.cache().hits(), cache.cache().misses(),
                cache.cache().writebacks(), mem.totalBytesRead(),
                mem.totalBytesWritten(), bb.totalDynInstrs()};
    }

  private:
    static gpu::TrialConfig
    quietTrial()
    {
        gpu::TrialConfig trial;
        trial.noiseSigma = 0.0;
        return trial;
    }

    workloads::TemplateJit jit;
    ocl::GpuDriver driver;
    CacheSimTool cache;
    MemBytesTool mem;
    BasicBlockCounterTool bb;
    GtPin pin;
    reference::Interpreter ref;
    uint32_t kernel = 0;
    std::vector<uint32_t> args;
};

/** Profile template @p tname twice (256 then 512 items) through the
 * production stack, or through the reference interpreter. */
StackResult
runStack(const std::string &tname, bool reference)
{
    Stack stack(tname);
    for (uint64_t gws : {256u, 512u}) {
        if (reference)
            stack.runReference(gws);
        else
            stack.run(gws);
    }
    return stack.result();
}

TEST(GtPinMemTrace, BatchBitwiseIdenticalToCallbackOracle)
{
    for (const char *tname : {"stream", "blur", "hash", "histogram"}) {
        StackResult callback = runStack(tname, true);
        StackResult batch = runStack(tname, false);
        EXPECT_EQ(batch, callback) << tname;
        EXPECT_GT(batch.hits + batch.misses, 0u) << tname;
    }
}

TEST(GtPinMemTrace, ParallelStacksMatchSerialBitwise)
{
    // Private stacks share no mutable state, so N concurrent batched
    // profiles must be bitwise identical to serial ones (the 1-vs-N
    // determinism the pipeline layer relies on).
    const std::vector<std::string> tnames = {"stream", "blur", "hash",
                                             "julia", "effect",
                                             "blend"};
    std::vector<StackResult> serial(tnames.size());
    for (size_t i = 0; i < tnames.size(); ++i)
        serial[i] = runStack(tnames[i], false);

    std::vector<StackResult> parallel(tnames.size());
    sched::ThreadPool pool(4);
    pool.parallelFor(
        tnames.size(),
        [&](size_t i) { parallel[i] = runStack(tnames[i], false); },
        1);

    for (size_t i = 0; i < tnames.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << tnames[i];
}

TEST(GtPinMemTrace, ProfilesIdenticalAcrossModes)
{
    // The DispatchResult profile (executor ground truth) of a traced
    // dispatch must match the reference interpreter's.
    auto profile_of = [](bool reference) {
        Stack stack("nbody", 4ull << 20);
        return reference ? stack.runReference(256) : stack.run(256);
    };

    ocl::DispatchResult callback = profile_of(true);
    ocl::DispatchResult batch = profile_of(false);
    EXPECT_EQ(batch.profile.dynInstrs, callback.profile.dynInstrs);
    EXPECT_EQ(batch.profile.bytesRead, callback.profile.bytesRead);
    EXPECT_EQ(batch.profile.bytesWritten,
              callback.profile.bytesWritten);
    EXPECT_EQ(batch.profile.blockCounts, callback.profile.blockCounts);
    EXPECT_EQ(batch.profile.threadCycles, callback.profile.threadCycles);
}

} // anonymous namespace
} // namespace gt::gtpin
