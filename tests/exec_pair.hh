/**
 * @file
 * Shared fixture of the executor differential tests (test_interp.cc,
 * test_gang.cc): the production executor and the scalar reference
 * interpreter side by side, each over its own device memory, compared
 * bit for bit.
 */

#ifndef GT_TESTS_EXEC_PAIR_HH
#define GT_TESTS_EXEC_PAIR_HH

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "gpu/executor.hh"
#include "reference/interpreter.hh"

namespace gt::gpu
{

inline void
expectProfilesEqual(const ExecProfile &a, const ExecProfile &b)
{
    EXPECT_EQ(a.numThreads, b.numThreads);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.instrumentationInstrs, b.instrumentationInstrs);
    EXPECT_EQ(a.blockCounts, b.blockCounts);
    EXPECT_EQ(a.opcodeCounts, b.opcodeCounts);
    EXPECT_EQ(a.classCounts, b.classCounts);
    EXPECT_EQ(a.simdCounts, b.simdCounts);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.sendCount, b.sendCount);
    // Bitwise: both must accrue cycles in the same order.
    EXPECT_EQ(a.threadCycles, b.threadCycles);
}

/** One memory-trace record plus the chunk flush it arrived in. */
struct TraceRec
{
    uint64_t addr;
    uint32_t meta;
    uint64_t chunk;

    bool operator==(const TraceRec &) const = default;
};

/**
 * The reference interpreter and the executor, each over its own
 * device memory so Full-mode stores can be compared byte for byte
 * afterwards. The allocators run in lockstep, so buffers land at the
 * same addresses.
 */
class RefPair
{
  public:
    explicit RefPair(uint64_t mem_bytes = 32 << 20)
        : config(DeviceConfig::hd4000()), memRef(mem_bytes),
          memExec(mem_bytes), ref(config, memRef), exec(config, memExec)
    {
    }

    uint64_t
    allocate(uint64_t size)
    {
        uint64_t addr = memRef.allocate(size);
        uint64_t addr2 = memExec.allocate(size);
        GT_ASSERT(addr == addr2, "allocators diverged");
        return addr;
    }

    /** Run the dispatch on both; expect equal profiles. */
    void
    runBoth(const Dispatch &d, Executor::Mode mode,
            TraceBuffer *trace_ref = nullptr,
            TraceBuffer *trace_exec = nullptr)
    {
        ExecProfile pr = ref.run(d, mode, trace_ref);
        ExecProfile pe = exec.run(d, mode, trace_exec);
        expectProfilesEqual(pr, pe);
    }

    /**
     * Run with batched trace delivery on the executor and per-access
     * delivery on the reference; expect equal profiles and an
     * identical record stream, chunk flush boundaries included (a
     * full chunk flushes the moment it fills, so the reference's
     * record i belongs to chunk i / @p chunk). @p chunk stresses
     * mid-thread flushes when small.
     */
    void
    runBothBatch(const Dispatch &d, size_t chunk)
    {
        std::vector<TraceRec> recRef, recExec;
        uint64_t chunksExec = 0;
        exec.setMemTraceChunk(chunk);
        ExecProfile pr = ref.run(
            d, Executor::Mode::Full, nullptr,
            [&](uint64_t addr, uint32_t bytes, bool is_write) {
                uint32_t meta = bytes | (is_write ? MemBatch::writeBit
                                                  : 0u);
                recRef.push_back({addr, meta, recRef.size() / chunk});
            });
        ExecProfile pe = exec.run(
            d, Executor::Mode::Full, nullptr,
            [&](const MemBatch &batch) {
                for (size_t i = 0; i < batch.count; ++i) {
                    recExec.push_back(
                        {batch.addrs[i], batch.metas[i], chunksExec});
                }
                ++chunksExec;
            });
        expectProfilesEqual(pr, pe);
        EXPECT_EQ((recRef.size() + chunk - 1) / chunk, chunksExec);
        ASSERT_EQ(recRef.size(), recExec.size());
        EXPECT_TRUE(recRef == recExec)
            << "memory-trace record streams diverged";
    }

    /** Compare the first @p bytes of both device memories. */
    void
    expectMemoryEqual(uint64_t bytes)
    {
        for (uint64_t a = 0; a + 4 <= bytes; a += 4) {
            ASSERT_EQ(memRef.read32(a), memExec.read32(a))
                << "memory diverged at address " << a;
        }
    }

    DeviceConfig config;
    DeviceMemory memRef;
    DeviceMemory memExec;
    reference::Interpreter ref;
    Executor exec;
};

} // namespace gt::gpu

#endif // GT_TESTS_EXEC_PAIR_HH
