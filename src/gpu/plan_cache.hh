/**
 * @file
 * Content-addressed cross-driver caches for execution artifacts.
 *
 * Every GpuDriver owns an Executor, and every Executor derives the
 * same expensive per-binary artifacts before it can run a kernel:
 * the relevance slice, the predecoded uop program, per-block issue
 * cycles, and the gang-safety verdict — collectively an ExecPlan.
 * Within one driver those are memoized per binary address; across
 * drivers (the profiling service runs one driver per tenant) the
 * memoization restarts from zero even though tenants overwhelmingly
 * submit the same kernels.
 *
 * The caches here close that gap. They key on isa::contentHash — the
 * semantic identity of a binary, independent of which driver JIT-
 * compiled it — and store immutable artifacts behind shared_ptr, so
 * a plan built by one tenant's executor is adopted by every other.
 * The sharing contract is the repo-wide "fully built ⇒ const,
 * shareable" rule:
 *
 *  - an artifact is inserted only after it is completely built;
 *  - once inserted it is never mutated (first insert wins; later
 *    duplicate builds are discarded and the winner is adopted);
 *  - lookups hand out shared_ptr<const T>, so readers can never
 *    write and lifetime is safe even if the cache is cleared.
 *
 * Lookup and insert are mutex-guarded and safe from any thread;
 * build/hit/miss counters are atomic, so the stats are exact under
 * concurrency (the TSan-covered service tests hammer exactly this
 * path). Plans depend on the device's FPU width (issue cycles), so a
 * SharedPlanCache is bound to one DeviceConfig and executors assert
 * compatibility when attaching.
 *
 * Both caches are striped: entries land in one of numShards
 * independent (mutex, table, counter) stripes selected by a mix of
 * the content hash, so hundreds of concurrent tenants hammering the
 * same cache serialize only per stripe, never globally. Stats stay
 * exact — counters are atomic per stripe and stats() sums them — and
 * the first-insert-wins rule holds per key exactly as before (a
 * key's stripe is a pure function of the key).
 */

#ifndef GT_GPU_PLAN_CACHE_HH
#define GT_GPU_PLAN_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "gpu/detailed_checkpoint.hh"
#include "gpu/device_config.hh"
#include "isa/slice.hh"
#include "isa/uop.hh"

namespace gt::gpu
{

/**
 * Everything an executor derives from one kernel binary before
 * running it: the uop lowering, the relevance slice, issue-cycle
 * tables, and the gang verdict. Immutable once built (the executor
 * builds it fully, then publishes). Shape fields double as a
 * belt-and-braces check against content-hash collisions.
 */
struct ExecPlan
{
    size_t numBlocks = 0;
    uint64_t numInstrs = 0;

    isa::Relevance rel;
    /** Predecoded micro-op program. */
    isa::UopProgram prog;
    /** Issue cycles per block (application + instrumentation). */
    std::vector<double> blockCycles;
    /** blockCycles flattened parallel to prog.members, so the
     * per-superblock accrual reads sequentially instead
     * of chasing member -> block indirections. */
    std::vector<double> memberCycles;
    /** Total instructions per block (for the runaway limit). */
    std::vector<uint64_t> blockInstrs;
    /** Registers [0, clearRegs) may be read before written; reset
     * zeroes exactly these (0 = the kernel reads no registers). */
    uint16_t clearRegs = 0;
    /** Kernel touches shared-local memory, so reset must clear
     * the 16 KB local block; provably untouched => skipped. */
    bool usesLocal = false;
    /** Gang-safety verdict (see isa/slice.hh). */
    isa::GangSafety gang;

    /** @return whether this plan matches @p bin's shape. */
    bool
    matchesShape(const isa::KernelBinary &bin) const
    {
        return numBlocks == bin.blocks.size() &&
            numInstrs == bin.staticInstrCount();
    }

    /** Approximate resident bytes of this plan's owned storage (the
     * service's footprint accounting; deterministic, not exact
     * allocator truth). */
    uint64_t memoryBytes() const;
};

/** Exact concurrent counters for one shared cache (or one of its
 * stripes). */
struct SharedCacheStats
{
    uint64_t builds = 0;  //!< artifacts built and published
    uint64_t hits = 0;    //!< lookups served from the cache
    uint64_t misses = 0;  //!< lookups that found nothing

    SharedCacheStats &
    operator+=(const SharedCacheStats &o)
    {
        builds += o.builds;
        hits += o.hits;
        misses += o.misses;
        return *this;
    }
};

/** Stripes per sharded cache; a power of two so the selector is a
 * multiply and shift of the content hash. */
constexpr unsigned numCacheShards = 16;

/** Stripe of @p content_hash: Fibonacci-mix then take the top bits,
 * so stripes stay balanced even for structured hash values. */
inline unsigned
cacheShardOf(uint64_t content_hash)
{
    return (unsigned)((content_hash * 0x9e3779b97f4a7c15ULL) >>
                      (64 - 4)) %
           numCacheShards;
}

/**
 * Cross-driver memo table of ExecPlans, keyed on binary content
 * hash. Thread-safe; bound to one device configuration; striped
 * numCacheShards ways (see the file comment).
 */
class SharedPlanCache
{
  public:
    explicit SharedPlanCache(const DeviceConfig &config)
        : config_(config)
    {
    }

    SharedPlanCache(const SharedPlanCache &) = delete;
    SharedPlanCache &operator=(const SharedPlanCache &) = delete;

    /** @return the plan for @p content_hash, or null on miss. */
    std::shared_ptr<const ExecPlan>
    find(uint64_t content_hash) const
    {
        const Shard &shard = shards[cacheShardOf(content_hash)];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.table.find(content_hash);
        if (it == shard.table.end()) {
            shard.missCount.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        shard.hitCount.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /**
     * Publish a fully built plan. First insert wins: if another
     * thread raced a build of the same binary in first, its plan is
     * returned and @p plan is discarded, so every executor adopts
     * one canonical artifact.
     */
    std::shared_ptr<const ExecPlan>
    insert(uint64_t content_hash, std::shared_ptr<const ExecPlan> plan)
    {
        Shard &shard = shards[cacheShardOf(content_hash)];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto [it, fresh] =
            shard.table.emplace(content_hash, std::move(plan));
        if (fresh)
            shard.buildCount.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /** Exact counters summed over every stripe. */
    SharedCacheStats
    stats() const
    {
        SharedCacheStats s;
        for (unsigned i = 0; i < numCacheShards; ++i)
            s += shardStats(i);
        return s;
    }

    /** Exact counters of stripe @p shard. */
    SharedCacheStats
    shardStats(unsigned shard) const
    {
        const Shard &sh = shards[shard];
        SharedCacheStats s;
        s.builds = sh.buildCount.load(std::memory_order_relaxed);
        s.hits = sh.hitCount.load(std::memory_order_relaxed);
        s.misses = sh.missCount.load(std::memory_order_relaxed);
        return s;
    }

    size_t
    size() const
    {
        size_t n = 0;
        for (const Shard &shard : shards) {
            std::lock_guard<std::mutex> lock(shard.mu);
            n += shard.table.size();
        }
        return n;
    }

    /** Approximate resident bytes of every cached plan plus table
     * overhead (see ExecPlan::memoryBytes). */
    uint64_t memoryBytes() const;

    const DeviceConfig &deviceConfig() const { return config_; }

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<uint64_t, std::shared_ptr<const ExecPlan>>
            table;
        std::atomic<uint64_t> buildCount{0};
        mutable std::atomic<uint64_t> hitCount{0};
        mutable std::atomic<uint64_t> missCount{0};
    };

    const DeviceConfig config_;
    std::array<Shard, numCacheShards> shards;
};

/**
 * Cross-driver memo table of DetailedCheckpoints, keyed on dispatch
 * identity with the binary identified by content hash instead of a
 * driver-local kernel id. Checkpoints reference their binary; since
 * a tenant's binaries die with its driver, insert() re-points the
 * stored checkpoint at an interned immutable clone owned by the
 * cache, so adopted checkpoints outlive every tenant. Thread-safe;
 * striped numCacheShards ways on the binary content hash, with the
 * binary-clone intern table striped alongside (a key's stripe is a
 * pure function of binaryHash, so every checkpoint of one kernel
 * still shares one clone).
 */
class SharedCheckpointCache
{
  public:
    struct Key
    {
        uint64_t binaryHash = 0;
        uint64_t globalSize = 0;
        uint8_t simdWidth = 0;
        uint64_t argsHash = 0;
        uint64_t traceCap = 0;

        bool
        operator==(const Key &o) const
        {
            return binaryHash == o.binaryHash &&
                globalSize == o.globalSize &&
                simdWidth == o.simdWidth && argsHash == o.argsHash &&
                traceCap == o.traceCap;
        }
    };

    SharedCheckpointCache() = default;
    SharedCheckpointCache(const SharedCheckpointCache &) = delete;
    SharedCheckpointCache &
    operator=(const SharedCheckpointCache &) = delete;

    /** @return the checkpoint for @p key, or null on miss. */
    std::shared_ptr<const DetailedCheckpoint> find(const Key &key) const;

    /**
     * Publish a fully built checkpoint, cloning @p binary into the
     * cache and re-pointing the stored copy at the clone. First
     * insert wins; the canonical checkpoint is returned.
     */
    std::shared_ptr<const DetailedCheckpoint>
    insert(const Key &key, const DetailedCheckpoint &ckpt,
           const isa::KernelBinary &binary);

    SharedCacheStats stats() const;
    size_t size() const;

    /** Approximate resident bytes of every adopted checkpoint and
     * interned binary clone, plus table overhead. */
    uint64_t memoryBytes() const;

  private:
    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            uint64_t h = k.binaryHash;
            h = h * 0x100000001b3ULL ^ k.globalSize;
            h = h * 0x100000001b3ULL ^ k.simdWidth;
            h = h * 0x100000001b3ULL ^ k.argsHash;
            h = h * 0x100000001b3ULL ^ k.traceCap;
            return (size_t)h;
        }
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<Key,
                           std::shared_ptr<const DetailedCheckpoint>,
                           KeyHash>
            table;
        /** Interned binary clones, keyed on content hash, so every
         * checkpoint of one kernel shares one clone (all keys of one
         * binary land in this stripe). */
        std::unordered_map<uint64_t,
                           std::shared_ptr<const isa::KernelBinary>>
            binaries;
        std::atomic<uint64_t> buildCount{0};
        mutable std::atomic<uint64_t> hitCount{0};
        mutable std::atomic<uint64_t> missCount{0};
    };

    /** A key's stripe follows its binary hash so the checkpoint and
     * its interned binary share one lock. */
    static unsigned
    shardOf(const Key &key)
    {
        return cacheShardOf(key.binaryHash);
    }

    std::array<Shard, numCacheShards> shards;
};

} // namespace gt::gpu

#endif // GT_GPU_PLAN_CACHE_HH
