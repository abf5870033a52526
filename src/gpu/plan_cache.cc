#include "gpu/plan_cache.hh"

#include "isa/kernel.hh"

namespace gt::gpu
{

namespace
{

/** Heap bytes of a vector's live elements (capacity slack ignored —
 * the accounting is deterministic, not allocator truth). */
template <typename T>
uint64_t
vecBytes(const std::vector<T> &v)
{
    return v.size() * sizeof(T);
}

uint64_t
binaryBytes(const isa::KernelBinary &bin)
{
    uint64_t bytes = sizeof(bin) + bin.name.size();
    bytes += vecBytes(bin.blocks);
    for (const isa::BasicBlock &block : bin.blocks)
        bytes += vecBytes(block.instrs);
    return bytes;
}

} // namespace

uint64_t
ExecPlan::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    // Relevance: vector<bool> packs ~1 bit per instruction.
    bytes += vecBytes(rel.relevant);
    for (const auto &row : rel.relevant)
        bytes += (row.size() + 7) / 8;
    bytes += vecBytes(prog.supers) + vecBytes(prog.members) +
             vecBytes(prog.memberUopEnd) +
             vecBytes(prog.memberFastUopEnd) + vecBytes(prog.uops) +
             vecBytes(prog.fastUops) + vecBytes(prog.superOf);
    bytes += vecBytes(blockCycles) + vecBytes(memberCycles) +
             vecBytes(blockInstrs);
    return bytes;
}

uint64_t
SharedPlanCache::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[hash, plan] : shard.table) {
            (void)hash;
            // Hash-node estimate: key/value pair plus bucket link.
            bytes += sizeof(uint64_t) +
                     sizeof(std::shared_ptr<const ExecPlan>) +
                     2 * sizeof(void *);
            bytes += plan->memoryBytes();
        }
    }
    return bytes;
}

std::shared_ptr<const DetailedCheckpoint>
SharedCheckpointCache::find(const Key &key) const
{
    const Shard &shard = shards[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(key);
    if (it == shard.table.end()) {
        shard.missCount.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard.hitCount.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

std::shared_ptr<const DetailedCheckpoint>
SharedCheckpointCache::insert(const Key &key,
                              const DetailedCheckpoint &ckpt,
                              const isa::KernelBinary &binary)
{
    Shard &shard = shards[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto bit = shard.binaries.find(key.binaryHash);
    if (bit == shard.binaries.end()) {
        bit = shard.binaries
                  .emplace(key.binaryHash,
                           std::make_shared<const isa::KernelBinary>(
                               binary))
                  .first;
    }
    auto copy = std::make_shared<DetailedCheckpoint>(ckpt);
    copy->binary = bit->second.get();
    auto [it, fresh] = shard.table.emplace(key, std::move(copy));
    if (fresh)
        shard.buildCount.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

SharedCacheStats
SharedCheckpointCache::stats() const
{
    SharedCacheStats s;
    for (const Shard &shard : shards) {
        s.builds += shard.buildCount.load(std::memory_order_relaxed);
        s.hits += shard.hitCount.load(std::memory_order_relaxed);
        s.misses += shard.missCount.load(std::memory_order_relaxed);
    }
    return s;
}

size_t
SharedCheckpointCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.table.size();
    }
    return n;
}

uint64_t
SharedCheckpointCache::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, ckpt] : shard.table) {
            (void)key;
            bytes += sizeof(Key) +
                     sizeof(std::shared_ptr<
                            const DetailedCheckpoint>) +
                     2 * sizeof(void *);
            bytes += sizeof(DetailedCheckpoint) +
                     ckpt->trace.size() * sizeof(uint32_t);
        }
        for (const auto &[hash, bin] : shard.binaries) {
            (void)hash;
            bytes += sizeof(uint64_t) +
                     sizeof(std::shared_ptr<
                            const isa::KernelBinary>) +
                     2 * sizeof(void *);
            bytes += binaryBytes(*bin);
        }
    }
    return bytes;
}

} // namespace gt::gpu
