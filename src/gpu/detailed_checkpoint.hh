/**
 * @file
 * Functional artifacts for detailed simulation: checkpoints.
 *
 * A DetailedCheckpoint is everything the cycle-level machine layer
 * needs from the *functional* world to replay one dispatch: the
 * representative thread's basic-block trace, the Fast-mode profile
 * facts (thread count, dynamic instructions), and the derived
 * truncation scaling. It is produced once per distinct dispatch by
 * the executor's checkpoint() hook — a Fast-mode run
 * plus one control-slice trace walk — and is then valid for *every*
 * design point, frequency, and latency setting, because none of its
 * fields depend on machine parameters. This is what lets a
 * validation sweep fast-forward the functional work: non-selected
 * intervals are never walked cycle-by-cycle, and selected intervals
 * pay the functional pre-pass once instead of once per design point.
 *
 * CheckpointStore is the memo table over dispatch identity
 * (kernel id, ND-range, SIMD width, argument hash) that the driver
 * exposes (GpuDriver::checkpoint) so figure benches and the
 * DetailedValidator share one functional pre-pass per distinct
 * dispatch. Its thread-safety contract is the "fully built ⇒ const,
 * shareable" rule: get() builds through the (stateful) executor and
 * must run single-threaded — callers populate the store from one
 * thread — but once a checkpoint is in the table it is never
 * mutated, so the warm store is safely shared. findWarm() is the
 * concurrent read path (const, no executor, no insertion) the
 * machine layer's parallel fan-out and the profiling service use
 * after warm-up; the hit/build counters are atomic so stats stay
 * exact when warm lookups race.
 */

#ifndef GT_GPU_DETAILED_CHECKPOINT_HH
#define GT_GPU_DETAILED_CHECKPOINT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "isa/kernel.hh"

namespace gt::gpu
{

class Executor;
struct Dispatch;

/** Per-dispatch functional artifact, reused across design points. */
struct DetailedCheckpoint
{
    const isa::KernelBinary *binary = nullptr;

    /** The representative thread's basic-block trace (Fast mode),
     * truncated at the recording cap it was built with. */
    std::vector<uint32_t> trace;

    /** Application instructions along the recorded trace. */
    uint64_t tracedInstrs = 0;

    /** Hardware threads of the dispatch (ceil(globalSize/simd)). */
    uint64_t numThreads = 0;

    /** Dynamic application instructions of the whole dispatch. */
    uint64_t dynInstrs = 0;

    /** Per-thread dynamic instructions incl. instrumentation. */
    double perThreadInstrs = 0.0;

    /** Cycle scale-up for the untraced remainder (>= 1; exactly 1
     * when the trace covers the whole per-thread execution). */
    double truncation = 1.0;
};

/**
 * Memo table of checkpoints keyed by dispatch identity. References
 * returned by get() stay valid for the store's lifetime.
 */
class CheckpointStore
{
  public:
    /**
     * The checkpoint for @p dispatch, building it through @p exec
     * (one Fast run + one trace walk) on the first request only.
     * @p kernel_id disambiguates binaries; @p trace_cap is the
     * block-trace recording cap and participates in the identity, so
     * differently-capped requests do not alias.
     */
    const DetailedCheckpoint &get(Executor &exec,
                                  const Dispatch &dispatch,
                                  uint32_t kernel_id,
                                  uint64_t trace_cap = 4'000'000);

    /**
     * Concurrent read path: the memoized checkpoint for the dispatch
     * identity, or null if it has not been built. Never builds and
     * never mutates the table, so any number of threads may call it
     * while no thread is inside get() — the contract the service's
     * TSan tests pin down.
     */
    const DetailedCheckpoint *findWarm(const Dispatch &dispatch,
                                       uint32_t kernel_id,
                                       uint64_t trace_cap =
                                           4'000'000) const;

    /** Distinct checkpoints built so far. */
    size_t size() const { return table.size(); }

    /** Functional pre-passes actually executed. */
    uint64_t
    builds() const
    {
        return buildCount.load(std::memory_order_relaxed);
    }

    /** Requests served from the memo table. */
    uint64_t
    hits() const
    {
        return hitCount.load(std::memory_order_relaxed);
    }

    void clear() { table.clear(); }

  private:
    struct Key
    {
        uint32_t kernel = 0;
        uint64_t globalSize = 0;
        uint8_t simdWidth = 0;
        uint64_t argsHash = 0;
        uint64_t traceCap = 0;

        bool
        operator<(const Key &o) const
        {
            if (kernel != o.kernel)
                return kernel < o.kernel;
            if (globalSize != o.globalSize)
                return globalSize < o.globalSize;
            if (simdWidth != o.simdWidth)
                return simdWidth < o.simdWidth;
            if (argsHash != o.argsHash)
                return argsHash < o.argsHash;
            return traceCap < o.traceCap;
        }
    };

    std::map<Key, DetailedCheckpoint> table;
    std::atomic<uint64_t> buildCount{0};
    mutable std::atomic<uint64_t> hitCount{0};
};

/** FNV-1a over argument words (the KN-ARGS identity). */
uint64_t dispatchArgsHash(const std::vector<uint32_t> &args);

} // namespace gt::gpu

#endif // GT_GPU_DETAILED_CHECKPOINT_HH
