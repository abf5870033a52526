/**
 * @file
 * The joined profiling database the selection pipeline runs on.
 *
 * Subset selection needs two independent data sources the paper
 * collects in one native profiling run: the GT-Pin custom tool's
 * per-invocation device profiles (instruction counts, basic-block
 * vectors, bytes read/written) and the CoFluent host trace (API call
 * stream with synchronization points, per-kernel wall times).
 * TraceDatabase joins them by dispatch sequence number and marks
 * which dispatches begin a new synchronization epoch — the only
 * places a GPU simulation interval may legally start or stop.
 *
 * Records are joined by a Builder, whose rows stay fully resident,
 * and sealing lowers them into an on-disk compressed columnar spill
 * (core/trace_store) that keeps only block-index metadata resident;
 * profiles decode on demand through per-thread block caches.
 *
 * Every accessor of the sealed database returns bitwise the values
 * of the builder's resident rows — the oracle the tests compare it
 * against: totals accumulate in the builder's FP order, seconds are
 * stored as raw doubles and range sums always accumulate
 * left-to-right over the dense column, and the integer columns
 * round-trip exactly.
 */

#ifndef GT_CORE_TRACE_DB_HH
#define GT_CORE_TRACE_DB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cfl/tracer.hh"
#include "gtpin/kernel_profile.hh"

namespace gt::core
{

namespace trace_store
{
class ColumnarStore;
constexpr uint32_t defaultBlockSize = 256;
} // namespace trace_store

/** One kernel invocation, fully joined. */
struct DispatchRecord
{
    gtpin::DispatchProfile profile;  //!< GT-Pin device profile
    double seconds = 0.0;            //!< CoFluent invocation time
    /** Index of the synchronization epoch this dispatch belongs to
     * (increments at every sync call that separated dispatches). */
    uint64_t syncEpoch = 0;
};

/** Where one database's bytes live; see memoryFootprint(). */
struct TraceDbFootprint
{
    /** Resident column/index metadata: the block index, name table,
     * and epoch runs. */
    uint64_t columnBytes = 0;
    /** Encoded profile payload bytes (on disk). */
    uint64_t profileBytes = 0;
    /** Spill-file bytes backing the mapping. */
    uint64_t fileBytes = 0;
    /** Decoded-block bytes in the *calling thread's* cache. */
    uint64_t cacheBytes = 0;
    /** Total bytes resident in memory for this database (columns +
     * this thread's cache). */
    uint64_t residentBytes = 0;
};

/**
 * The whole profiled execution of one application.
 *
 * **Thread safety:** a fully built TraceDatabase is immutable — the
 * only mutating operation is build(), which returns by value — and
 * every public accessor is const and touches no shared mutable
 * state (the decode caches are thread_local).
 * Any number of scheduler tasks may therefore read one instance
 * concurrently with no synchronization; the 30-config explorer and
 * the fig8 validation fan-out rely on exactly this. Keep it that
 * way: adding lazily-computed shared (mutable) state to this class
 * requires revisiting every parallel caller. The totals, prefix
 * sums, and measured SPI below are computed eagerly by build() for
 * the same reason.
 *
 * **Reference lifetime:** profileAt() returns a reference into the
 * calling thread's decoded-block cache, valid until that thread
 * touches several (>= the cache's slot count) other blocks. Copy
 * the profile to hold it longer.
 */
class TraceDatabase
{
  public:
    class Builder;

    TraceDatabase();
    ~TraceDatabase();
    TraceDatabase(TraceDatabase &&) noexcept;
    TraceDatabase &operator=(TraceDatabase &&) noexcept;

    /**
     * Join GT-Pin profiles with CoFluent timings and the API call
     * stream. @p profiles and @p timings must cover the same
     * dispatches (matched by sequence number, in order).
     * Implemented as a Builder fed everything then sealed, so the
     * batch and incremental paths are one code path and bitwise
     * equality between them holds by construction.
     */
    static TraceDatabase
    build(std::vector<gtpin::DispatchProfile> profiles,
          const std::vector<cfl::KernelTiming> &timings,
          const std::vector<ocl::ApiCallRecord> &call_stream,
          uint32_t block_size = trace_store::defaultBlockSize);

    /**
     * Open a persistent columnar archive written by
     * Builder::writeArchive(). The totals are recomputed from the
     * mapped columns in the same left-to-right order build()
     * accumulated them, so the result is bitwise identical to the
     * database that was archived.
     */
    static TraceDatabase openColumnarFile(const std::string &path);

    uint64_t numDispatches() const { return count; }

    /** Dispatch @p i's device profile (see the class comment for
     * the reference lifetime). */
    const gtpin::DispatchProfile &profileAt(uint64_t i) const;

    /** Dispatch @p i's CoFluent kernel seconds. */
    double seconds(uint64_t i) const;

    /** Synchronization epoch dispatch @p i belongs to. */
    uint64_t syncEpoch(uint64_t i) const;

    /** Total dynamic application instructions across dispatches. */
    uint64_t totalInstrs() const { return instrTotal; }

    /** Total kernel execution seconds across dispatches. */
    double totalSeconds() const { return secondsTotal; }

    /** Number of synchronization epochs containing dispatches. */
    uint64_t numSyncEpochs() const { return syncEpochs; }

    /**
     * Dynamic instructions of dispatches [first, last], both
     * inclusive. O(1): integer prefix sums are exact, so the
     * subtraction equals the ordered sum the interval builder and
     * error replays used to re-accumulate.
     */
    uint64_t rangeInstrs(uint64_t first, uint64_t last) const;

    /**
     * Kernel seconds of dispatches [first, last], both inclusive.
     * Accumulated left-to-right over the dense seconds column — NOT
     * a prefix-sum subtraction, which would not be bitwise identical
     * to the ordered sum for doubles.
     */
    double rangeSeconds(uint64_t first, uint64_t last) const;

    /** The dense per-dispatch seconds column (numDispatches()
     * entries, mapped; null when empty). */
    const double *secondsData() const;

    /**
     * Whole-program measured seconds-per-instruction: the left side
     * of the paper's Eq. 1. Cached at build() — fig6/fig8 replay
     * loops call this per interval set.
     */
    double measuredSpi() const;

    /** Where this database's bytes live (columns, profile payloads,
     * spill file, this thread's decode cache). */
    TraceDbFootprint memoryFootprint() const;

  private:
    uint64_t count = 0;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
    uint64_t syncEpochs = 0;
    double spiCached = 0.0; //!< secondsTotal / instrTotal at build

    /** The mapped spill (null when empty). */
    std::shared_ptr<const trace_store::ColumnarStore> store;
};

/**
 * Streaming construction of a TraceDatabase, one dispatch at a time.
 *
 * The batch join consumes three complete streams; the profiling
 * service sees the same data trickle in as a replay progresses: API
 * calls at issue time, then the matching (profile, timing) pair when
 * the dispatch drains. The builder accepts exactly that order —
 * observeCall() advances the synchronization-epoch walk, append()
 * joins one dispatch — and maintains the same running totals, prefix
 * sums, and dense seconds column build() computes, in the same
 * left-to-right FP order, so seal() at any point yields a database
 * bitwise identical to build() over the prefix fed so far. A
 * dispatch's epoch depends only on calls issued before its own
 * Kernel call, which is why assignment at append time matches the
 * batch walk at any arrival granularity.
 *
 * The prefix accessors mirror the TraceDatabase query API so the
 * incremental interval builder can run against an unsealed prefix.
 * Builders are copyable (cheap relative to a replay) — tests seal
 * copies mid-stream to compare against batch oracles, and check
 * every sealed accessor against the builder's resident rows.
 */
class TraceDatabase::Builder
{
  public:
    /**
     * The synchronization-epoch walk's restart state: the epoch
     * counter, whether the open epoch saw kernel work, and the
     * pending (observed Kernel call, dispatch not yet drained)
     * assignments. Appended dispatches consume their entry, so this
     * stays O(in-flight dispatches), not O(history) — it is the only
     * builder state an evicted session must keep resident to resume
     * its call stream after rehydration.
     */
    struct EpochWalk
    {
        std::map<uint64_t, uint64_t> pending;
        uint64_t epoch = 0;
        bool hasWork = false;
    };

    /** Advance the epoch walk over one host API call. Kernel calls
     * must be observed before the dispatch they issue is appended. */
    void observeCall(const ocl::ApiCallRecord &call);

    /** Join one drained dispatch (profile + CoFluent timing). Must
     * arrive in dispatch order with its Kernel call observed. */
    void append(gtpin::DispatchProfile profile,
                const cfl::KernelTiming &timing);

    /**
     * Join one already-epoch-assigned dispatch, bypassing the epoch
     * walk. The totals accumulate exactly as append() does, so a
     * builder re-fed from an archived database (rehydration) or from
     * a cached replay artifact (the warm admission path) is bitwise
     * identical to one that joined the live stream.
     */
    void appendJoined(gtpin::DispatchProfile profile, double seconds,
                      uint64_t sync_epoch);

    /**
     * Run the epoch walk over a complete call stream once, returning
     * (dispatch seq, epoch) pairs in ascending seq order — the
     * assignments append() would have produced. Computed once per
     * replay artifact so warm submissions skip the per-dispatch walk
     * entirely.
     */
    static std::vector<std::pair<uint64_t, uint64_t>>
    assignEpochs(const std::vector<ocl::ApiCallRecord> &calls);

    /** Snapshot the epoch walk (see EpochWalk). */
    EpochWalk walkState() const;

    /** Restore a walk snapshot taken by walkState(). */
    void restoreWalk(EpochWalk walk);

    /** Dispatches appended so far. */
    uint64_t numAppended() const { return records.size(); }

    const gtpin::DispatchProfile &
    profileAt(uint64_t i) const
    {
        return records[i].profile;
    }

    double seconds(uint64_t i) const { return records[i].seconds; }

    uint64_t
    syncEpoch(uint64_t i) const
    {
        return records[i].syncEpoch;
    }

    uint64_t totalInstrs() const { return instrTotal; }

    double totalSeconds() const { return secondsTotal; }

    /** Dynamic instructions of appended dispatches [first, last],
     * both inclusive (exact prefix-sum subtraction). */
    uint64_t
    rangeInstrs(uint64_t first, uint64_t last) const
    {
        return instrPrefix[last + 1] - instrPrefix[first];
    }

    /** Kernel seconds of [first, last], accumulated left-to-right
     * like TraceDatabase::rangeSeconds. */
    double
    rangeSeconds(uint64_t first, uint64_t last) const
    {
        double acc = 0.0;
        for (uint64_t i = first; i <= last; ++i)
            acc += secondsCol[i];
        return acc;
    }

    /** Resident bytes of the builder: joined records (including the
     * profiles' heap), the prefix/seconds columns, and the pending
     * epoch walk. What session eviction reclaims. */
    uint64_t memoryBytes() const;

    /**
     * Write everything appended so far to a persistent named
     * columnar archive at @p path (same format as the spill files,
     * but kept). TraceDatabase::openColumnarFile() reopens it;
     * re-feeding a builder from the reopened archive reproduces this
     * builder's joined state bit for bit.
     */
    void writeArchive(const std::string &path,
                      uint32_t block_size =
                          trace_store::defaultBlockSize) const;

    /**
     * Produce the database for everything appended so far, spilled
     * straight from the resident rows; the builder keeps streaming.
     * Bitwise identical to build() over the same prefix.
     */
    TraceDatabase
    seal(uint32_t block_size = trace_store::defaultBlockSize) const;

  private:
    std::vector<DispatchRecord> records;
    std::vector<uint64_t> instrPrefix{0};
    std::vector<double> secondsCol;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;

    // Incremental synchronization-epoch walk.
    std::map<uint64_t, uint64_t> epochOf;
    uint64_t epoch = 0;
    bool epochHasWork = false;
};

} // namespace gt::core

#endif // GT_CORE_TRACE_DB_HH
