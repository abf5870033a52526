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
 * Records are joined once (join()) and sealed (fromRows()) into an
 * on-disk compressed columnar spill (core/trace_store) that keeps
 * only block-index metadata resident; profiles decode on demand
 * through per-thread block caches.
 *
 * Every accessor of the sealed database returns bitwise the values
 * of the joined rows it was sealed from: totals accumulate
 * left-to-right in dispatch order, seconds are stored as raw doubles
 * and range sums always accumulate left-to-right over the dense
 * column, and the integer columns round-trip exactly.
 */

#ifndef GT_CORE_TRACE_DB_HH
#define GT_CORE_TRACE_DB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
    TraceDatabase();
    ~TraceDatabase();
    /** Copies share the immutable store. */
    TraceDatabase(const TraceDatabase &);
    TraceDatabase &operator=(const TraceDatabase &);
    TraceDatabase(TraceDatabase &&) noexcept;
    TraceDatabase &operator=(TraceDatabase &&) noexcept;

    /**
     * Join GT-Pin profiles with CoFluent timings and the API call
     * stream into dispatch-ordered rows. @p profiles and @p timings
     * must cover the same dispatches (matched by sequence number, in
     * order), and every dispatch must appear in @p call_stream; its
     * sync epoch comes from assignEpochs().
     */
    static std::vector<DispatchRecord>
    join(std::vector<gtpin::DispatchProfile> profiles,
         const std::vector<cfl::KernelTiming> &timings,
         const std::vector<ocl::ApiCallRecord> &call_stream);

    /**
     * Run the synchronization-epoch walk over a call stream,
     * returning (dispatch seq, epoch) pairs in ascending seq order.
     * Each dispatch gets the epoch its Kernel call was issued in;
     * the counter advances at every sync call that separated kernel
     * work. A dispatch's epoch depends only on the calls before its
     * own Kernel call, so the walk over a prefix of a stream assigns
     * that prefix's dispatches the same epochs as the whole walk.
     */
    static std::vector<std::pair<uint64_t, uint64_t>>
    assignEpochs(const std::vector<ocl::ApiCallRecord> &calls);

    /**
     * Seal already-joined @p rows into a columnar spill. Rows must
     * be in ascending seq order with non-decreasing sync epochs.
     */
    static TraceDatabase
    fromRows(std::vector<DispatchRecord> rows,
             uint32_t block_size = trace_store::defaultBlockSize);

    /** join() followed by fromRows(): the batch path every profiled
     * run and every test oracle seals through. */
    static TraceDatabase
    build(std::vector<gtpin::DispatchProfile> profiles,
          const std::vector<cfl::KernelTiming> &timings,
          const std::vector<ocl::ApiCallRecord> &call_stream,
          uint32_t block_size = trace_store::defaultBlockSize);

    /**
     * Open a persistent columnar archive written by writeArchive().
     * The totals are derived from the mapped columns exactly as
     * fromRows() derives them, so the result is bitwise identical to
     * the database that was archived.
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

    /**
     * Write the sealed columnar file to a persistent archive at
     * @p path: the spill's already-encoded bytes, copied as they
     * are. openColumnarFile() reopens it bitwise identical. The
     * database must not be empty.
     */
    void writeArchive(const std::string &path) const;

  private:
    /** Adopt @p store (null when empty), deriving the count, totals,
     * epoch count and SPI from its columns. */
    static TraceDatabase
    fromStore(std::shared_ptr<const trace_store::ColumnarStore> store);

    uint64_t count = 0;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
    uint64_t syncEpochs = 0;
    double spiCached = 0.0; //!< secondsTotal / instrTotal at build

    /** The mapped spill (null when empty). */
    std::shared_ptr<const trace_store::ColumnarStore> store;
};

} // namespace gt::core

#endif // GT_CORE_TRACE_DB_HH
