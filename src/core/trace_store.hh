/**
 * @file
 * The on-disk compressed columnar store behind TraceDatabase.
 *
 * The paper's workflow collects profiles once and re-queries them
 * many times — interval building, the 30-configuration exploration,
 * fig6/fig8 error replays — which is exactly the access pattern an
 * immutable columnar store serves best. Instead of keeping every
 * DispatchProfile resident for the whole run (the old all-in-memory
 * TraceDatabase), build() lowers the joined records into one spill
 * file of per-column sections mirroring the in-memory SoA:
 *
 *  - per-dispatch kernel seconds as a raw dense double column
 *    (queried through the mapping, so range sums read the exact
 *    bits the in-memory column held);
 *  - the monotone instruction prefix sums delta+varint encoded,
 *    with an absolute anchor per block so prefix lookups decode at
 *    most one block;
 *  - sync epochs run-length encoded (they change rarely);
 *  - per-dispatch profile payloads (args, basic-block count/len/
 *    read/write vectors, bytes R/W) varint-packed in dispatch order
 *    with kernel names interned into one table;
 *  - a block index every blockSize dispatches, so random profile
 *    access decodes only the touched block.
 *
 * Reads go through an mmap'd immutable view plus a small per-thread
 * decoded-block cache (thread_local, so a fully built store stays
 * shareable across scheduler tasks with no locks — the same
 * "fully built => const" contract trace_db.hh documents). Every
 * accessor returns values bitwise identical to the joined rows it
 * was spilled from: integers round-trip exactly through varints,
 * doubles are stored raw, and strings round-trip through the name
 * table.
 *
 * The file begins with a versioned magic header that records the
 * total file size; a short, truncated, or corrupt file fails with a
 * clear FatalError (never a wild read — all section offsets are
 * bounds-checked and every block decode must consume its indexed
 * byte range exactly).
 */

#ifndef GT_CORE_TRACE_STORE_HH
#define GT_CORE_TRACE_STORE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/trace_db.hh"

namespace gt::core::trace_store
{

// defaultBlockSize (dispatches per indexed block, the decode
// granularity) lives in trace_db.hh so build() can default to it
// without this header.

struct ColumnarOptions
{
    uint32_t blockSize = defaultBlockSize;
};

/**
 * Decoded-block bytes currently held by the *calling thread's* cache
 * for stores that are still alive. Dead stores' slots are swept
 * first (see the invalidation note on ColumnarStore), so the figure
 * never counts pinned garbage — the profiling service's footprint
 * accounting and the eviction tests read this.
 */
uint64_t threadCacheResidentBytes();

/**
 * One immutable columnar trace file, mapped read-only.
 *
 * Thread safety: all accessors are const and touch only the
 * immutable mapping plus the calling thread's thread-local decode
 * cache, so any number of scheduler tasks may query one store
 * concurrently with no synchronization.
 *
 * Reference lifetime: profileAt() returns a reference into the
 * calling thread's decoded-block cache; it stays valid until that
 * thread accesses several (>= the cache's slot count) *other*
 * blocks. Copy the profile to hold it longer.
 *
 * Cache invalidation: destroying a store bumps a process-wide close
 * generation; every thread's next cache access sweeps slots whose
 * owning store died. Without the sweep, a service creating many
 * short-lived sealed databases would leave each thread's 8 slots
 * pinning decoded blocks (and keys) of freed mappings indefinitely.
 */
class ColumnarStore
{
  public:
    /** Encode @p records into a fresh spill file under
     * GT_TRACEDB_DIR, then TMPDIR, then /tmp (created, mapped, then
     * immediately unlinked, so it can never leak), and return the
     * opened store. */
    static std::shared_ptr<const ColumnarStore>
    spill(const std::vector<DispatchRecord> &records,
          const ColumnarOptions &options = {});

    /** Write this store's encoded file to @p path, byte for byte
     * (no re-encode); openFile() reopens it. */
    void writeTo(const std::string &path) const;

    /** Map and validate an existing columnar trace file. Fatal on
     * bad magic, version, truncation, or a corrupt index. */
    static std::shared_ptr<const ColumnarStore>
    openFile(const std::string &path);

    ~ColumnarStore();
    ColumnarStore(const ColumnarStore &) = delete;
    ColumnarStore &operator=(const ColumnarStore &) = delete;

    uint64_t numDispatches() const { return count; }
    uint32_t blockSize() const { return blockLen; }
    uint64_t totalInstrs() const { return instrTotal; }

    /** The dense per-dispatch seconds column, straight off the
     * mapping (count entries). */
    const double *secondsData() const { return secondsPtr; }

    double seconds(uint64_t i) const;

    uint64_t syncEpoch(uint64_t i) const;

    /** Instructions of all dispatches before @p i (i in [0,
     * count]), exact. */
    uint64_t instrPrefixAt(uint64_t i) const;

    /** Decode (or fetch from the calling thread's cache) dispatch
     * @p i's full profile; see the class comment for the returned
     * reference's lifetime. */
    const gtpin::DispatchProfile &profileAt(uint64_t i) const;

    /** Total bytes of the backing file. */
    uint64_t fileBytes() const { return mapLen; }

    /** Encoded profile-payload section bytes (on disk, not
     * resident). */
    uint64_t payloadBytes() const;

    /** Resident metadata: block index, name table, epoch runs, and
     * the store object itself. Excludes the file-backed mapping and
     * per-thread caches. */
    uint64_t residentBytes() const;

    /** Decoded-block bytes the *calling thread's* cache currently
     * holds for this store. */
    uint64_t cacheBytesThisThread() const;

  private:
    ColumnarStore() = default;

    /** Validate the mapping and load resident metadata. */
    void load(const std::string &what);

    uint64_t blockOf(uint64_t i) const { return i / blockLen; }
    uint64_t blockCount(uint64_t block) const;

    const uint8_t *map = nullptr; //!< whole-file mapping
    uint64_t mapLen = 0;
    uint64_t count = 0;     //!< dispatches
    uint32_t blockLen = 0;  //!< dispatches per block
    uint64_t numBlocks = 0;
    uint64_t instrTotal = 0;
    uint64_t storeId = 0;   //!< per-process unique cache key

    const double *secondsPtr = nullptr;
    const uint8_t *instrBase = nullptr;   //!< instr-delta section
    const uint8_t *payloadBase = nullptr; //!< profile payloads
    uint64_t payloadLen = 0;

    /** Block index (numBlocks + 1 entries; the sentinel closes the
     * last block's byte ranges and carries instrTotal). */
    std::vector<uint64_t> blockPayloadOff;
    std::vector<uint64_t> blockInstrOff;
    std::vector<uint64_t> blockAnchor;

    std::vector<std::string> names; //!< interned kernel names

    /** Sync-epoch runs: (first dispatch, epoch), ascending. */
    std::vector<std::pair<uint64_t, uint64_t>> epochRuns;

    friend struct StoreAccess;
};

} // namespace gt::core::trace_store

#endif // GT_CORE_TRACE_STORE_HH
