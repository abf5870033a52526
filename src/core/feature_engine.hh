/**
 * @file
 * The columnar feature engine: one lowering of a workload's dispatch
 * profiles serves every feature extraction and projection.
 *
 * The paper's headline claim is that subset selection needs no
 * simulation in the loop — its cost is building 3 interval schemes x
 * 10 feature-vector types from one profiling run. The original path
 * re-walked every dispatch profile (including the full basic-block
 * arrays) into a std::map once per interval per configuration, i.e.
 * 30 full passes over the database, and re-derived every random
 * projection coefficient by hashing per (key, dim). This engine
 * removes both redundancies:
 *
 *  - DispatchFeatureCache lowers each DispatchProfile exactly once
 *    into per-component sparse contribution columns (CSR over
 *    dispatches). The block-family kinds share their base columns —
 *    BB, BB-R, BB-W, BB-R-W, and BB-(R+W) all read the same lowered
 *    base stream and add only their memory stream on top — so
 *    extracting a vector is an ascending-key merge of a dispatch
 *    range's precomputed columns, not a re-walk of raw profiles.
 *  - simpoint::ProjectionTable memoizes each unique key's
 *    coefficient row, built once from the cache's key universe.
 *
 * Sharing contract with the scheduler fan-out: a fully constructed
 * FeatureEngine is immutable; extract()/extractAll() are const, keep
 * all mutable scratch on the caller's stack, and may therefore be
 * called concurrently from any number of exploreConfigs tasks — the
 * 30-configuration explorer builds one engine up front and hands it
 * to every task.
 *
 * Determinism: results are bitwise identical to the map-walk
 * oracle (reference::extractFeaturesMap in tests/reference, used by
 * tests only). Per key, contributions accumulate in
 * dispatch-encounter order — the same order the map's `operator[]
 * +=` applied them — and the final columns iterate in ascending-key
 * order, the map's iteration order.
 */

#ifndef GT_CORE_FEATURE_ENGINE_HH
#define GT_CORE_FEATURE_ENGINE_HH

#include <array>
#include <unordered_map>

#include "core/simpoint.hh"

namespace gt::core
{

/**
 * Per-workload lowering of every DispatchProfile into sparse
 * feature-contribution columns. Immutable once built; see the file
 * comment for the sharing and determinism contracts.
 */
class DispatchFeatureCache
{
  public:
    /** Lower every dispatch profile of @p db (see the file
     * comment). */
    explicit DispatchFeatureCache(const TraceDatabase &db);

    /** All distinct feature keys of the workload, ascending. */
    const std::vector<uint64_t> &uniqueKeys() const { return colKeys; }

    size_t numKeys() const { return colKeys.size(); }

    /**
     * Reusable per-caller accumulation state for extract(). One
     * Scratch may be reused across many extract() calls (that is the
     * point) but never shared between concurrent callers.
     */
    struct Scratch
    {
        std::vector<double> acc;
        std::vector<uint32_t> epoch;
        std::vector<uint32_t> touched;
        uint32_t generation = 0;
    };

    /** Merge the lowered contributions of @p interval's dispatch
     * range into one @p kind feature vector. */
    FeatureVector extract(const Interval &interval, FeatureKind kind,
                          Scratch &scratch) const;

    /**
     * Normalize-and-project @p interval's @p kind vector straight
     * off the accumulation columns: column ids are ranks into
     * @p table (built over uniqueKeys()), so each dimension's
     * coefficient row is a direct index — no per-key search, no
     * intermediate FeatureVector. Bitwise identical to extract() +
     * normalize() + simpoint::project().
     */
    simpoint::Point
    projectInto(const Interval &interval, FeatureKind kind,
                Scratch &scratch,
                const simpoint::ProjectionTable &table) const;

  private:
    /** The nine lowered contribution streams. The four KN base
     * streams differ only in which identity components are mixed
     * into the key; KN-RW layers knRw over knBase, and the five
     * block kinds all layer over the shared bbBase. */
    enum StreamId : int
    {
        knBase,
        knArgsBase,
        knGwsBase,
        knArgsGwsBase,
        knRw,
        bbBase,
        bbRead,
        bbWrite,
        bbReadWrite,
        numStreams,
    };

    /** One contribution stream: CSR over dispatches. Column ids are
     * ranks into colKeys, so ascending column order is ascending key
     * order. */
    struct Stream
    {
        std::vector<uint64_t> offsets = {0}; //!< numDispatches + 1
        std::vector<uint32_t> cols;
        std::vector<double> values;
    };

    /** Lower one dispatch profile into the streams, with column ids
     * interned in first-encounter order into @p id_of / @p keys. */
    void lower(const gtpin::DispatchProfile &profile,
               std::unordered_map<uint64_t, uint32_t> &id_of,
               std::vector<uint64_t> &keys);

    /** The streams @p kind merges, in the oracle's per-dispatch
     * emission order (base first, then memory dims). */
    static std::array<StreamId, 3> streamsFor(FeatureKind kind,
                                              int &count);

    /** Shared accumulate step of extract()/projectInto(): fill
     * @p scratch with @p interval's per-column sums, touched columns
     * sorted ascending. */
    void accumulate(const Interval &interval, FeatureKind kind,
                    Scratch &scratch) const;

    std::array<Stream, numStreams> streams;
    std::vector<uint64_t> colKeys; //!< ascending
    uint64_t numDispatches = 0;
};

/**
 * Facade the selection pipeline extracts features through: binds a
 * TraceDatabase to its DispatchFeatureCache and memoized projection
 * table. Build one per workload and share it (const) across tasks.
 */
class FeatureEngine
{
  public:
    explicit FeatureEngine(const TraceDatabase &db);

    const TraceDatabase &database() const { return db; }

    /** Extract one interval's @p kind vector (unnormalized). */
    FeatureVector extract(const Interval &interval,
                          FeatureKind kind) const;

    /** Extract vectors for all intervals (normalized), reusing one
     * merge scratch across the loop. */
    std::vector<FeatureVector>
    extractAll(const std::vector<Interval> &intervals,
               FeatureKind kind) const;

    /**
     * Projected points of all intervals' normalized @p kind vectors
     * — what the clusterer actually consumes — straight off the
     * columns (see DispatchFeatureCache::projectInto).
     */
    std::vector<simpoint::Point>
    projectAll(const std::vector<Interval> &intervals,
               FeatureKind kind) const;

  private:
    const TraceDatabase &db;
    DispatchFeatureCache cache;
    simpoint::ProjectionTable table;
};

} // namespace gt::core

#endif // GT_CORE_FEATURE_ENGINE_HH
