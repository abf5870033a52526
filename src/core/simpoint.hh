/**
 * @file
 * SimPoint-style clustering over interval feature vectors.
 *
 * Reimplements the pipeline of SimPoint 3.0, the tool the paper
 * feeds its feature vectors to: random linear projection of the
 * sparse vectors down to 15 dimensions, weighted k-means (intervals
 * weigh as many instructions as they contain — SimPoint 3.0's
 * variable-length-interval support), BIC-based selection of the
 * cluster count up to a user maximum (10 throughout the paper), and
 * per-cluster representative selection: the interval nearest each
 * centroid, with a representation ratio equal to the cluster's
 * share of total instructions.
 */

#ifndef GT_CORE_SIMPOINT_HH
#define GT_CORE_SIMPOINT_HH

#include <array>
#include <functional>

#include "common/rng.hh"
#include "core/features.hh"
#include "sched/thread_pool.hh"

namespace gt::core::simpoint
{

/** Dimensionality after random projection (SimPoint's default 15). */
constexpr int projectedDims = 15;

/** A projected, dense feature point. */
using Point = std::array<double, projectedDims>;

/**
 * Memoized projection coefficients: one precomputed
 * projectedDims-wide row per sparse key. The coefficient is a pure
 * function of (key, dim), so a table built once per workload (over
 * the DispatchFeatureCache's key universe) hands every projection
 * its rows without re-deriving a hash per (key, dim) — and the
 * result stays bitwise identical to project().
 */
class ProjectionTable
{
  public:
    /** Build rows for @p keys (must be strictly ascending). */
    static ProjectionTable build(const std::vector<uint64_t> &keys);

    /**
     * Row by rank in the ascending key order the table was built
     * from. A consumer that already knows a key's rank (the feature
     * engine's column ids are exactly these ranks) needs no key
     * search.
     */
    const Point &rowAt(size_t idx) const { return rows[idx]; }

    size_t size() const { return rows.size(); }

  private:
    std::vector<Point> rows; //!< rows[i] pairs up with keys[i]
};

/**
 * Random linear projection of a sparse vector: each sparse key
 * hashes to a deterministic pseudo-random direction, so the
 * projection matrix never needs materializing over the unbounded
 * key space.
 */
Point project(const FeatureVector &vec);

/**
 * Exactly-coincident points grouped by value. Dispatch populations
 * are massively duplicate-heavy (thousands of intervals, often only
 * dozens of distinct feature vectors), and every distance-dependent
 * decision in k-means — the k-way scan, the bounds, the seeding
 * refresh, the distortion term — is a pure function of a point's
 * coordinates, so one computation per distinct value serves the
 * whole group with bitwise-identical results. Built once per
 * population and shared by every candidate-k run of the BIC sweep.
 */
struct UniqueIndex
{
    std::vector<uint32_t> uid;   //!< per point: its group id
    std::vector<uint32_t> rep;   //!< per group: one member's index
    std::vector<uint32_t> count; //!< per group: member count
};

/**
 * Group the @p n flat projectedDims-wide rows of @p pts by exact
 * value. Group ids are ascending-value ranks, so uid and count are
 * pure functions of the point multiset.
 */
UniqueIndex buildUniqueIndex(const double *pts, size_t n);

/**
 * Assignment-step work counters. Every point examined by an
 * assignment pass is counted exactly once: a prune skipped its
 * k-way scan (on the cached upper bound, or after tightening the
 * bound with one exact distance), the point shared the scan of a
 * coincident representative (assignments are decided once per
 * distinct value), or it ran the full Lloyd scan itself. A plain
 * Lloyd run has fullScans == assignSteps and the other counters
 * zero.
 */
struct KMeansStats
{
    uint64_t assignSteps = 0;   //!< per-point assignment decisions
    uint64_t boundPrunes = 0;   //!< skipped on the cached bounds
    uint64_t tightenPrunes = 0; //!< skipped after one exact distance
    uint64_t memoHits = 0;      //!< reused a coincident point's scan
    uint64_t fullScans = 0;     //!< ran the exact k-way Lloyd scan

    void merge(const KMeansStats &other);

    /** Fraction of assignment decisions that skipped the k-way scan
     * (0 when no assignment step has run). */
    double pruneRate() const;
};

/** One weighted k-means run at a fixed k (what cluster() repeats per
 * candidate k). Exposed for the differential tests and the
 * clustering bench. */
struct KMeansRun
{
    std::vector<int> assignment;
    std::vector<Point> centroids;
    double distortion = 0.0; //!< weighted sum of squared distances
    /**
     * Per-cluster weight totals, emitted by the same
     * chunk-deterministic reduction that computes the distortion;
     * the BIC score consumes these instead of re-scanning the
     * population.
     */
    std::vector<double> clusterWeight;
    KMeansStats stats;
};

/**
 * Run weighted k-means++ seeding plus at most @p max_iters Lloyd
 * iterations at a fixed @p k (1 <= k <= points.size()) on @p pool
 * (null = the process-wide pool).
 *
 * The assignment step keeps Hamerly/Elkan-style bounds per distinct
 * point value — an upper bound on the distance to the assigned
 * centroid, a lower bound on the second-nearest, per-iteration
 * centroid drift, and the half minimum inter-centroid distance per
 * cluster — and skips the k-way distance scan whenever the bounds
 * prove the assignment cannot change. Bound arithmetic is made
 * conservative under floating-point rounding (see simpoint.cc), and
 * whenever pruning fails the value runs the exact Lloyd inner loop
 * (same dist2 expression, same c = 1..k comparison order), so every
 * assignment — and everything derived from it, including the draws
 * taken from @p rng — is identical to plain Lloyd k-means by
 * construction. The plain Lloyd oracle lives in tests/reference.
 */
KMeansRun kmeansRun(const std::vector<Point> &points,
                    const std::vector<double> &weights, int k,
                    int max_iters, Rng &rng,
                    sched::ThreadPool *pool = nullptr);

/** Result of clustering one interval population. */
struct Clustering
{
    int k = 0;
    /** Cluster id per interval. */
    std::vector<int> assignment;
    /** Interval index chosen to represent each cluster. */
    std::vector<uint64_t> representative;
    /**
     * Representation ratio per cluster: the cluster's share of the
     * total weight (instructions), the paper's extrapolation
     * weights.
     */
    std::vector<double> weight;
    /** Bayesian information criterion of the accepted clustering. */
    double bic = 0.0;
    /** Weighted distortion of the accepted clustering. */
    double distortion = 0.0;
    /**
     * Assignment-step work counters merged over every candidate-k
     * run (1..maxK), not just the accepted one — the prune rate of
     * the whole BIC sweep.
     */
    KMeansStats stats;
};

/** Clustering options. */
struct ClusterOptions
{
    int maxK = 10;          //!< the paper's setting throughout
    int maxIters = 30;      //!< k-means iteration cap
    uint64_t seed = 0x5eedULL;
    /**
     * Accept the smallest k whose BIC reaches this fraction of the
     * best BIC's range above the worst (SimPoint's criterion).
     */
    double bicThreshold = 0.9;
    /**
     * Pool the candidate-k runs and the per-run assignment /
     * centroid-update steps execute on (null = the process-wide
     * pool). Results are bit-identical for every pool size: each
     * candidate k draws from Rng::split(k) of the seed stream, and
     * all floating-point reductions combine fixed-size chunks in
     * chunk order (see ThreadPool::parallelReduce).
     */
    sched::ThreadPool *pool = nullptr;
};

/**
 * Cluster @p vectors with instruction-count @p weights and pick
 * representatives. @p weights must be positive and the same length
 * as @p vectors. May return fewer than maxK clusters when BIC says
 * a smaller k explains the population (the paper notes SimPoint
 * "may return fewer than this maximum").
 */
Clustering cluster(const std::vector<FeatureVector> &vectors,
                   const std::vector<double> &weights,
                   const ClusterOptions &options = {});

/**
 * Cluster already-projected points. cluster() is this plus the
 * projection step; callers that can produce points directly (the
 * feature engine projects straight off its columns) skip the
 * intermediate sparse vectors.
 */
Clustering clusterPoints(const std::vector<Point> &points,
                         const std::vector<double> &weights,
                         const ClusterOptions &options = {});

/** One fixed-k k-means run drawing from @p rng (see kmeansRun). */
using KMeansFn = std::function<KMeansRun(int k, Rng &rng)>;

/**
 * SimPoint's BIC sweep over any fixed-k clusterer: run @p run_k for
 * k = 1..min(maxK, n) on options.pool, candidate k drawing from
 * Rng::split(k) of options.seed, accept the smallest k whose BIC
 * reaches the threshold, and pick representatives and ratios.
 * clusterPoints() is this over the pruned clusterer; the tests run
 * it over the plain Lloyd oracle.
 */
Clustering bicSweep(const std::vector<Point> &points,
                    const std::vector<double> &weights,
                    const ClusterOptions &options, const KMeansFn &run_k);

} // namespace gt::core::simpoint

#endif // GT_CORE_SIMPOINT_HH
