/**
 * @file
 * Subset selection and SPI projection (the paper's Section V-B/V-C
 * machinery and Eq. 1).
 *
 * A SubsetSelection is the end product architects consume: a handful
 * of kernel-invocation intervals to simulate in detail plus a
 * representation ratio for each, from which whole-program
 * performance is extrapolated as the ratio-weighted sum of
 * per-interval SPI. Validation compares that projection against the
 * measured whole-program SPI:
 *
 *   Error = |measured SPI - projected SPI| / measured SPI * 100%.
 *
 * Because record/replay fixes the dispatch order, a selection built
 * from one profiled trial can be projected onto any later trial,
 * frequency, or architecture generation by re-reading the same
 * dispatch ranges in the new trial's database — exactly the paper's
 * Fig. 8 validation procedure.
 */

#ifndef GT_CORE_SELECTION_HH
#define GT_CORE_SELECTION_HH

#include "core/simpoint.hh"

namespace gt::core
{

class FeatureEngine;

/** A chosen simulation subset for one application. */
struct SubsetSelection
{
    IntervalScheme scheme = IntervalScheme::SyncBounded;
    FeatureKind feature = FeatureKind::BB;

    /** The full interval division the selection was made from. */
    std::vector<Interval> intervals;

    /** Indices (into intervals) of the selected representatives. */
    std::vector<uint64_t> selected;

    /** Representation ratio per selected interval (sums to 1). */
    std::vector<double> ratios;

    uint64_t selectedInstrs = 0;
    uint64_t totalInstrs = 0;

    /**
     * K-means assignment work behind this selection (all candidate-k
     * runs of the BIC sweep; see Clustering::stats). Lets callers
     * report the pruned clusterer's skip rate.
     */
    simpoint::KMeansStats clusterStats;

    /** Fraction of program instructions that must be simulated. */
    double selectionFraction() const;

    /** Simulation speedup = 1 / selectionFraction. */
    double speedup() const;
};

/**
 * Run the full selection pipeline on one profiled application:
 * build intervals under @p scheme, extract @p feature vectors,
 * cluster with SimPoint, and return representatives with ratios.
 *
 * @param target_instrs ApproxInstructions chunk size (0 = default,
 *        see buildIntervals()).
 * @param engine shared feature engine to extract through; must have
 *        been built over @p db. Null builds a private engine — fine
 *        for one-off calls, wasteful in a fan-out (the explorer
 *        passes one engine to all 30 configurations). The engine's
 *        memoized projection table is also handed to the clusterer.
 */
SubsetSelection
selectSubset(const TraceDatabase &db, IntervalScheme scheme,
             FeatureKind feature,
             const simpoint::ClusterOptions &options = {},
             uint64_t target_instrs = 0,
             const FeatureEngine *engine = nullptr);

/**
 * The selection tail shared by selectSubset() and the profiling
 * service's session refresh: cluster already-projected interval
 * @p points (one per interval, in interval order) and assemble the
 * SubsetSelection. Having exactly one implementation of this tail is
 * what makes a session refresh — intervals and feature columns built
 * as rows were appended, points projected through a fresh table —
 * bitwise identical to a one-shot selectSubset() over the same rows:
 * both paths feed the same points, weights, and options through the
 * same code.
 *
 * @param total_instrs whole-program instruction total the selection
 *        fraction is measured against (db.totalInstrs() in the batch
 *        path).
 */
SubsetSelection
selectFromProjected(IntervalScheme scheme, FeatureKind feature,
                    std::vector<Interval> intervals,
                    const std::vector<simpoint::Point> &points,
                    uint64_t total_instrs,
                    const simpoint::ClusterOptions &options = {});

/**
 * Projected whole-program SPI of @p selection evaluated on @p db —
 * which may be the profiling trial itself (self-validation) or a
 * replayed trial on other hardware (cross validation). @p db must
 * have the same dispatch count as the trial the selection was built
 * from.
 */
double projectedSpi(const TraceDatabase &db,
                    const SubsetSelection &selection);

/** Eq. 1: percentage error of the projection against @p db. */
double selectionErrorPct(const TraceDatabase &db,
                         const SubsetSelection &selection);

} // namespace gt::core

#endif // GT_CORE_SELECTION_HH
