/**
 * @file
 * Plain Lloyd k-means: the bitwise oracle for core::simpoint's
 * pruned clusterer.
 *
 * Every assignment pass scans all k centroids for every point; the
 * k-means++ seeding, the empty-cluster re-seed draws, and every
 * floating-point reduction (seeding totals, centroid sums, the final
 * distortion and per-cluster weights) run serially over the same
 * fixed-size chunks, combined in the same chunk order, as the
 * production clusterer's pool reductions. Runs — and whole BIC sweeps
 * over them (simpoint::bicSweep) — must therefore match production
 * bit for bit, at any pool size (tests/test_kmeans.cc).
 */

#ifndef GT_REFERENCE_KMEANS_HH
#define GT_REFERENCE_KMEANS_HH

#include "core/simpoint.hh"

namespace gt::reference
{

/** Same contract as simpoint::kmeansRun (serial; every point's
 * assignment is a full scan, so stats.fullScans == assignSteps). */
core::simpoint::KMeansRun
lloydRun(const std::vector<core::simpoint::Point> &points,
         const std::vector<double> &weights, int k, int max_iters,
         Rng &rng);

/** Same contract as simpoint::clusterPoints: the BIC sweep over
 * lloydRun. */
core::simpoint::Clustering
lloydClusterPoints(const std::vector<core::simpoint::Point> &points,
                   const std::vector<double> &weights,
                   const core::simpoint::ClusterOptions &options = {});

} // namespace gt::reference

#endif // GT_REFERENCE_KMEANS_HH
