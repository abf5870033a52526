/**
 * @file
 * Differential tests for the pruned k-means clusterer: every result —
 * assignments, centroids, distortion, per-cluster weights, BIC,
 * chosen k, whole explorations — must be bitwise identical to the
 * plain Lloyd oracle (tests/reference), at every thread count, on
 * real profiled workloads and on adversarial synthetic populations
 * (coincident points, n < maxK, single point, empty clusters forcing
 * the re-seed path).
 */

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "reference/kmeans.hh"
#include "reference/selection.hh"
#include "workloads/workload.hh"

namespace gt::core
{
namespace
{

using simpoint::Clustering;
using simpoint::ClusterOptions;
using simpoint::KMeansRun;
using simpoint::KMeansStats;
using simpoint::Point;
using simpoint::projectedDims;

/** Synthetic population: @p groups Gaussian blobs of @p per points,
 * deterministically generated. */
std::vector<Point>
makePoints(Rng &rng, int groups, int per, double jitter)
{
    std::vector<Point> points;
    points.reserve((size_t)groups * (size_t)per);
    for (int g = 0; g < groups; ++g) {
        Point center{};
        for (int d = 0; d < projectedDims; ++d)
            center[d] = (double)((g * 7 + d) % 5) - 2.0;
        for (int i = 0; i < per; ++i) {
            Point p = center;
            for (int d = 0; d < projectedDims; ++d)
                p[d] += rng.nextGaussian(0.0, jitter);
            points.push_back(p);
        }
    }
    return points;
}

std::vector<double>
makeWeights(Rng &rng, size_t n)
{
    std::vector<double> weights(n);
    for (double &w : weights)
        w = 1.0 + rng.nextDouble() * 99.0;
    return weights;
}

/** The production (pruned) clusterer at a fixed k. */
KMeansRun
runPruned(const std::vector<Point> &points,
          const std::vector<double> &weights, int k, uint64_t seed,
          sched::ThreadPool *pool = nullptr)
{
    Rng rng(seed);
    return simpoint::kmeansRun(points, weights, k, 30, rng, pool);
}

/** The plain Lloyd oracle at a fixed k. */
KMeansRun
runLloyd(const std::vector<Point> &points,
         const std::vector<double> &weights, int k, uint64_t seed)
{
    Rng rng(seed);
    return reference::lloydRun(points, weights, k, 30, rng);
}

/** Bitwise equality of everything both clusterers must agree on
 * (stats are the one field allowed to differ). */
void
expectRunsEqual(const KMeansRun &a, const KMeansRun &b)
{
    ASSERT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    EXPECT_EQ(std::memcmp(a.centroids.data(), b.centroids.data(),
                          a.centroids.size() * sizeof(Point)),
              0);
    EXPECT_EQ(a.distortion, b.distortion); // bitwise
    ASSERT_EQ(a.clusterWeight.size(), b.clusterWeight.size());
    for (size_t c = 0; c < a.clusterWeight.size(); ++c)
        EXPECT_EQ(a.clusterWeight[c], b.clusterWeight[c]);
}

void
expectClusteringsEqual(const Clustering &a, const Clustering &b)
{
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representative, b.representative);
    ASSERT_EQ(a.weight.size(), b.weight.size());
    for (size_t c = 0; c < a.weight.size(); ++c)
        EXPECT_EQ(a.weight[c], b.weight[c]); // bitwise
    EXPECT_EQ(a.bic, b.bic);                 // bitwise
    EXPECT_EQ(a.distortion, b.distortion);   // bitwise
}

// --- kmeansRun: pruned vs Lloyd oracle on synthetic populations ---

TEST(KMeansDiff, PrunedMatchesLloydAcrossKAndSeeds)
{
    Rng gen(101);
    std::vector<Point> points = makePoints(gen, 5, 40, 0.3);
    std::vector<double> weights = makeWeights(gen, points.size());
    for (uint64_t seed : {1ull, 42ull, 0x5eedull}) {
        for (int k = 1; k <= 10; ++k) {
            KMeansRun lloyd = runLloyd(points, weights, k, seed);
            KMeansRun pruned = runPruned(points, weights, k, seed);
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " seed=" + std::to_string(seed));
            expectRunsEqual(lloyd, pruned);
        }
    }
}

TEST(KMeansDiff, TightClustersWithOverlap)
{
    // Overlapping blobs keep assignments churning for many
    // iterations — the regime where stale bounds could drift from
    // the oracle if the slack were wrong.
    Rng gen(202);
    std::vector<Point> points = makePoints(gen, 8, 25, 1.5);
    std::vector<double> weights(points.size(), 1.0);
    for (int k : {2, 5, 8}) {
        expectRunsEqual(
            runLloyd(points, weights, k, 7),
            runPruned(points, weights, k, 7));
    }
}

TEST(KMeansDiff, StatsAccountForEveryAssignmentDecision)
{
    Rng gen(303);
    std::vector<Point> points = makePoints(gen, 4, 60, 0.2);
    std::vector<double> weights = makeWeights(gen, points.size());

    KMeansRun lloyd =
        runLloyd(points, weights, 6, 11);
    EXPECT_EQ(lloyd.stats.fullScans, lloyd.stats.assignSteps);
    EXPECT_EQ(lloyd.stats.boundPrunes, 0u);
    EXPECT_EQ(lloyd.stats.tightenPrunes, 0u);
    EXPECT_EQ(lloyd.stats.memoHits, 0u);
    EXPECT_EQ(lloyd.stats.pruneRate(), 0.0);

    KMeansRun pruned =
        runPruned(points, weights, 6, 11);
    EXPECT_EQ(pruned.stats.assignSteps, lloyd.stats.assignSteps);
    EXPECT_EQ(pruned.stats.boundPrunes + pruned.stats.tightenPrunes +
                  pruned.stats.memoHits + pruned.stats.fullScans,
              pruned.stats.assignSteps);
    // Separable blobs converge with most points never rescanned.
    EXPECT_GT(pruned.stats.boundPrunes + pruned.stats.tightenPrunes,
              0u);
    EXPECT_LT(pruned.stats.fullScans, pruned.stats.assignSteps);
    EXPECT_GT(pruned.stats.pruneRate(), 0.0);
    EXPECT_LE(pruned.stats.pruneRate(), 1.0);
}

TEST(KMeansDiff, ThreadCountInvariant)
{
    Rng gen(404);
    std::vector<Point> points = makePoints(gen, 6, 200, 0.5);
    std::vector<double> weights = makeWeights(gen, points.size());

    sched::ThreadPool serial(1);
    KMeansRun base = runPruned(points, weights, 7, 3, &serial);
    expectRunsEqual(runLloyd(points, weights, 7, 3), base);
    for (unsigned threads :
         {4u, std::max(1u, std::thread::hardware_concurrency())}) {
        sched::ThreadPool pool(threads);
        KMeansRun par = runPruned(points, weights, 7, 3, &pool);
        expectRunsEqual(base, par);
        // The work counters are plain sums — invariant too.
        EXPECT_EQ(base.stats.boundPrunes, par.stats.boundPrunes);
        EXPECT_EQ(base.stats.tightenPrunes, par.stats.tightenPrunes);
        EXPECT_EQ(base.stats.memoHits, par.stats.memoHits);
        EXPECT_EQ(base.stats.fullScans, par.stats.fullScans);
    }
}

// --- Adversarial populations --------------------------------------

TEST(KMeansDiff, AllCoincidentPointsForceReseedPath)
{
    // Every point identical: seeding degenerates to the duplicate
    // path, ties all resolve to centroid 0, and the k-1 duplicate
    // clusters go empty — exercising the re-seed RNG draws, which
    // must advance identically in both clusterers.
    std::vector<Point> points(40, Point{});
    for (Point &p : points)
        p.fill(3.25);
    std::vector<double> weights(points.size(), 2.0);
    for (int k : {1, 3, 5}) {
        KMeansRun lloyd =
            runLloyd(points, weights, k, 99);
        KMeansRun pruned =
            runPruned(points, weights, k, 99);
        expectRunsEqual(lloyd, pruned);
        EXPECT_EQ(lloyd.distortion, 0.0);
        // Ties go to the lowest index: one carrier, k-1 empties.
        EXPECT_GT(lloyd.clusterWeight[0], 0.0);
        for (size_t c = 1; c < lloyd.clusterWeight.size(); ++c)
            EXPECT_EQ(lloyd.clusterWeight[c], 0.0);
    }
}

TEST(KMeansDiff, TwoValuePopulationLeavesEmptyClusters)
{
    // Two distinct values but k = 4: at least two clusters must end
    // empty, re-seeding every iteration until convergence.
    std::vector<Point> points;
    for (int i = 0; i < 12; ++i) {
        Point p{};
        p.fill(i < 6 ? -1.0 : 1.0);
        points.push_back(p);
    }
    std::vector<double> weights(points.size(), 1.0);
    KMeansRun lloyd =
        runLloyd(points, weights, 4, 5);
    KMeansRun pruned =
        runPruned(points, weights, 4, 5);
    expectRunsEqual(lloyd, pruned);
    size_t empty = 0;
    for (double w : lloyd.clusterWeight)
        empty += w == 0.0;
    EXPECT_GE(empty, 2u);
}

TEST(KMeansDiff, SinglePoint)
{
    std::vector<Point> points(1, Point{});
    points[0].fill(0.5);
    KMeansRun lloyd = runLloyd(points, {7.0}, 1, 1);
    KMeansRun pruned = runPruned(points, {7.0}, 1, 1);
    expectRunsEqual(lloyd, pruned);
    EXPECT_EQ(lloyd.assignment[0], 0);
    EXPECT_EQ(lloyd.distortion, 0.0);
}

TEST(KMeansDiff, GuardsBadInput)
{
    setLogQuiet(true);
    std::vector<Point> points(3, Point{});
    std::vector<double> weights(3, 1.0);
    Rng rng(1);
    EXPECT_THROW(simpoint::kmeansRun({}, {}, 1, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, {1.0}, 1, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, weights, 0, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, weights, 4, 10, rng),
                 PanicError);
    setLogQuiet(false);
}

// --- clusterPoints: the BIC sweep end to end ----------------------

TEST(KMeansDiff, ClusterPointsBackendsMatchBitwise)
{
    Rng gen(505);
    for (int groups : {1, 3, 7}) {
        std::vector<Point> points = makePoints(gen, groups, 30, 0.1);
        std::vector<double> weights =
            makeWeights(gen, points.size());
        Clustering lloyd =
            reference::lloydClusterPoints(points, weights);
        Clustering pruned = simpoint::clusterPoints(points, weights);
        SCOPED_TRACE("groups=" + std::to_string(groups));
        expectClusteringsEqual(lloyd, pruned);
        EXPECT_GT(pruned.stats.pruneRate(), 0.0);
        EXPECT_EQ(lloyd.stats.pruneRate(), 0.0);
        EXPECT_EQ(lloyd.stats.assignSteps, pruned.stats.assignSteps);
    }
}

TEST(KMeansDiff, PopulationSmallerThanMaxK)
{
    // n < maxK clamps the candidate sweep to k <= n.
    Rng gen(606);
    std::vector<Point> points = makePoints(gen, 3, 1, 0.0);
    std::vector<double> weights(points.size(), 1.0);
    ClusterOptions options;
    options.maxK = 10;
    Clustering lloyd =
        reference::lloydClusterPoints(points, weights, options);
    Clustering pruned =
        simpoint::clusterPoints(points, weights, options);
    expectClusteringsEqual(lloyd, pruned);
    EXPECT_LE(lloyd.k, 3);
}

// --- Real workloads: full explorations across all 30 configs ------

ProfiledApp
profiled(const char *name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload ", name);
    return profileApp(*w);
}

class KMeansWorkloadTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KMeansWorkloadTest, ExplorationMatchesLloydBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine engine(app.db);

    Exploration lloyd = reference::exploreConfigs(app.db);
    Exploration pruned = exploreConfigs(app.db, {}, 0, &engine);

    ASSERT_EQ(lloyd.results.size(), pruned.results.size());
    for (size_t i = 0; i < lloyd.results.size(); ++i) {
        const ConfigResult &rl = lloyd.results[i];
        const ConfigResult &rp = pruned.results[i];
        EXPECT_EQ(rl.selection.scheme, rp.selection.scheme);
        EXPECT_EQ(rl.selection.feature, rp.selection.feature);
        EXPECT_EQ(rl.selection.selected, rp.selection.selected);
        EXPECT_EQ(rl.selection.ratios, rp.selection.ratios); // bitwise
        EXPECT_EQ(rl.selection.selectedInstrs,
                  rp.selection.selectedInstrs);
        EXPECT_EQ(rl.errorPct, rp.errorPct); // bitwise
        // Projected SPI re-derives from the same selection; equal
        // selections make it bitwise equal, asserted directly.
        EXPECT_EQ(projectedSpi(app.db, rl.selection),
                  projectedSpi(app.db, rp.selection));
    }

    // Both clusterers decided the same number of assignments; the
    // pruned one skipped a nonzero share of the k-way scans.
    KMeansStats ls = lloyd.clusterStats();
    KMeansStats ps = pruned.clusterStats();
    EXPECT_EQ(ls.assignSteps, ps.assignSteps);
    EXPECT_EQ(ls.fullScans, ls.assignSteps);
    EXPECT_GT(ps.pruneRate(), 0.0);
    EXPECT_LT(ps.fullScans, ps.assignSteps);
    setLogQuiet(false);
}

TEST_P(KMeansWorkloadTest, PrunedExplorationIsThreadCountInvariant)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine engine(app.db);

    auto explore_with = [&](unsigned threads) {
        sched::ThreadPool pool(threads);
        ClusterOptions options;
        options.pool = &pool;
        return exploreConfigs(app.db, options, 0, &engine);
    };

    Exploration serial = explore_with(1);
    for (unsigned threads :
         {4u, std::max(1u, std::thread::hardware_concurrency())}) {
        Exploration par = explore_with(threads);
        ASSERT_EQ(serial.results.size(), par.results.size());
        for (size_t i = 0; i < serial.results.size(); ++i) {
            EXPECT_EQ(serial.results[i].selection.selected,
                      par.results[i].selection.selected);
            EXPECT_EQ(serial.results[i].selection.ratios,
                      par.results[i].selection.ratios);
            EXPECT_EQ(serial.results[i].errorPct,
                      par.results[i].errorPct);
        }
        KMeansStats a = serial.clusterStats();
        KMeansStats b = par.clusterStats();
        EXPECT_EQ(a.assignSteps, b.assignSteps);
        EXPECT_EQ(a.boundPrunes, b.boundPrunes);
        EXPECT_EQ(a.tightenPrunes, b.tightenPrunes);
        EXPECT_EQ(a.memoHits, b.memoHits);
        EXPECT_EQ(a.fullScans, b.fullScans);
    }
    setLogQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(
    TwoWorkloads, KMeansWorkloadTest,
    ::testing::Values("cb-histogram-buffer", "cb-gaussian-image"),
    [](const auto &info) {
        std::string out;
        for (char c : std::string(info.param))
            out += std::isalnum((unsigned char)c) ? c : '_';
        return out;
    });

} // anonymous namespace
} // namespace gt::core
