#include "reference/kmeans.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace gt::reference
{

using core::simpoint::Clustering;
using core::simpoint::ClusterOptions;
using core::simpoint::KMeansRun;
using core::simpoint::Point;
using core::simpoint::projectedDims;

namespace
{

/** The production clusterer's reduction grain. */
constexpr size_t reduceGrain = 256;

double
dist2(const Point &a, const Point &b)
{
    double acc = 0.0;
    for (int d = 0; d < projectedDims; ++d) {
        double diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

/**
 * Reduce [0, n) chunk by chunk, combining partials in chunk order
 * starting from the first chunk's — the combination tree of
 * sched::ThreadPool::parallelReduce, run serially.
 */
template <class T, class ChunkFn, class CombineFn>
T
chunkReduce(size_t n, ChunkFn chunk, CombineFn combine)
{
    T acc = chunk(0, std::min(n, reduceGrain));
    for (size_t begin = reduceGrain; begin < n; begin += reduceGrain)
        acc = combine(std::move(acc),
                      chunk(begin, std::min(n, begin + reduceGrain)));
    return acc;
}

} // anonymous namespace

KMeansRun
lloydRun(const std::vector<Point> &points,
         const std::vector<double> &weights, int k, int max_iters,
         Rng &rng)
{
    const size_t n = points.size();
    GT_ASSERT(n > 0, "k-means over an empty population");
    GT_ASSERT(n == weights.size(), "points/weights size mismatch");
    GT_ASSERT(k >= 1 && (size_t)k <= n, "k must be in [1, n], got ", k);

    KMeansRun run;

    // Weighted k-means++ seeding. The per-chunk partials of the
    // distance-mass total also locate the weighted draw: walk them to
    // the chunk whose cumulative mass reaches the draw, then rescan
    // that chunk element by element.
    std::vector<double> min_d2(n, std::numeric_limits<double>::max());
    size_t num_chunks = (n + reduceGrain - 1) / reduceGrain;
    std::vector<double> partials(num_chunks, 0.0);
    run.centroids.push_back(points[rng.nextBounded(n)]);
    while ((int)run.centroids.size() < k) {
        const Point latest = run.centroids.back();
        for (size_t c = 0; c < num_chunks; ++c) {
            size_t end = std::min(n, (c + 1) * reduceGrain);
            double part = 0.0;
            for (size_t i = c * reduceGrain; i < end; ++i) {
                if (min_d2[i] != 0.0)
                    min_d2[i] = std::min(min_d2[i],
                                         dist2(points[i], latest));
                part += min_d2[i] * weights[i];
            }
            partials[c] = part;
        }
        double total = 0.0;
        for (double part : partials)
            total += part;
        if (total <= 0.0) {
            // All points coincide with chosen centers; duplicate.
            run.centroids.push_back(points[rng.nextBounded(n)]);
            continue;
        }
        double pick = rng.nextDouble() * total;
        double base = 0.0;
        size_t chosen = n - 1;
        bool found = false;
        for (size_t c = 0; c < num_chunks && !found; ++c) {
            double after = base + partials[c];
            if (after >= pick || c + 1 == num_chunks) {
                size_t end = std::min(n, (c + 1) * reduceGrain);
                double acc = base;
                for (size_t i = c * reduceGrain; i < end; ++i) {
                    acc += min_d2[i] * weights[i];
                    if (acc >= pick) {
                        chosen = i;
                        found = true;
                        break;
                    }
                }
            }
            base = after;
        }
        run.centroids.push_back(points[chosen]);
    }

    /** Per-cluster weighted coordinate sums and weights. */
    struct Accum
    {
        std::vector<Point> sums;
        std::vector<double> wsum;
    };

    run.assignment.assign(n, 0);
    for (int iter = 0; iter < max_iters; ++iter) {
        // Assign: full scan, ties to the lowest centroid index.
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            int best = 0;
            double best_d = dist2(points[i], run.centroids[0]);
            for (int c = 1; c < k; ++c) {
                double d = dist2(points[i], run.centroids[(size_t)c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (run.assignment[i] != best) {
                run.assignment[i] = best;
                changed = true;
            }
        }
        run.stats.assignSteps += n;
        run.stats.fullScans += n;
        if (!changed && iter > 0)
            break;

        // Update, re-seeding empty clusters on random points.
        Accum acc = chunkReduce<Accum>(
            n,
            [&](size_t begin, size_t end) {
                Accum part;
                part.sums.assign((size_t)k, Point{});
                part.wsum.assign((size_t)k, 0.0);
                for (size_t i = begin; i < end; ++i) {
                    auto c = (size_t)run.assignment[i];
                    part.wsum[c] += weights[i];
                    for (int d = 0; d < projectedDims; ++d)
                        part.sums[c][d] += points[i][d] * weights[i];
                }
                return part;
            },
            [k](Accum &&a, Accum &&b) {
                for (int c = 0; c < k; ++c) {
                    a.wsum[(size_t)c] += b.wsum[(size_t)c];
                    for (int d = 0; d < projectedDims; ++d)
                        a.sums[(size_t)c][d] += b.sums[(size_t)c][d];
                }
                return std::move(a);
            });
        for (int c = 0; c < k; ++c) {
            Point &row = run.centroids[(size_t)c];
            if (acc.wsum[(size_t)c] > 0.0) {
                for (int d = 0; d < projectedDims; ++d)
                    row[d] = acc.sums[(size_t)c][d] / acc.wsum[(size_t)c];
            } else {
                row = points[rng.nextBounded(n)];
            }
        }
    }

    // Final distortion and per-cluster weights, one reduction.
    struct DistAccum
    {
        double dist = 0.0;
        std::vector<double> wsum;
    };
    DistAccum total = chunkReduce<DistAccum>(
        n,
        [&](size_t begin, size_t end) {
            DistAccum part;
            part.wsum.assign((size_t)k, 0.0);
            for (size_t i = begin; i < end; ++i) {
                auto c = (size_t)run.assignment[i];
                part.dist +=
                    weights[i] * dist2(points[i], run.centroids[c]);
                part.wsum[c] += weights[i];
            }
            return part;
        },
        [k](DistAccum &&a, DistAccum &&b) {
            a.dist += b.dist;
            for (int c = 0; c < k; ++c)
                a.wsum[(size_t)c] += b.wsum[(size_t)c];
            return std::move(a);
        });
    run.distortion = total.dist;
    run.clusterWeight = std::move(total.wsum);
    return run;
}

Clustering
lloydClusterPoints(const std::vector<Point> &points,
                   const std::vector<double> &weights,
                   const ClusterOptions &options)
{
    return core::simpoint::bicSweep(
        points, weights, options, [&](int k, Rng &rng) {
            return lloydRun(points, weights, k, options.maxIters, rng);
        });
}

} // namespace gt::reference
