#include "core/simpoint.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace gt::core::simpoint
{

namespace
{

/**
 * Chunk size for every floating-point reduction in this file. The
 * chunk layout — and therefore the FP combination tree — is a
 * function of the population size alone, so results are bit-identical
 * for any thread count (including the 1-thread serial fallback).
 */
constexpr size_t reduceGrain = 256;

/** Deterministic projection coefficient for (key, dim) in [-1, 1]. */
double
projectionCoeff(uint64_t key, int dim)
{
    uint64_t h = key ^ (0x9e3779b97f4a7c15ULL * (uint64_t)(dim + 1));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return ((double)(h >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}

/**
 * Squared Euclidean distance between two flat projectedDims-wide
 * rows: the same expression, in the same order, as the historical
 * dist2(const Point &, const Point &) — the fixed-trip-count loop
 * over contiguous rows is what the flat SoA storage buys the
 * vectorizer.
 */
inline double
dist2Row(const double *a, const double *b)
{
    double acc = 0.0;
    for (int d = 0; d < projectedDims; ++d) {
        double diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

static_assert(sizeof(Point) == sizeof(double) * projectedDims,
              "Point rows must be packed for the flat SoA layout");

/**
 * Conservative bound arithmetic for the pruned assignment step.
 *
 * The triangle-inequality bounds are exact in real arithmetic, but
 * the computed dist2/sqrt/add/sub chain rounds — and a bound that
 * rounds the wrong way could prune a point whose exact Lloyd scan
 * would have flipped its assignment, breaking bitwise equality with
 * plain Lloyd. Every bound therefore gets a slack push in its safe
 * direction: upper bounds are inflated and lower bounds deflated by
 * a relative term that dominates the worst-case relative round-off
 * of the ~2·projectedDims-operation distance chain (~20 ulp; the
 * slack is ~4000x that) plus an absolute term that dominates any
 * subnormal-range underflow. The slack is far below any distance
 * gap worth pruning, so it costs nothing: a point inside the slack
 * margin simply falls back to the exact scan, which is always
 * correct.
 */
constexpr double boundRelSlack = 0x1.0p-40; // ~9.1e-13 relative
constexpr double boundAbsSlack = 1e-140;    // >> any underflow loss

/** Upper bound on the true Euclidean distance whose computed
 * squared distance is @p d2. */
inline double
distUpper(double d2)
{
    double d = std::sqrt(d2);
    return d + d * boundRelSlack + boundAbsSlack;
}

/** Lower bound on the true Euclidean distance whose computed
 * squared distance is @p d2 (+inf passes through for the k == 1
 * "no second centroid" case). */
inline double
distLower(double d2)
{
    double d = std::sqrt(d2);
    if (!(d < std::numeric_limits<double>::infinity()))
        return d;
    d -= d * boundRelSlack + boundAbsSlack;
    return d > 0.0 ? d : 0.0;
}

/** Upper bound on (upper bound u) + (drift upper bound d). */
inline double
boundAdd(double u, double d)
{
    double r = u + d;
    return r + r * boundRelSlack + boundAbsSlack;
}

/** Lower bound on (lower bound l) - (drift upper bound d). May go
 * negative, which simply never prunes. */
inline double
boundSub(double l, double d)
{
    double r = l - d;
    return r - std::abs(r) * boundRelSlack - boundAbsSlack;
}

/** kmeansRun with flat row-major centroid storage (the internal
 * currency; the public struct converts to Point rows at the edge). */
struct FlatRun
{
    std::vector<int> assignment;
    std::vector<double> centroids; //!< k x projectedDims, row-major
    double distortion = 0.0;
    std::vector<double> clusterWeight;
    KMeansStats stats;
};

/**
 * Weighted k-means with k-means++ seeding over flat row-major
 * points, deciding assignments once per distinct value of @p uniq
 * and skipping k-way scans that provably cannot change an
 * assignment. See kmeansRun() for why the result is bitwise
 * identical to plain Lloyd k-means.
 */
FlatRun
kmeansFlat(const double *pts, size_t n,
           const std::vector<double> &weights, int k, int max_iters,
           Rng &rng, sched::ThreadPool &pool, const UniqueIndex &uniq)
{
    constexpr int dims = projectedDims;
    FlatRun run;
    run.centroids.reserve((size_t)k * dims);
    auto centroidRow = [&](int c) {
        return run.centroids.data() + (size_t)c * dims;
    };
    auto pushCentroid = [&](size_t i) {
        run.centroids.insert(run.centroids.end(), pts + i * dims,
                             pts + (i + 1) * dims);
    };

    const size_t m = uniq.rep.size();
    auto repRow = [&](size_t u) {
        return pts + (size_t)uniq.rep[u] * dims;
    };

    // k-means++ initialization (weighted). The distance refresh and
    // its weighted total parallelize per chunk; the draw itself stays
    // sequential on the per-run RNG stream. The per-chunk partial
    // sums the reduction already produces are kept and reused to
    // locate the weighted draw, so only the one chunk containing the
    // crossing is rescanned instead of the whole population. The
    // chunk layout is a function of n alone, so both the total and
    // the picked index are bit-identical at every thread count.
    //
    // The distance refresh runs once per distinct value (min_d2 is a
    // pure function of the point's coordinates) and the per-point
    // chunk loop gathers from that table — the same values in the
    // same accumulation order as a per-point refresh, so totals and
    // draws match plain Lloyd seeding bitwise.
    std::vector<double> mtab(m, std::numeric_limits<double>::max());
    size_t num_chunks = (n + reduceGrain - 1) / reduceGrain;
    std::vector<double> partials(num_chunks, 0.0);
    size_t first = rng.nextBounded(n);
    pushCentroid(first);
    int seeded = 1;
    while (seeded < k) {
        const double *latest = centroidRow(seeded - 1);
        for (size_t u = 0; u < m; ++u) {
            // Exactly-coincident values (min_d2 already 0) skip the
            // recompute: dist2 is non-negative, so min(0, d) == 0 —
            // value- and bit-identical.
            if (mtab[u] != 0.0)
                mtab[u] = std::min(mtab[u], dist2Row(repRow(u), latest));
        }
        pool.parallelFor(
            num_chunks,
            [&](size_t c) {
                size_t begin = c * reduceGrain;
                size_t end = std::min(n, begin + reduceGrain);
                double part = 0.0;
                for (size_t i = begin; i < end; ++i)
                    part += mtab[uniq.uid[i]] * weights[i];
                partials[c] = part;
            },
            1);
        // Combine in ascending chunk order, exactly as
        // parallelReduce would.
        double total = 0.0;
        for (double part : partials)
            total += part;
        if (total <= 0.0) {
            // All points coincide with chosen centers; duplicate.
            pushCentroid(rng.nextBounded(n));
            ++seeded;
            continue;
        }
        double pick = rng.nextDouble() * total;
        // Walk the chunk partials to the chunk whose cumulative mass
        // reaches the draw, then rescan only that chunk. The
        // cumulative base advances by whole-chunk partials, so the
        // crossing test sees one fixed accumulation tree; if the
        // element-order rescan falls short of the partial-predicted
        // crossing by rounding, the walk continues into the next
        // chunk, still deterministically.
        double base = 0.0;
        size_t chosen = n - 1;
        bool found = false;
        for (size_t c = 0; c < num_chunks && !found; ++c) {
            double after = base + partials[c];
            if (after >= pick || c + 1 == num_chunks) {
                size_t begin = c * reduceGrain;
                size_t end = std::min(n, begin + reduceGrain);
                double acc = base;
                for (size_t i = begin; i < end; ++i) {
                    acc += mtab[uniq.uid[i]] * weights[i];
                    if (acc >= pick) {
                        chosen = i;
                        found = true;
                        break;
                    }
                }
            }
            base = after;
        }
        pushCentroid(chosen);
        ++seeded;
    }

    /** Per-cluster weighted sums, reduced chunk-by-chunk. */
    struct Accum
    {
        std::vector<double> sums; //!< k x dims, row-major
        std::vector<double> wsum;
    };

    // The exact Lloyd inner loop — the same dist2 expression and the
    // same c = 1..k comparison order as always, so ties resolve to
    // the lowest index. The second-best tracking costs comparisons
    // only (no extra FP arithmetic) and feeds the lower bound.
    auto scanPoint = [&](const double *p, double &best_d,
                         double &second_d) {
        int best = 0;
        best_d = dist2Row(p, centroidRow(0));
        second_d = std::numeric_limits<double>::infinity();
        for (int c = 1; c < k; ++c) {
            double d = dist2Row(p, centroidRow(c));
            if (d < best_d) {
                second_d = best_d;
                best_d = d;
                best = c;
            } else if (d < second_d) {
                second_d = d;
            }
        }
        return best;
    };

    // Assignment state, all per distinct value: the bounds, the
    // group's current assignment (members always agree: they start
    // at 0 together and every pass applies the same scan result to
    // the whole group), and the pass's scan results.
    std::vector<double> upper(m, std::numeric_limits<double>::infinity());
    std::vector<double> lower(m, -std::numeric_limits<double>::infinity());
    std::vector<double> halfMin((size_t)k, 0.0), drift((size_t)k, 0.0);
    std::vector<double> old_centroids;
    std::vector<int> assign_tab(m, 0), best_tab(m, 0);
    std::atomic<uint64_t> bound_prunes{0};
    std::atomic<uint64_t> tighten_prunes{0};
    std::atomic<uint64_t> memo_hits{0};
    std::atomic<uint64_t> full_scans{0};
    size_t u_chunks = (m + reduceGrain - 1) / reduceGrain;

    run.assignment.assign(n, 0);
    for (int iter = 0; iter < max_iters; ++iter) {
        // Assign: each point independently picks its nearest
        // centroid, so any chunking yields identical assignments.
        // The convergence flag only ever goes false -> true, making
        // the write order irrelevant.
        std::atomic<bool> changed{false};
        run.stats.assignSteps += n;
        // Half the minimum inter-centroid distance per cluster:
        // a point closer to its centroid than that cannot be
        // closer to any other (k <= maxK, so the O(k^2) scan is
        // noise next to the per-value loop).
        for (int c = 0; c < k; ++c) {
            double best =
                std::numeric_limits<double>::infinity();
            for (int o = 0; o < k; ++o) {
                if (o == c)
                    continue;
                best = std::min(
                    best, distLower(dist2Row(centroidRow(c),
                                             centroidRow(o))));
            }
            halfMin[c] = 0.5 * best;
        }
        // One decision per distinct value, then an integer
        // gather applies it to every member.
        pool.parallelFor(
            u_chunks,
            [&](size_t chunk) {
                size_t begin = chunk * reduceGrain;
                size_t end = std::min(m, begin + reduceGrain);
                uint64_t bprune = 0, tprune = 0, memo = 0,
                         scans = 0;
                for (size_t u = begin; u < end; ++u) {
                    int a = assign_tab[u];
                    uint64_t members = uniq.count[u];
                    // Strict < throughout: an exact tie on a
                    // bound falls through to the exact scan, so
                    // tie-breaking always happens in Lloyd
                    // order.
                    double bound =
                        std::max(halfMin[a], lower[u]);
                    if (upper[u] < bound) {
                        bprune += members;
                        best_tab[u] = a;
                        continue;
                    }
                    const double *p = repRow(u);
                    if (upper[u] <
                        std::numeric_limits<double>::infinity()) {
                        double du = distUpper(
                            dist2Row(p, centroidRow(a)));
                        upper[u] = du;
                        if (du < bound) {
                            tprune += members;
                            best_tab[u] = a;
                            continue;
                        }
                    }
                    double best_d, second_d;
                    int best = scanPoint(p, best_d, second_d);
                    ++scans;
                    memo += members - 1;
                    upper[u] = distUpper(best_d);
                    lower[u] = distLower(second_d);
                    best_tab[u] = best;
                }
                bound_prunes.fetch_add(
                    bprune, std::memory_order_relaxed);
                tighten_prunes.fetch_add(
                    tprune, std::memory_order_relaxed);
                memo_hits.fetch_add(memo,
                                    std::memory_order_relaxed);
                full_scans.fetch_add(
                    scans, std::memory_order_relaxed);
            },
            1);
        pool.parallelFor(
            num_chunks,
            [&](size_t chunk) {
                size_t begin = chunk * reduceGrain;
                size_t end = std::min(n, begin + reduceGrain);
                for (size_t i = begin; i < end; ++i) {
                    int best = best_tab[uniq.uid[i]];
                    if (run.assignment[i] != best) {
                        run.assignment[i] = best;
                        changed.store(
                            true, std::memory_order_relaxed);
                    }
                }
            },
            1);
        assign_tab = best_tab;
        if (!changed.load() && iter > 0)
            break;
        // Update: per-chunk partial centroid sums combined in chunk
        // order (deterministic FP tree; see reduceGrain).
        old_centroids = run.centroids;
        // n >= 1, so every reduction slot is a chunk's own partial and
        // the identity is never read.
        Accum acc = pool.parallelReduce<Accum>(
            n, reduceGrain, Accum{},
            [&](size_t begin, size_t end) {
                Accum part;
                part.sums.assign((size_t)k * dims, 0.0);
                part.wsum.assign((size_t)k, 0.0);
                for (size_t i = begin; i < end; ++i) {
                    int c = run.assignment[i];
                    part.wsum[(size_t)c] += weights[i];
                    double *sum = part.sums.data() +
                        (size_t)c * dims;
                    const double *p = pts + i * dims;
                    for (int d = 0; d < dims; ++d)
                        sum[d] += p[d] * weights[i];
                }
                return part;
            },
            [k](Accum &&a, Accum &&b) {
                for (int c = 0; c < k; ++c)
                    a.wsum[(size_t)c] += b.wsum[(size_t)c];
                for (size_t d = 0; d < a.sums.size(); ++d)
                    a.sums[d] += b.sums[d];
                return std::move(a);
            });
        for (int c = 0; c < k; ++c) {
            double *row = centroidRow(c);
            if (acc.wsum[(size_t)c] > 0.0) {
                const double *sum =
                    acc.sums.data() + (size_t)c * dims;
                for (int d = 0; d < dims; ++d)
                    row[d] = sum[d] / acc.wsum[(size_t)c];
            } else {
                // Re-seed an empty cluster on a random point.
                const double *p =
                    pts + rng.nextBounded(n) * dims;
                std::copy(p, p + dims, row);
            }
        }
        // Centroid drift loosens every bound: the assigned
        // centroid may have moved toward the point (upper grows
        // by its drift) and any other centroid may have moved
        // closer (lower shrinks by the largest drift among
        // them — the second-largest when the assigned centroid
        // is itself the drift maximum).
        int drift_argmax = 0;
        double drift_max = -1.0, drift_second = 0.0;
        for (int c = 0; c < k; ++c) {
            drift[c] = distUpper(dist2Row(
                old_centroids.data() + (size_t)c * dims,
                centroidRow(c)));
            if (drift[c] > drift_max) {
                drift_second = drift_max;
                drift_max = drift[c];
                drift_argmax = c;
            } else if (drift[c] > drift_second) {
                drift_second = drift[c];
            }
        }
        if (drift_second < 0.0)
            drift_second = 0.0;
        for (size_t u = 0; u < m; ++u) {
            int a = assign_tab[u];
            upper[u] = boundAdd(upper[u], drift[a]);
            lower[u] = boundSub(lower[u], a == drift_argmax
                                    ? drift_second
                                    : drift_max);
        }
    }
    run.stats.boundPrunes = bound_prunes.load();
    run.stats.tightenPrunes = tighten_prunes.load();
    run.stats.memoHits = memo_hits.load();
    run.stats.fullScans = full_scans.load();

    // Final distortion, emitting the per-cluster weight partials the
    // BIC score consumes (combined in the same chunk order, so the
    // distortion bits match the historical scalar reduction and the
    // weights are thread-count-invariant). One distance per distinct
    // value, gathered per point — the same dist2Row value the
    // per-point expression would produce, in the same accumulation
    // order, so the sum matches plain Lloyd bitwise.
    std::vector<double> dtab(m);
    for (size_t u = 0; u < m; ++u)
        dtab[u] = dist2Row(repRow(u), centroidRow(assign_tab[u]));
    struct DistAccum
    {
        double dist = 0.0;
        std::vector<double> wsum;
    };
    DistAccum identity;
    identity.wsum.assign((size_t)k, 0.0);
    DistAccum total = pool.parallelReduce<DistAccum>(
        n, reduceGrain, identity,
        [&](size_t begin, size_t end) {
            DistAccum part;
            part.wsum.assign((size_t)k, 0.0);
            for (size_t i = begin; i < end; ++i) {
                auto c = (size_t)run.assignment[i];
                part.dist += weights[i] * dtab[uniq.uid[i]];
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

/**
 * Spherical-Gaussian BIC of a clustering (the X-means formulation
 * SimPoint uses), computed over weighted points. Consumes the
 * per-cluster weight partials the distortion reduction emitted
 * instead of re-scanning the population.
 */
double
bicScore(const KMeansRun &km, int k)
{
    double total_w = 0.0;
    for (int c = 0; c < k; ++c)
        total_w += km.clusterWeight[(size_t)c];
    double d = projectedDims;
    // Pooled variance estimate; floor avoids log(0) on perfect fits.
    double denom = std::max(total_w - (double)k, 1.0);
    double sigma2 = std::max(km.distortion / (denom * d), 1e-12);

    double ll = 0.0;
    for (int c = 0; c < k; ++c) {
        double rc = km.clusterWeight[(size_t)c];
        if (rc <= 0.0)
            continue;
        ll += rc * std::log(rc / total_w);
    }
    ll -= total_w * d / 2.0 * std::log(2.0 * M_PI * sigma2);
    ll -= (total_w - (double)k) * d / 2.0;

    double params = (double)k * (d + 1.0);
    return ll - params / 2.0 * std::log(total_w);
}

/** Convert a finished run to the public form (centroids as Points). */
KMeansRun
toRun(FlatRun &&run, int k)
{
    KMeansRun out;
    out.assignment = std::move(run.assignment);
    out.centroids.resize((size_t)k);
    std::memcpy(out.centroids.data(), run.centroids.data(),
                (size_t)k * sizeof(Point));
    out.distortion = run.distortion;
    out.clusterWeight = std::move(run.clusterWeight);
    out.stats = run.stats;
    return out;
}

/** Flatten Point rows into the row-major array kmeansFlat consumes
 * (one memcpy; Point is packed, see the static_assert above). */
std::vector<double>
flattenPoints(const std::vector<Point> &points)
{
    std::vector<double> flat(points.size() * projectedDims);
    if (!points.empty()) {
        std::memcpy(flat.data(), points.data(),
                    points.size() * sizeof(Point));
    }
    return flat;
}

} // anonymous namespace

UniqueIndex
buildUniqueIndex(const double *pts, size_t n)
{
    constexpr int dims = projectedDims;
    auto row = [&](uint32_t i) { return pts + (size_t)i * dims; };
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = (uint32_t)i;
    // Value order (any total order over equal-comparing rows works;
    // grouping only needs equal values adjacent).
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  return std::lexicographical_compare(
                      row(a), row(a) + dims, row(b), row(b) + dims);
              });
    UniqueIndex ui;
    ui.uid.resize(n);
    for (uint32_t i : order) {
        if (ui.rep.empty() ||
            !std::equal(row(i), row(i) + dims, row(ui.rep.back()))) {
            ui.rep.push_back(i);
            ui.count.push_back(0);
        }
        ui.uid[i] = (uint32_t)(ui.rep.size() - 1);
        ++ui.count.back();
    }
    return ui;
}

void
KMeansStats::merge(const KMeansStats &other)
{
    assignSteps += other.assignSteps;
    boundPrunes += other.boundPrunes;
    tightenPrunes += other.tightenPrunes;
    memoHits += other.memoHits;
    fullScans += other.fullScans;
}

double
KMeansStats::pruneRate() const
{
    if (assignSteps == 0)
        return 0.0;
    return (double)(boundPrunes + tightenPrunes + memoHits) /
        (double)assignSteps;
}

KMeansRun
kmeansRun(const std::vector<Point> &points,
          const std::vector<double> &weights, int k, int max_iters,
          Rng &rng, sched::ThreadPool *pool)
{
    GT_ASSERT(!points.empty(), "k-means over an empty population");
    GT_ASSERT(points.size() == weights.size(),
              "points/weights size mismatch");
    GT_ASSERT(k >= 1 && (size_t)k <= points.size(),
              "k must be in [1, n], got ", k);
    sched::ThreadPool &p =
        pool ? *pool : sched::ThreadPool::global();
    std::vector<double> flat = flattenPoints(points);
    UniqueIndex uniq = buildUniqueIndex(flat.data(), points.size());
    return toRun(kmeansFlat(flat.data(), points.size(), weights, k,
                            max_iters, rng, p, uniq),
                 k);
}

ProjectionTable
ProjectionTable::build(const std::vector<uint64_t> &keys)
{
    GT_ASSERT(std::is_sorted(keys.begin(), keys.end()),
              "projection table keys must be ascending");
    ProjectionTable table;
    table.rows.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        for (int d = 0; d < projectedDims; ++d)
            table.rows[i][d] = projectionCoeff(keys[i], d);
    }
    return table;
}

Point
project(const FeatureVector &vec)
{
    Point p{};
    const std::vector<uint64_t> &keys = vec.keys();
    const std::vector<double> &values = vec.values();
    for (size_t i = 0; i < keys.size(); ++i) {
        for (int d = 0; d < projectedDims; ++d)
            p[d] += values[i] * projectionCoeff(keys[i], d);
    }
    return p;
}

Clustering
cluster(const std::vector<FeatureVector> &vectors,
        const std::vector<double> &weights,
        const ClusterOptions &options)
{
    GT_ASSERT(!vectors.empty(), "clustering an empty population");
    GT_ASSERT(vectors.size() == weights.size(),
              "vectors/weights size mismatch");

    sched::ThreadPool &pool =
        options.pool ? *options.pool : sched::ThreadPool::global();

    size_t n = vectors.size();
    std::vector<Point> points(n);
    pool.parallelFor(n, [&](size_t i) {
        points[i] = project(vectors[i]);
    });
    return clusterPoints(points, weights, options);
}

Clustering
clusterPoints(const std::vector<Point> &points,
              const std::vector<double> &weights,
              const ClusterOptions &options)
{
    sched::ThreadPool &pool =
        options.pool ? *options.pool : sched::ThreadPool::global();
    size_t n = points.size();

    // Flatten the population once; every candidate-k run reads the
    // same row-major array. The unique-value index (which values
    // coincide — dispatch populations repeat a handful of interval
    // signatures thousands of times) is likewise a property of the
    // population alone, so one sort serves all candidate-k runs.
    std::vector<double> flat = flattenPoints(points);
    UniqueIndex uniq = buildUniqueIndex(flat.data(), n);

    return bicSweep(points, weights, options, [&](int k, Rng &rng) {
        return toRun(kmeansFlat(flat.data(), n, weights, k,
                                options.maxIters, rng, pool, uniq),
                     k);
    });
}

Clustering
bicSweep(const std::vector<Point> &points,
         const std::vector<double> &weights,
         const ClusterOptions &options, const KMeansFn &run_k)
{
    GT_ASSERT(!points.empty(), "clustering an empty population");
    GT_ASSERT(points.size() == weights.size(),
              "points/weights size mismatch");
    for (double w : weights)
        GT_ASSERT(w > 0.0, "non-positive interval weight");

    sched::ThreadPool &pool =
        options.pool ? *options.pool : sched::ThreadPool::global();

    size_t n = points.size();
    int max_k = std::min<int>(options.maxK, (int)n);
    Rng rng(options.seed);

    // Run k-means for every candidate k and score with BIC. Each
    // candidate draws from split(k) of the seed stream, so the runs
    // are independent tasks whose results cannot depend on execution
    // order; the nested per-point loops share the same pool
    // cooperatively.
    std::vector<KMeansRun> runs((size_t)max_k);
    std::vector<double> bics((size_t)max_k);
    pool.parallelFor(
        (size_t)max_k,
        [&](size_t idx) {
            int k = (int)idx + 1;
            Rng sub = rng.split((uint64_t)k);
            runs[idx] = run_k(k, sub);
            bics[idx] = bicScore(runs[idx], k);
        },
        1);

    // SimPoint's acceptance: the smallest k whose BIC reaches the
    // threshold fraction of the best BIC's range above the worst.
    double best = *std::max_element(bics.begin(), bics.end());
    double worst = *std::min_element(bics.begin(), bics.end());
    double range = best - worst;
    int chosen_k = max_k;
    for (int k = 1; k <= max_k; ++k) {
        double score = range > 0.0
            ? (bics[(size_t)k - 1] - worst) / range
            : 1.0;
        if (score >= options.bicThreshold) {
            chosen_k = k;
            break;
        }
    }

    const KMeansRun &km = runs[(size_t)chosen_k - 1];

    Clustering out;
    out.k = chosen_k;
    out.assignment = km.assignment;
    out.bic = bics[(size_t)chosen_k - 1];
    out.representative.assign((size_t)chosen_k, 0);
    out.weight.assign((size_t)chosen_k, 0.0);

    // Representatives: nearest interval to each centroid; weights:
    // cluster share of total instruction weight.
    std::vector<double> best_d((size_t)chosen_k,
                               std::numeric_limits<double>::max());
    std::vector<bool> seen((size_t)chosen_k, false);
    double total_w = 0.0;
    for (size_t i = 0; i < n; ++i) {
        auto c = (size_t)km.assignment[i];
        total_w += weights[i];
        out.weight[c] += weights[i];
        double d = dist2Row(points[i].data(), km.centroids[c].data());
        if (d < best_d[c]) {
            best_d[c] = d;
            out.representative[c] = i;
            seen[c] = true;
        }
    }

    // Drop empty clusters (k-means can leave them on tiny inputs).
    Clustering filtered;
    filtered.bic = out.bic;
    filtered.distortion = km.distortion;
    // Assignment work across every candidate k, merged in fixed k
    // order (the counters themselves are order-insensitive sums).
    for (const KMeansRun &r : runs)
        filtered.stats.merge(r.stats);
    std::vector<int> remap((size_t)chosen_k, -1);
    for (int c = 0; c < chosen_k; ++c) {
        if (!seen[(size_t)c] || out.weight[(size_t)c] <= 0.0)
            continue;
        remap[(size_t)c] = filtered.k++;
        filtered.representative.push_back(
            out.representative[(size_t)c]);
        filtered.weight.push_back(out.weight[(size_t)c] / total_w);
    }
    filtered.assignment.resize(n);
    for (size_t i = 0; i < n; ++i) {
        int m = remap[(size_t)km.assignment[i]];
        GT_ASSERT(m >= 0, "point assigned to an empty cluster");
        filtered.assignment[i] = m;
    }
    return filtered;
}

} // namespace gt::core::simpoint
