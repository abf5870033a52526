/**
 * @file
 * K-means benchmark: the plain Lloyd oracle (tests/reference) vs.
 * the production triangle-inequality-pruned clusterer, per workload
 * and end to end.
 *
 * Per-workload cluster cases time the full BIC sweep
 * (clusterPoints: candidate k = 1..10, seeding + Lloyd iterations +
 * distortion) over the SingleKernel interval population — the
 * largest population a selection run feeds the clusterer. The
 * explore cases time the whole 30-configuration exploreConfigs
 * through a prebuilt feature engine, the selection loop's usage
 * model, where profiling shows the wall clock concentrates in
 * k-means on dispatch-heavy workloads.
 *
 * Paired timings yield per-case speedups, geometric means, and the
 * pruned clusterer's skip rates, written to BENCH_kmeans.json (and
 * summarized on stdout) so the README's perf numbers are
 * reproducible with:
 *
 *     build/bench/simpoint_cluster
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "reference/kmeans.hh"
#include "workloads/workload.hh"

using namespace gt;
using namespace gt::core;

namespace
{

// The dispatch-heavy workloads of the suite (largest clustering
// populations — thousands of SingleKernel intervals): exactly the
// shape where exploreConfigs is k-means-bound.
const std::vector<std::string> benchApps = {
    "sonyvegas-proj-r4",
    "cb-physics-part-sim-32k",
    "cb-graphics-t-rex",
    "sandra-crypt-aes256",
};

struct BenchApp
{
    std::string name;
    ProfiledApp app;
    std::vector<simpoint::Point> points; //!< SingleKernel population
    std::vector<double> weights;
    double clusterPruneRate = 0.0; //!< pruned clusterPoints skip rate
    double explorePruneRate = 0.0; //!< pruned exploreConfigs skip rate
};

std::vector<BenchApp> &
apps()
{
    static std::vector<BenchApp> profiled = [] {
        setLogQuiet(true);
        std::vector<BenchApp> out;
        for (const std::string &name : benchApps) {
            const workloads::Workload *w =
                workloads::findWorkload(name);
            GT_ASSERT(w, "unknown workload ", name);
            BenchApp b;
            b.name = name;
            b.app = profileApp(*w);
            FeatureEngine engine(b.app.db);
            auto intervals = buildIntervals(
                b.app.db, IntervalScheme::SingleKernel);
            b.points = engine.projectAll(intervals, FeatureKind::BB);
            b.weights.reserve(intervals.size());
            for (const Interval &iv : intervals) {
                b.weights.push_back(
                    std::max<double>(1.0, (double)iv.instrs));
            }
            out.push_back(std::move(b));
        }
        return out;
    }();
    return profiled;
}

void
runCluster(benchmark::State &state, BenchApp &b, bool lloyd)
{
    // One thread: measure the algorithm, not the pool; results are
    // bit-identical at any width (see ClusterOptions::pool).
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    for (auto _ : state) {
        simpoint::Clustering c =
            lloyd ? reference::lloydClusterPoints(b.points, b.weights,
                                                  options)
                  : simpoint::clusterPoints(b.points, b.weights,
                                            options);
        if (!lloyd)
            b.clusterPruneRate = c.stats.pruneRate();
        benchmark::DoNotOptimize(c.assignment.data());
    }
    state.counters["points"] = (double)b.points.size();
}

void
runExplore(benchmark::State &state, BenchApp &b, bool lloyd)
{
    // Prebuilt engine (the usage model: one lowering per workload
    // shared by every consumer), so the timed region is the
    // selection loop itself — interval building, projection, and
    // above all the 30 BIC sweeps.
    FeatureEngine engine(b.app.db);
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    for (auto _ : state) {
        if (!lloyd) {
            Exploration ex =
                exploreConfigs(b.app.db, options, 0, &engine);
            b.explorePruneRate = ex.clusterStats().pruneRate();
            benchmark::DoNotOptimize(ex.results.data());
            continue;
        }
        // exploreConfigs' 30 BIC sweeps on the Lloyd oracle.
        for (int s = 0; s < numIntervalSchemes; ++s) {
            std::vector<Interval> intervals =
                buildIntervals(b.app.db, (IntervalScheme)s);
            std::vector<double> weights;
            for (const Interval &iv : intervals)
                weights.push_back(
                    std::max<double>(1.0, (double)iv.instrs));
            for (int f = 0; f < numFeatureKinds; ++f) {
                simpoint::Clustering c = reference::lloydClusterPoints(
                    engine.projectAll(intervals, (FeatureKind)f),
                    weights, options);
                benchmark::DoNotOptimize(c.assignment.data());
            }
        }
    }
}

std::string
caseName(const char *what, const std::string &app, bool lloyd)
{
    return std::string(what) + "/" + app + "/" +
           (lloyd ? "lloyd" : "pruned");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    for (BenchApp &b : apps()) {
        for (bool lloyd : {true, false}) {
            benchmark::RegisterBenchmark(
                caseName("cluster", b.name, lloyd).c_str(),
                [&b, lloyd](benchmark::State &st) {
                    runCluster(st, b, lloyd);
                })
                ->MinTime(0.1)
                ->Unit(benchmark::kMillisecond);
            benchmark::RegisterBenchmark(
                caseName("explore", b.name, lloyd).c_str(),
                [&b, lloyd](benchmark::State &st) {
                    runExplore(st, b, lloyd);
                })
                ->MinTime(0.1)
                ->Unit(benchmark::kMillisecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    bench::BenchReport report("BENCH_kmeans.json");
    std::cout << "\n";
    const char *sections[] = {"cluster", "explore"};
    for (const char *what : sections) {
        bool explore = what[0] == 'e';
        bench::GeoMean geomean;
        for (const BenchApp &b : apps()) {
            auto ll = reporter.times.find(caseName(what, b.name, true));
            auto pr = reporter.times.find(caseName(what, b.name, false));
            if (ll == reporter.times.end() ||
                pr == reporter.times.end()) {
                continue;
            }
            double speedup = ll->second / pr->second;
            geomean.add(speedup);
            report.addRow(what)
                .field("app", b.name)
                .field("lloyd_ns", ll->second)
                .field("pruned_ns", pr->second)
                .field("speedup", speedup)
                .field("prune_rate", explore ? b.explorePruneRate
                                             : b.clusterPruneRate);
        }
        if (geomean.count() > 0) {
            report.scalar(std::string("geomean_speedup_") + what,
                          geomean.value());
            std::cout << "geomean speedup ("
                      << (explore ? "end-to-end exploreConfigs"
                                  : "clusterPoints BIC sweep")
                      << ", pruned vs lloyd): " << geomean.value()
                      << "x\n";
        }
    }
    return report.finish();
}
