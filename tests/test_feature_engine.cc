/**
 * @file
 * Differential tests for the columnar feature engine: every result —
 * vectors, projections, clusterings, whole explorations — must be
 * bitwise identical to the std::map reference oracle
 * (tests/reference), at every thread count, on real profiled
 * workloads and on adversarial synthetic traces.
 */

#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "reference/features.hh"
#include "reference/selection.hh"
#include "workloads/workload.hh"

namespace gt::core
{
namespace
{

std::vector<FeatureKind>
allKinds()
{
    std::vector<FeatureKind> kinds;
    for (int k = 0; k < numFeatureKinds; ++k)
        kinds.push_back((FeatureKind)k);
    return kinds;
}

std::vector<IntervalScheme>
allSchemes()
{
    return {IntervalScheme::SyncBounded,
            IntervalScheme::ApproxInstructions,
            IntervalScheme::SingleKernel};
}

ProfiledApp
profiled(const char *name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload ", name);
    return profileApp(*w);
}

void
expectBitwiseEqual(const FeatureVector &a, const FeatureVector &b)
{
    ASSERT_EQ(a.keys(), b.keys());
    ASSERT_EQ(a.values().size(), b.values().size());
    for (size_t i = 0; i < a.values().size(); ++i)
        ASSERT_EQ(a.values()[i], b.values()[i]) << "dim " << i;
}

// --- Engine vs map oracle on real profiled workloads --------------

class EngineWorkloadTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineWorkloadTest, FlatVectorsMatchMapOracleBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            for (const Interval &iv : intervals) {
                FeatureVector got = flat.extract(iv, kind);
                FeatureVector want =
                    reference::extractFeaturesMap(app.db, iv, kind);
                expectBitwiseEqual(got, want);
            }
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ProjectionsMatchOnTheFlyBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            auto points = flat.projectAll(intervals, kind);
            auto vectors = flat.extractAll(intervals, kind);
            ASSERT_EQ(points.size(), vectors.size());
            for (size_t i = 0; i < vectors.size(); ++i) {
                simpoint::Point fly = simpoint::project(vectors[i]);
                for (int d = 0; d < simpoint::projectedDims; ++d)
                    ASSERT_EQ(points[i][d], fly[d]) << "dim " << d;
            }
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ExplorationMatchesMapBackendBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);

    Exploration a = exploreConfigs(app.db, {}, 0, &flat);
    Exploration b = reference::exploreConfigs(app.db);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        const ConfigResult &ra = a.results[i];
        const ConfigResult &rb = b.results[i];
        EXPECT_EQ(ra.selection.scheme, rb.selection.scheme);
        EXPECT_EQ(ra.selection.feature, rb.selection.feature);
        EXPECT_EQ(ra.selection.selected, rb.selection.selected);
        EXPECT_EQ(ra.selection.ratios, rb.selection.ratios); // bitwise
        EXPECT_EQ(ra.selection.selectedInstrs,
                  rb.selection.selectedInstrs);
        EXPECT_EQ(ra.errorPct, rb.errorPct); // bitwise
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, FlatExplorationIsThreadCountInvariant)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);

    auto explore_with = [&](unsigned threads) {
        sched::ThreadPool pool(threads);
        simpoint::ClusterOptions options;
        options.pool = &pool;
        return exploreConfigs(app.db, options, 0, &flat);
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
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, RangeSumsMatchDispatchLoops)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    const TraceDatabase &db = app.db;
    for (IntervalScheme scheme : allSchemes()) {
        for (const Interval &iv : buildIntervals(db, scheme)) {
            uint64_t instrs = 0;
            double seconds = 0.0;
            for (uint64_t i = iv.firstDispatch;
                 i <= iv.lastDispatch; ++i) {
                instrs += db.profileAt(i).instrs;
                seconds += db.seconds(i);
            }
            EXPECT_EQ(db.rangeInstrs(iv.firstDispatch,
                                     iv.lastDispatch),
                      instrs);
            // Same left-to-right accumulation: bitwise equal.
            EXPECT_EQ(db.rangeSeconds(iv.firstDispatch,
                                      iv.lastDispatch),
                      seconds);
            EXPECT_EQ(iv.instrs, instrs);
            EXPECT_EQ(iv.seconds, seconds);
        }
    }
    setLogQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(
    TwoWorkloads, EngineWorkloadTest,
    ::testing::Values("cb-histogram-buffer", "cb-gaussian-image"),
    [](const auto &info) {
        std::string out;
        for (char c : std::string(info.param)) {
            out += std::isalnum((unsigned char)c) ? c : '_';
        }
        return out;
    });

// --- Replayed trials --------------------------------------------

TEST(FeatureEngine, ReplayedTrialNeedsItsOwnEngine)
{
    setLogQuiet(true);
    ProfiledApp app = profiled("cb-histogram-buffer");
    gpu::TrialConfig trial2;
    trial2.noiseSeed = 99;
    TraceDatabase db2 = replayTrial(app.recording,
                                    gpu::DeviceConfig::hd4000(),
                                    trial2);

    // An engine is bound to the database it lowered; handing it a
    // selection pass over another trial's database must trip the
    // identity assert rather than silently serve stale columns.
    FeatureEngine engine1(app.db);
    EXPECT_THROW(selectSubset(db2, IntervalScheme::SyncBounded,
                              FeatureKind::BB, {}, 0, &engine1),
                 PanicError);

    // A fresh engine over the replayed trial matches that trial's
    // oracle (not trial 1's).
    FeatureEngine engine2(db2);
    for (const Interval &iv :
         buildIntervals(db2, IntervalScheme::SingleKernel)) {
        expectBitwiseEqual(
            engine2.extract(iv, FeatureKind::BB_R_W),
            reference::extractFeaturesMap(db2, iv, FeatureKind::BB_R_W));
    }
    setLogQuiet(false);
}

// --- Synthetic edge cases ----------------------------------------

/** One all-zero dispatch between two normal ones, plus a dispatch
 * with zero-count blocks only. */
TraceDatabase
edgeDb()
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> stream;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < 4; ++i) {
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = (uint32_t)i;
        p.kernelName = "edge";
        p.globalWorkSize = 64;
        p.argsHash = 7;
        switch (i) {
          case 0: // normal
            p.blockCounts = {3, 1};
            p.blockLens = {10, 2};
            p.blockReadBytes = {8, 0};
            p.blockWriteBytes = {0, 4};
            break;
          case 1: // zero instructions, zero blocks executed
            p.blockCounts = {0, 0};
            p.blockLens = {10, 2};
            p.blockReadBytes = {8, 0};
            p.blockWriteBytes = {0, 4};
            break;
          case 2: // kernel with no basic-block data at all
            break;
          default: // normal again
            p.blockCounts = {5};
            p.blockLens = {4};
            p.blockReadBytes = {0};
            p.blockWriteBytes = {16};
            break;
        }
        for (size_t b = 0; b < p.blockCounts.size(); ++b) {
            p.instrs += p.blockCounts[b] * p.blockLens[b];
            p.bytesRead += p.blockCounts[b] * p.blockReadBytes[b];
            p.bytesWritten +=
                p.blockCounts[b] * p.blockWriteBytes[b];
        }
        profiles.push_back(p);

        cfl::KernelTiming t;
        t.seq = i;
        t.seconds = 1e-6 * (double)(i + 1);
        timings.push_back(t);

        ocl::ApiCallRecord rec;
        rec.callIndex = idx++;
        rec.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        rec.dispatchSeq = i;
        stream.push_back(rec);
    }
    return TraceDatabase::build(std::move(profiles), timings,
                                stream);
}

TEST(FeatureEngine, EmptyDispatchesYieldEmptyVectorsOnBothBackends)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    for (uint64_t d : {1ull, 2ull}) {
        Interval iv;
        iv.firstDispatch = d;
        iv.lastDispatch = d;
        for (FeatureKind kind : allKinds()) {
            FeatureVector got = flat.extract(iv, kind);
            FeatureVector want = reference::extractFeaturesMap(db, iv, kind);
            EXPECT_EQ(got.dims(), 0u)
                << featureKindName(kind) << " dispatch " << d;
            expectBitwiseEqual(got, want);
        }
    }
}

TEST(FeatureEngine, SingleDispatchIntervalsMatchOracle)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    for (uint64_t d = 0; d < db.numDispatches(); ++d) {
        Interval iv;
        iv.firstDispatch = d;
        iv.lastDispatch = d;
        for (FeatureKind kind : allKinds()) {
            expectBitwiseEqual(flat.extract(iv, kind),
                               reference::extractFeaturesMap(db, iv, kind));
        }
    }
}

TEST(FeatureEngine, ScratchReuseAcrossKindsAndIntervalsIsClean)
{
    TraceDatabase db = edgeDb();
    DispatchFeatureCache cache(db);
    DispatchFeatureCache::Scratch scratch;
    // Interleave kinds and intervals through ONE scratch and check
    // nothing leaks between extractions.
    for (int round = 0; round < 3; ++round) {
        for (FeatureKind kind : allKinds()) {
            for (uint64_t d = 0; d < db.numDispatches(); ++d) {
                Interval iv;
                iv.firstDispatch = 0;
                iv.lastDispatch = d;
                expectBitwiseEqual(
                    cache.extract(iv, kind, scratch),
                    reference::extractFeaturesMap(db, iv, kind));
            }
        }
    }
}

TEST(FeatureEngine, AllZeroVectorsNormalizeToEmpty)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    Interval iv;
    iv.firstDispatch = 1;
    iv.lastDispatch = 2; // only instruction-free dispatches
    for (FeatureKind kind : allKinds()) {
        auto flat_all = flat.extractAll({iv}, kind);
        auto map_all = reference::extractAllMap(db, {iv}, kind);
        ASSERT_EQ(flat_all.size(), 1u);
        ASSERT_EQ(map_all.size(), 1u);
        EXPECT_EQ(flat_all[0].dims(), 0u);
        expectBitwiseEqual(flat_all[0], map_all[0]);
    }
}

TEST(FeatureEngine, CacheKeyUniverseCoversEveryExtractedKey)
{
    TraceDatabase db = edgeDb();
    DispatchFeatureCache cache(db);
    const auto &keys = cache.uniqueKeys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    DispatchFeatureCache::Scratch scratch;
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;
    for (FeatureKind kind : allKinds()) {
        FeatureVector vec = cache.extract(whole, kind, scratch);
        for (uint64_t key : vec.keys()) {
            EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(),
                                           key));
        }
    }
}

// --- ProjectionTable and FeatureVector units ---------------------

TEST(ProjectionTable, RowsMatchOnTheFlyCoefficients)
{
    std::vector<uint64_t> keys = {2, 17, 0x9000000000000001ull};
    auto table = simpoint::ProjectionTable::build(keys);
    EXPECT_EQ(table.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        FeatureVector unit;
        unit.add(keys[i], 1.0);
        simpoint::Point via_hash = simpoint::project(unit);
        for (int d = 0; d < simpoint::projectedDims; ++d)
            EXPECT_EQ(table.rowAt(i)[d], via_hash[d]);
    }
}

TEST(ProjectionTable, MissingKeyTripsAssert)
{
    setLogQuiet(true);
    TraceDatabase db = edgeDb();
    DispatchFeatureCache cache(db);
    std::vector<uint64_t> keys = cache.uniqueKeys();
    ASSERT_FALSE(keys.empty());
    keys.pop_back(); // one key short of the cache's universe
    auto table = simpoint::ProjectionTable::build(keys);
    DispatchFeatureCache::Scratch scratch;
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;
    EXPECT_THROW(cache.projectInto(whole, FeatureKind::BB, scratch,
                                   table),
                 PanicError);
    setLogQuiet(false);
}

TEST(FeatureVector, FromSortedRejectsBadColumns)
{
    setLogQuiet(true);
    EXPECT_THROW(FeatureVector::fromSorted({1, 2}, {1.0}),
                 PanicError);
    EXPECT_THROW(FeatureVector::fromSorted({2, 1}, {1.0, 2.0}),
                 PanicError);
    EXPECT_THROW(FeatureVector::fromSorted({1, 1}, {1.0, 2.0}),
                 PanicError);
    setLogQuiet(false);
    FeatureVector ok = FeatureVector::fromSorted({1, 5}, {2.0, 3.0});
    EXPECT_EQ(ok.dims(), 2u);
    EXPECT_DOUBLE_EQ(ok.sum(), 5.0);
}

TEST(FeatureVector, AddMatchesFromSortedAndComparesEqual)
{
    FeatureVector a;
    a.add(30, 1.0);
    a.add(10, 2.0);
    a.add(20, 3.0);
    a.add(10, 0.5); // accumulate out of order
    FeatureVector b =
        FeatureVector::fromSorted({10, 20, 30}, {2.5, 3.0, 1.0});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.keys(), (std::vector<uint64_t>{10, 20, 30}));
}

} // anonymous namespace
} // namespace gt::core
