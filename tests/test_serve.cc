/**
 * @file
 * Profiling-service differential tests: sealing prefixes of joined
 * rows, sessions, single-flight admission, eviction, and the shared
 * content-addressed plan cache.
 *
 * The service's central contract is "session == one-shot, bitwise":
 * a session answers with exactly the database and selections a batch
 * pipeline run over the same replay produces, and every copy of a
 * recording shares one session. These tests pin that across pool
 * widths, eviction budgets and concurrent submitters, plus the
 * cache-sharing rules ("fully built => const, shareable") under real
 * concurrency — the `service` label puts the whole file under TSan
 * in the tsan preset.
 */

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "gtpin/tools.hh"
#include "serve/service.hh"
#include "workloads/templates.hh"

namespace gt::serve
{
namespace
{

using core::DispatchRecord;
using core::Interval;
using core::IntervalScheme;
using core::TraceDatabase;

struct Inputs
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
};

/** Deterministic synthetic suite shaped like the profiled apps: a
 * dozen distinct kernels re-dispatched many times, small block
 * vectors, syncs every handful of kernels. */
Inputs
makeInputs(uint64_t n, uint64_t seed = 0x5eedf00d)
{
    Rng rng(seed);
    Inputs in;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t kernel = (uint32_t)(rng.next() % 12);
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = kernel;
        p.kernelName = "suite_kernel_" + std::to_string(kernel);
        p.globalWorkSize = 64 << (kernel % 4);
        p.argsHash = rng.next();
        size_t blocks = 2 + kernel % 4;
        p.blockCounts.resize(blocks);
        p.blockLens.resize(blocks);
        p.blockReadBytes.resize(blocks);
        p.blockWriteBytes.resize(blocks);
        for (size_t b = 0; b < blocks; ++b) {
            p.blockCounts[b] = rng.next() % 5000;
            p.blockLens[b] = 4 + (uint32_t)(rng.next() % 12);
            p.instrs += p.blockCounts[b] * p.blockLens[b];
            p.blockReadBytes[b] = (uint32_t)(rng.next() % 512);
            p.blockWriteBytes[b] = (uint32_t)(rng.next() % 512);
            p.bytesRead += p.blockCounts[b] * p.blockReadBytes[b];
            p.bytesWritten += p.blockCounts[b] * p.blockWriteBytes[b];
        }
        in.profiles.push_back(std::move(p));

        cfl::KernelTiming t;
        t.seq = i;
        t.kernelName = in.profiles.back().kernelName;
        t.seconds = (double)(rng.next() >> 11) * 0x1.0p-53 * 1e-3;
        in.timings.push_back(t);

        ocl::ApiCallRecord call;
        call.callIndex = idx++;
        call.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        call.dispatchSeq = i;
        in.calls.push_back(call);
        if (rng.next() % 7 == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            in.calls.push_back(sync);
        }
    }
    return in;
}

void
expectSameDb(const TraceDatabase &got, const TraceDatabase &want)
{
    ASSERT_EQ(got.numDispatches(), want.numDispatches());
    EXPECT_EQ(got.totalInstrs(), want.totalInstrs());
    EXPECT_EQ(got.totalSeconds(), want.totalSeconds());
    EXPECT_EQ(got.numSyncEpochs(), want.numSyncEpochs());
    for (uint64_t d = 0; d < got.numDispatches(); ++d) {
        EXPECT_EQ(got.profileAt(d).instrs, want.profileAt(d).instrs);
        EXPECT_EQ(got.seconds(d), want.seconds(d));
        EXPECT_EQ(got.syncEpoch(d), want.syncEpoch(d));
    }
}

void
expectSameIntervals(const std::vector<Interval> &got,
                    const std::vector<Interval> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].firstDispatch, want[i].firstDispatch);
        EXPECT_EQ(got[i].lastDispatch, want[i].lastDispatch);
        EXPECT_EQ(got[i].instrs, want[i].instrs);
        EXPECT_EQ(got[i].seconds, want[i].seconds);
    }
}

void
expectSameSelection(const core::SubsetSelection &got,
                    const core::SubsetSelection &want)
{
    expectSameIntervals(got.intervals, want.intervals);
    EXPECT_EQ(got.selected, want.selected);
    ASSERT_EQ(got.ratios.size(), want.ratios.size());
    for (size_t i = 0; i < got.ratios.size(); ++i)
        EXPECT_EQ(got.ratios[i], want.ratios[i]);
    EXPECT_EQ(got.selectedInstrs, want.selectedInstrs);
    EXPECT_EQ(got.totalInstrs, want.totalInstrs);
}

/** The joined rows of @p in (the batch join the service's replays
 * produce). */
std::vector<DispatchRecord>
joinedRows(const Inputs &in)
{
    return TraceDatabase::join(in.profiles, in.timings, in.calls);
}

// ---------------------------------------------------------------
// fromRows() over prefixes of the joined rows vs. batch build().

TEST(ServeBuilder, SealMatchesBatchBuildAtEveryChunk)
{
    const uint64_t n = 300;
    Inputs in = makeInputs(n);
    // Joined with the epoch walk over the whole call stream; the
    // batch oracle below walks only the prefix issued so far.
    std::vector<DispatchRecord> rows = joinedRows(in);
    ASSERT_EQ(rows.size(), n);
    std::vector<size_t> issued(n); // calls issued through dispatch d
    for (size_t c = 0; c < in.calls.size(); ++c) {
        if (in.calls[c].id == ocl::ApiCallId::EnqueueNDRangeKernel)
            issued[in.calls[c].dispatchSeq] = c + 1;
    }

    for (uint64_t chunk : {uint64_t(1), uint64_t(3), uint64_t(256)}) {
        for (uint64_t d = 0; d < n; ++d) {
            if ((d + 1) % chunk != 0 && d + 1 != n)
                continue;
            // Batch-join the same prefix: every call issued so far,
            // every dispatch drained so far.
            TraceDatabase want = TraceDatabase::build(
                {in.profiles.begin(),
                 in.profiles.begin() + (long)(d + 1)},
                {in.timings.begin(),
                 in.timings.begin() + (long)(d + 1)},
                {in.calls.begin(),
                 in.calls.begin() + (long)issued[d]});
            expectSameDb(TraceDatabase::fromRows(
                             {rows.begin(), rows.begin() + (long)(d + 1)}),
                         want);
        }
    }
}

// ---------------------------------------------------------------
// Sessions built over synthetic rows.

/** The sealed database of @p in's joined rows. */
TraceDatabase
sealedDb(const Inputs &in)
{
    return TraceDatabase::fromRows(joinedRows(in));
}

TEST(ServeSession, RefreshIsPoolWidthInvariant)
{
    Inputs in = makeInputs(160);
    ServiceConfig cfg;
    std::vector<core::SubsetSelection> want;
    for (unsigned width : {1u, 4u}) {
        sched::ThreadPool pool(width);
        WorkloadSession session("synthetic", sealedDb(in), cfg, pool);
        for (size_t c = 0; c < cfg.selections.size(); ++c) {
            if (width == 1)
                want.push_back(session.selection(c));
            else
                expectSameSelection(session.selection(c), want[c]);
        }
    }
}

TEST(ServeSession, MemoizedRefreshSkipsUnchangedConfigs)
{
    Inputs in = makeInputs(120);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    TraceDatabase db = sealedDb(in);
    WorkloadSession session("synthetic", db, cfg, pool);
    SessionStats built = session.stats();
    EXPECT_EQ(built.dispatches, in.profiles.size());
    EXPECT_EQ(built.reclustered, cfg.selections.size());
    EXPECT_EQ(built.reusedSelections, 0u);

    // Construction selected once, through the one-shot pipeline.
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(session.selection(c),
                            core::selectSubset(db, sc.scheme, sc.feature,
                                               cfg.cluster,
                                               cfg.targetInstrs));
    }

    // Every refresh answers from the memo: the selections are the
    // same objects and nothing is re-clustered.
    const core::SubsetSelection *first = &session.selection(0);
    session.refresh();
    session.refresh();
    SessionStats after = session.stats();
    EXPECT_EQ(after.refreshes, 2u);
    EXPECT_EQ(after.reclustered, cfg.selections.size());
    EXPECT_EQ(after.reusedSelections, 2 * cfg.selections.size());
    EXPECT_EQ(&session.selection(0), first);
}

// ---------------------------------------------------------------
// The full service on a real recorded application.

const core::ProfiledApp &
gaussianApp()
{
    static const core::ProfiledApp app = core::profileApp(
        *workloads::findWorkload("cb-gaussian-image"));
    return app;
}

/** A distinct recording (by content hash) that replays to exactly
 * @p recording's dispatches: @p k trailing WaitForEvents calls, a
 * sync after the last kernel, which moves no dispatch's epoch. */
cfl::Recording
variant(const cfl::Recording &recording, unsigned k)
{
    cfl::Recording copy = recording;
    for (unsigned i = 0; i < k; ++i) {
        ocl::ApiCallRecord wait;
        wait.id = ocl::ApiCallId::WaitForEvents;
        wait.callIndex = copy.calls.size();
        wait.uargs = {0};
        copy.calls.push_back(wait);
    }
    return copy;
}

/** One session per distinct recording, replayed and clustered once
 * each. */
void
expectOneSessionPerRecording(const ProfilingService &service,
                             uint64_t distinct)
{
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.replays, distinct);
    EXPECT_EQ(stats.sessions.reclustered,
              distinct * service.config().selections.size());
}

TEST(ServeService, ReplayedSessionMatchesOneShot)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    auto tenant = service.openTenant("t0");
    auto wl = service.submit(tenant, app.name, app.recording);
    service.drain();
    service.refreshAll();

    expectOneSessionPerRecording(service, 1);
    WorkloadSession &session = service.session(tenant, wl);
    EXPECT_EQ(session.numDispatches(), app.db.numDispatches());
    TraceDatabase db = session.sealDatabase();
    expectSameDb(db, app.db);

    const ServiceConfig &cfg = service.config();
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(
            session.selection(c),
            core::selectSubset(db, sc.scheme, sc.feature,
                               cfg.cluster, cfg.targetInstrs));
    }
}

TEST(ServeService, IdenticalRecordingsShareReplayArtifacts)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    auto t0 = service.openTenant("t0");
    auto t1 = service.openTenant("t1");
    auto w0 = service.submit(t0, app.name, app.recording);
    auto w1 = service.submit(t1, app.name, app.recording);
    service.drain();
    service.refreshAll();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants, 2u);
    EXPECT_EQ(stats.workloads, 2u);
    EXPECT_EQ(stats.artifactHits, 1u);
    EXPECT_GT(stats.planCache.builds, 0u);
    expectOneSessionPerRecording(service, 1);

    // Warm submissions take a reference: nothing replays or
    // re-clusters, and every copy is the one session.
    auto w2 = service.submit(t0, app.name, app.recording);
    auto w3 = service.submit(t1, "renamed", app.recording);
    service.drain();
    stats = service.stats();
    EXPECT_EQ(stats.workloads, 4u);
    EXPECT_EQ(stats.artifactHits, 3u);
    expectOneSessionPerRecording(service, 1);
    WorkloadSession *shared = &service.session(t0, w0);
    EXPECT_EQ(&service.session(t1, w1), shared);
    EXPECT_EQ(&service.session(t0, w2), shared);
    EXPECT_EQ(&service.session(t1, w3), shared);
}

TEST(ServeService, ConcurrentTenantsAgreeBitwise)
{
    const core::ProfiledApp &app = gaussianApp();
    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);

    const unsigned tenants = 6;
    std::vector<ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < tenants; ++t) {
        ids.push_back(
            service.openTenant("t" + std::to_string(t)));
        service.submit(ids.back(), app.name, app.recording);
    }
    service.drain();
    service.refreshAll();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.artifactHits, (uint64_t)tenants - 1);
    expectOneSessionPerRecording(service, 1);

    WorkloadSession &first = service.session(ids[0], 0);
    for (unsigned t = 1; t < tenants; ++t)
        EXPECT_EQ(&service.session(ids[t], 0), &first);
}

/** @p recording with one mid-stream kernel launch stripped of its
 * arguments: replaying it fails with a FatalError after earlier
 * dispatches have run. */
cfl::Recording
malformedCopy(const cfl::Recording &recording)
{
    cfl::Recording bad = recording;
    std::vector<ocl::ApiCallRecord *> launches;
    for (ocl::ApiCallRecord &call : bad.calls) {
        if (call.id == ocl::ApiCallId::EnqueueNDRangeKernel)
            launches.push_back(&call);
    }
    EXPECT_GT(launches.size(), 1u);
    launches[launches.size() / 2]->uargs.clear();
    return bad;
}

TEST(ServeService, FailedReplayFailsOnlyItsWorkloads)
{
    setLogQuiet(true);
    const core::ProfiledApp &app = gaussianApp();
    const cfl::Recording bad = malformedCopy(app.recording);

    // Occupy every worker so all three submissions queue behind the
    // gate: the second bad copy then attaches to the first as a
    // follower, deterministically.
    sched::ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::vector<std::future<void>> blockers;
    for (unsigned i = 0; i < pool.threadCount(); ++i)
        blockers.push_back(pool.submit([open] { open.wait(); }));

    auto good = service.openTenant("good");
    auto bad0 = service.openTenant("bad-0");
    auto bad1 = service.openTenant("bad-1");
    service.submit(bad0, "broken", bad);
    service.submit(good, app.name, app.recording);
    service.submit(bad1, "broken", bad);
    gate.set_value();
    for (std::future<void> &b : blockers)
        b.get();

    // Both copies are reported, in one error.
    try {
        service.drain();
        ADD_FAILURE() << "drain() did not report the failed replay";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("2 submissions failed"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'bad-0'"), std::string::npos) << what;
        EXPECT_NE(what.find("'bad-1'"), std::string::npos) << what;
        EXPECT_EQ(what.find("'good'"), std::string::npos) << what;
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.replays, 2u); // one bad leader, one good
    EXPECT_EQ(stats.artifactHits, 0u);
    EXPECT_EQ(stats.sessions.reclustered, cfg.selections.size());
    EXPECT_THROW(service.session(bad0, 0), FatalError);
    EXPECT_THROW(service.session(bad1, 0), FatalError);

    // The good workload is unaffected.
    service.refreshAll();
    WorkloadSession &session = service.session(good, 0);
    TraceDatabase db = session.sealDatabase();
    expectSameDb(db, app.db);
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(
            session.selection(c),
            core::selectSubset(db, sc.scheme, sc.feature, cfg.cluster,
                               cfg.targetInstrs));
    }
    EXPECT_NO_THROW(service.drain()); // each failure reported once

    // A failed recording is not cached: resubmitting replays afresh
    // and fails only the new workload.
    service.submit(bad0, "broken", bad);
    EXPECT_THROW(service.drain(), FatalError);
    stats = service.stats();
    EXPECT_EQ(stats.replays, 3u);
    EXPECT_EQ(stats.artifactHits, 0u);
    EXPECT_THROW(service.session(bad0, 1), FatalError);
    EXPECT_NO_THROW(service.session(good, 0));
}

TEST(ServeService, EmptyRecordingFailsOnlyItsWorkload)
{
    setLogQuiet(true);
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    auto good = service.openTenant("good");
    auto empty = service.openTenant("empty");
    service.submit(empty, "no-kernels", cfl::Recording{});
    service.submit(good, app.name, app.recording);

    try {
        service.drain();
        ADD_FAILURE() << "drain() did not report the empty recording";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("1 submission failed"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'no-kernels'"), std::string::npos) << what;
        EXPECT_EQ(what.find(app.name), std::string::npos) << what;
    }
    EXPECT_THROW(service.session(empty, 0), FatalError);
    // Both replayed; only the good one was clustered.
    EXPECT_EQ(service.stats().replays, 2u);
    EXPECT_EQ(service.stats().sessions.reclustered,
              service.config().selections.size());
    EXPECT_EQ(service.session(good, 0).numDispatches(),
              app.db.numDispatches());
}

// ---------------------------------------------------------------
// The shared content-addressed plan cache.

TEST(ServeCaches, PlanCacheSharesAcrossDrivers)
{
    const core::ProfiledApp &app = gaussianApp();
    gpu::SharedPlanCache plans(gpu::DeviceConfig::hd4000());

    auto replayWithSharedCache = [&]() {
        workloads::TemplateJit jit;
        ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, {});
        driver.setSharedPlanCache(&plans);
        gtpin::KernelProfileTool profile_tool;
        gtpin::GtPin pin;
        pin.addTool(&profile_tool);
        pin.attach(driver);
        ocl::ClRuntime runtime(driver);
        cfl::replay(app.recording, runtime);
        pin.detach();
        return profile_tool.takeProfiles();
    };

    auto first = replayWithSharedCache();
    gpu::SharedCacheStats cold = plans.stats();
    EXPECT_GT(cold.builds, 0u);
    EXPECT_GT(cold.misses, 0u);

    auto second = replayWithSharedCache();
    gpu::SharedCacheStats warm = plans.stats();
    // Same kernels: the second driver builds nothing and hits for
    // every plan the first one published.
    EXPECT_EQ(warm.builds, cold.builds);
    EXPECT_GT(warm.hits, cold.hits);

    // Adopted plans change nothing observable about execution.
    ASSERT_EQ(first.size(), second.size());
    for (size_t d = 0; d < first.size(); ++d) {
        EXPECT_EQ(first[d].instrs, second[d].instrs);
        EXPECT_EQ(first[d].blockCounts, second[d].blockCounts);
        EXPECT_EQ(first[d].bytesRead, second[d].bytesRead);
        EXPECT_EQ(first[d].bytesWritten, second[d].bytesWritten);
    }
}

TEST(ServeCaches, PlanCacheConcurrentLookupsAreExact)
{
    gpu::SharedPlanCache cache(gpu::DeviceConfig::hd4000());
    const unsigned threads = 4;
    const uint64_t keys = 16, iters = 400;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&cache, t]() {
            Rng rng(0xc0ffee + t);
            for (uint64_t i = 0; i < iters; ++i) {
                uint64_t key = rng.next() % keys;
                auto plan = cache.find(key);
                if (!plan) {
                    auto built = std::make_shared<gpu::ExecPlan>();
                    built->numInstrs = key;
                    plan = cache.insert(key, std::move(built));
                }
                // Never a torn or foreign artifact.
                ASSERT_EQ(plan->numInstrs, key);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    gpu::SharedCacheStats stats = cache.stats();
    EXPECT_EQ(cache.size(), keys);
    // First insert wins exactly once per key...
    EXPECT_EQ(stats.builds, keys);
    // ...and every lookup is accounted for.
    EXPECT_EQ(stats.hits + stats.misses, threads * iters);
}

// ---------------------------------------------------------------
// Session eviction and budget enforcement.

/** Per-test archive directory under the gtest temp root, unique per
 * process so stale catalogs from earlier runs never leak in. */
std::string
evictDir(const std::string &tag)
{
    return ::testing::TempDir() + "gt-serve-test-" +
           std::to_string((long)::getpid()) + "-" + tag;
}

TEST(ServeEviction, EvictRehydrateMatchesNeverEvicted)
{
    Inputs in = makeInputs(250);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    TraceDatabase want = sealedDb(in);
    WorkloadSession session("synthetic", want, cfg, pool);
    WorkloadSession oracle("synthetic", want, cfg, pool);
    SessionArchive archive(evictDir("rehydrate"));
    std::string path = archive.pathFor(0x5eed, "synthetic");

    const uint64_t resident = session.memoryBytes();
    session.evict(path);
    archive.record("synthetic", path, session.numDispatches());
    EXPECT_TRUE(session.isEvicted());
    // Eviction releases the database.
    EXPECT_LT(session.memoryBytes(), resident / 4);
    EXPECT_EQ(session.stats().evictions, 1u);

    // The archive reopens as the database that was evicted, bitwise,
    // and the session stays evicted.
    expectSameDb(session.sealDatabase(), want);
    expectSameDb(session.sealDatabase(), oracle.sealDatabase());
    EXPECT_TRUE(session.isEvicted());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(session.selection(c),
                            oracle.selection(c));
}

TEST(ServeEviction, EvictedSessionAnswersFromMemo)
{
    Inputs in = makeInputs(120);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    WorkloadSession session("synthetic", sealedDb(in), cfg, pool);
    std::vector<core::SubsetSelection> before;
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        before.push_back(session.selection(c));

    SessionArchive archive(evictDir("memo"));
    std::string path = archive.pathFor(0x5eed, "synthetic");
    session.evict(path);
    ASSERT_TRUE(session.isEvicted());

    // refresh() and selection() answer from the memo without
    // touching the archive.
    session.refresh();
    EXPECT_TRUE(session.isEvicted());
    SessionStats stats = session.stats();
    EXPECT_EQ(stats.reclustered, cfg.selections.size());
    EXPECT_EQ(stats.reusedSelections, cfg.selections.size());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(session.selection(c), before[c]);

    // Eviction is idempotent.
    session.evict(path);
    EXPECT_EQ(session.stats().evictions, 1u);
    EXPECT_EQ(session.numDispatches(), in.profiles.size());
}

TEST(ServeEviction, ServiceThresholdSweepIsBitwise)
{
    const core::ProfiledApp &app = gaussianApp();
    struct Budget
    {
        const char *tag;
        size_t sessions;
        uint64_t bytes;
        bool evicts;
    };
    const Budget budgets[] = {
        {"unbounded", SIZE_MAX, UINT64_MAX, false},
        {"one-session", 1, UINT64_MAX, true},
        {"zero-bytes", SIZE_MAX, 0, true},
        {"session-budget-0", 0, UINT64_MAX, true},
    };
    const unsigned tenants = 3;
    // Two distinct recordings, so a one-session budget evicts.
    const cfl::Recording recordings[] = {app.recording,
                                         variant(app.recording, 1)};

    // Selections must be bitwise identical no matter which budget
    // forced evictions along the way.
    std::vector<core::SubsetSelection> want;
    for (const Budget &budget : budgets) {
        ServiceConfig cfg;
        cfg.maxResidentSessions = budget.sessions;
        cfg.maxResidentBytes = budget.bytes;
        cfg.archiveDir = evictDir(budget.tag);
        ProfilingService service(cfg);

        std::vector<ProfilingService::TenantId> ids;
        for (unsigned t = 0; t < tenants; ++t) {
            ids.push_back(
                service.openTenant("t" + std::to_string(t)));
            for (const cfl::Recording &rec : recordings)
                service.submit(ids.back(), app.name, rec);
        }
        service.drain();
        service.refreshAll();
        expectOneSessionPerRecording(service, 2);

        ServiceStats stats = service.stats();
        if (budget.evicts) {
            EXPECT_GT(stats.sessions.evictions, 0u) << budget.tag;
            EXPECT_FALSE(
                SessionArchive::readCatalog(cfg.archiveDir).empty())
                << budget.tag;
        } else {
            EXPECT_EQ(stats.sessions.evictions, 0u) << budget.tag;
        }

        for (unsigned t = 0; t < tenants; ++t) {
            for (ProfilingService::WorkloadId w = 0; w < 2; ++w) {
                WorkloadSession &session = service.session(ids[t], w);
                EXPECT_EQ(&session, &service.session(ids[0], w));
                expectSameDb(session.sealDatabase(), app.db);
                for (size_t c = 0; c < cfg.selections.size(); ++c) {
                    if (want.size() < cfg.selections.size())
                        want.push_back(session.selection(c));
                    else
                        expectSameSelection(session.selection(c),
                                            want[c]);
                }
            }
        }
    }
}

TEST(ServeEviction, ConcurrentSubmitWhileEvicting)
{
    const core::ProfiledApp &app = gaussianApp();
    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    cfg.maxResidentSessions = 0; // evict every session
    cfg.archiveDir = evictDir("concurrent");
    ProfilingService service(cfg);

    // Each thread submits two distinct recordings twice: warm hits
    // take their references on the submitting threads while a
    // finished replay evicts — the TSan-covered interleaving.
    const unsigned threads = 4;
    const cfl::Recording recordings[] = {app.recording,
                                         variant(app.recording, 1)};
    std::vector<ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < threads; ++t)
        ids.push_back(service.openTenant("t" + std::to_string(t)));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&service, &app, &ids, &recordings, t]() {
            for (unsigned rep = 0; rep < 2; ++rep) {
                for (const cfl::Recording &rec : recordings)
                    service.submit(ids[t], app.name, rec);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    service.drain();
    service.refreshAll();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.workloads, threads * 4u);
    EXPECT_EQ(stats.replays + stats.artifactHits, threads * 4u);
    EXPECT_EQ(stats.sessions.evictions, 2u);
    expectOneSessionPerRecording(service, 2);

    for (unsigned t = 0; t < threads; ++t) {
        for (ProfilingService::WorkloadId w = 0; w < 4; ++w) {
            WorkloadSession &session = service.session(ids[t], w);
            EXPECT_EQ(&session, &service.session(ids[0], w % 2));
            EXPECT_TRUE(session.isEvicted());
            expectSameSelection(session.selection(0),
                                service.session(ids[0], 0).selection(0));
        }
    }
}

TEST(ServeEviction, FootprintStaysBoundedUnderByteBudget)
{
    const core::ProfiledApp &app = gaussianApp();

    // Measure one resident session to size the budget.
    uint64_t one_session = 0;
    {
        ProfilingService probe;
        auto tenant = probe.openTenant("probe");
        probe.submit(tenant, app.name, app.recording);
        probe.drain();
        probe.refreshAll();
        one_session = probe.session(tenant, 0).memoryBytes();
        ASSERT_GT(one_session, 0u);

        ServiceFootprint fp = probe.memoryFootprint();
        EXPECT_EQ(fp.sessionBytes, one_session);
        EXPECT_GT(fp.memoBytes, 0u); // the memoized selections
        EXPECT_EQ(fp.evictedResidueBytes, 0u); // nothing evicted
        EXPECT_EQ(fp.totalBytes,
                  fp.sessionBytes + fp.evictedResidueBytes +
                      fp.memoBytes + fp.planCacheBytes +
                      fp.artifactBytes + fp.traceCacheBytes);
        EXPECT_GT(fp.planCacheBytes, 0u);
        EXPECT_GT(fp.artifactBytes, 0u); // the session cache's entry
    }

    // A ~1.5-session budget: resident session bytes stay bounded no
    // matter how many distinct recordings accumulate.
    ServiceConfig cfg;
    cfg.maxResidentBytes = one_session + one_session / 2;
    cfg.archiveDir = evictDir("budget");
    ProfilingService service(cfg);
    auto tenant = service.openTenant("t0");
    const unsigned distinct = 6;
    for (unsigned i = 0; i < distinct; ++i) {
        service.submit(tenant, app.name, variant(app.recording, i));
        service.drain();
        ServiceFootprint fp = service.memoryFootprint();
        EXPECT_LE(fp.sessionBytes, cfg.maxResidentBytes);
    }
    service.refreshAll();
    expectOneSessionPerRecording(service, distinct);
    EXPECT_EQ(service.stats().sessions.evictions, distinct - 1);
    ServiceFootprint after = service.memoryFootprint();
    EXPECT_GT(after.evictedResidueBytes, 0u);
    EXPECT_LE(after.sessionBytes, cfg.maxResidentBytes);

    // Variants replay to the same dispatches: evicted or not, every
    // session answers the same selections.
    WorkloadSession &first = service.session(tenant, 0);
    for (ProfilingService::WorkloadId w = 1; w < distinct; ++w) {
        WorkloadSession &other = service.session(tenant, w);
        EXPECT_NE(&other, &first);
        for (size_t c = 0; c < cfg.selections.size(); ++c)
            expectSameSelection(other.selection(c),
                                first.selection(c));
    }
}

TEST(ServeArchive, CatalogRoundTripsAcrossInstances)
{
    std::string dir = evictDir("catalog");
    SessionArchive archive(dir);
    EXPECT_TRUE(archive.entries().empty());

    std::string p0 = archive.pathFor(0x10, "alpha beta/1");
    std::string p1 = archive.pathFor(0x12, "gamma");
    EXPECT_NE(p0, p1);
    archive.record("alpha beta/1", p0, 10);
    archive.record("gamma", p1, 20);
    archive.record("alpha beta/1", p0, 30); // update, not duplicate

    std::vector<SessionArchive::Entry> rows = archive.entries();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].workload, "alpha beta/1");
    EXPECT_EQ(rows[0].dispatches, 30u);
    EXPECT_EQ(rows[1].workload, "gamma");
    EXPECT_EQ(rows[1].dispatches, 20u);

    // A second instance over the same directory reads the catalog
    // back field for field.
    SessionArchive reopened(dir);
    std::vector<SessionArchive::Entry> again = reopened.entries();
    ASSERT_EQ(again.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(again[i].file, rows[i].file);
        EXPECT_EQ(again[i].dispatches, rows[i].dispatches);
        EXPECT_EQ(again[i].workload, rows[i].workload);
    }
    EXPECT_EQ(SessionArchive::readCatalog(dir).size(), rows.size());
}

} // anonymous namespace
} // namespace gt::serve
