#include "serve/service.hh"

#include <algorithm>
#include <cstdlib>

#include <unistd.h>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "core/trace_store.hh"

namespace gt::serve
{

namespace
{

/** Fill in the archive directory's TMPDIR fallback. */
ServiceConfig
resolveConfig(ServiceConfig cfg)
{
    if (cfg.archiveDir.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        std::string base = tmp && *tmp != '\0' ? tmp : "/tmp";
        cfg.archiveDir =
            base + "/gt-serve-" + std::to_string(::getpid());
    }
    return cfg;
}

} // namespace

WorkloadSession::WorkloadSession(std::string workload_name,
                                 core::TraceDatabase database,
                                 const ServiceConfig &config,
                                 sched::ThreadPool &pool)
    : workloadName(std::move(workload_name)),
      dispatches(database.numDispatches()), db(std::move(database))
{
    if (dispatches == 0) {
        fatal("serve: workload '", workloadName,
              "' has no kernel dispatches to select from");
    }
    core::simpoint::ClusterOptions options = config.cluster;
    options.pool = &pool;
    core::FeatureEngine engine(*db);
    selections.reserve(config.selections.size());
    for (const SelectionConfig &sc : config.selections) {
        selections.push_back(core::selectSubset(
            *db, sc.scheme, sc.feature, options, config.targetInstrs,
            &engine));
    }
    counters.dispatches = dispatches;
    counters.reclustered = selections.size();
}

void
WorkloadSession::refresh()
{
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.refreshes;
    counters.reusedSelections += selections.size();
}

const core::SubsetSelection &
WorkloadSession::selection(size_t config) const
{
    GT_ASSERT(config < selections.size(), "selection config ", config,
              " out of range (", selections.size(), " configured)");
    return selections[config];
}

core::TraceDatabase
WorkloadSession::sealDatabase() const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (db)
        return *db;
    // The archive holds the evicted database's bytes as they were;
    // reopening it reproduces the sealed totals bit for bit.
    return core::TraceDatabase::openColumnarFile(archivePath);
}

void
WorkloadSession::evict(const std::string &archive_path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!db)
        return;
    db->writeArchive(archive_path);
    archivePath = archive_path;
    db.reset();
    ++counters.evictions;
}

bool
WorkloadSession::isEvicted() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return !db;
}

uint64_t
WorkloadSession::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t bytes = sizeof(*this) + workloadName.size() +
                     archivePath.size();
    if (db) {
        core::TraceDbFootprint fp = db->memoryFootprint();
        bytes += fp.columnBytes + fp.fileBytes;
    }
    return bytes;
}

uint64_t
WorkloadSession::memoBytes() const
{
    uint64_t bytes = 0;
    for (const core::SubsetSelection &sel : selections) {
        bytes += sel.intervals.size() * sizeof(core::Interval) +
                 sel.selected.size() * sizeof(uint64_t) +
                 sel.ratios.size() * sizeof(double);
    }
    return bytes;
}

SessionStats
WorkloadSession::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

ProfilingService::ProfilingService(ServiceConfig config)
    : cfg(resolveConfig(std::move(config))),
      pool(cfg.pool ? *cfg.pool : sched::ThreadPool::global()),
      admission(pool, cfg.replayWidth), plans(cfg.device),
      archiveRoot(cfg.archiveDir)
{
}

ProfilingService::~ProfilingService()
{
    std::vector<std::future<void>> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        work.swap(pendingReplays);
    }
    for (std::future<void> &f : work) {
        try {
            f.get();
        } catch (...) {
            // drain() is the reporting path; the destructor only
            // guarantees no replay outlives the service.
        }
    }
}

ProfilingService::TenantId
ProfilingService::openTenant(std::string name)
{
    std::lock_guard<std::mutex> lock(mutex);
    tenants.push_back(std::make_unique<Tenant>());
    tenants.back()->name = std::move(name);
    return tenants.size() - 1;
}

ProfilingService::WorkloadId
ProfilingService::submit(TenantId tenant, std::string workload_name,
                         cfl::Recording recording)
{
    const uint64_t key = cfl::recordingContentHash(recording);
    Workload *wl = nullptr;
    WorkloadId id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        GT_ASSERT(tenant < tenants.size(), "unknown tenant ",
                  tenant);
        Tenant &t = *tenants[tenant];
        t.workloads.push_back(std::make_unique<Workload>());
        wl = t.workloads.back().get();
        wl->tenant = tenant;
        wl->name = std::move(workload_name);
        wl->recordingHash = key;
        id = t.workloads.size() - 1;

        // Single-flight admission: the first submission of a
        // recording leads its replay; a later copy takes a reference
        // to the built session (a warm hit) or waits on the leader.
        auto [it, leads] = sessions.try_emplace(key);
        CachedSession &cached = it->second;
        if (!leads) {
            if (cached.session) {
                wl->session = cached.session;
                cached.lastUse = ++useTicket;
                ++artifactHitCount;
            } else {
                cached.followers.push_back(wl);
            }
            return id;
        }
    }

    // Schedule outside the service lock: on a 1-thread pool submit()
    // runs the replay inline, and the replay takes the service lock
    // to publish its session.
    std::future<void> fut = pool.submit(
        [this, wl, rec = std::move(recording)]() mutable {
            runReplay(*wl, std::move(rec));
        });
    {
        std::lock_guard<std::mutex> lock(mutex);
        pendingReplays.push_back(std::move(fut));
    }
    return id;
}

void
ProfilingService::drain()
{
    std::vector<std::future<void>> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        work.swap(pendingReplays);
    }
    // runReplay() records replay failures on their workloads; what
    // still escapes (say, a failed eviction) is collected here so
    // every replay is waited for before anything is thrown.
    std::vector<std::string> errors;
    for (std::future<void> &f : work) {
        try {
            f.get();
        } catch (const std::exception &e) {
            errors.push_back(e.what());
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const Workload *w : unreportedFailures) {
            errors.push_back("tenant '" + tenants[w->tenant]->name +
                             "', workload '" + w->name +
                             "': " + w->error);
        }
        unreportedFailures.clear();
    }
    if (errors.empty())
        return;
    std::string report;
    for (const std::string &e : errors)
        report += "\n  " + e;
    fatal("serve: ", errors.size(), " submission",
          errors.size() == 1 ? "" : "s", " failed:", report);
}

void
ProfilingService::refreshAll()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &t : tenants) {
        for (const auto &w : t->workloads) {
            if (!w->session)
                continue;
            w->session->refresh();
            sessions.at(w->recordingHash).lastUse = ++useTicket;
        }
    }
}

WorkloadSession &
ProfilingService::session(TenantId tenant, WorkloadId workload)
{
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(tenant < tenants.size(), "unknown tenant ", tenant);
    Tenant &t = *tenants[tenant];
    GT_ASSERT(workload < t.workloads.size(), "unknown workload ",
              workload, " for tenant '", t.name, "'");
    Workload &w = *t.workloads[workload];
    if (!w.error.empty()) {
        fatal("serve: workload '", w.name, "' of tenant '", t.name,
              "' failed: ", w.error);
    }
    GT_ASSERT(w.session, "workload '", w.name, "' of tenant '", t.name,
              "' is still replaying; drain() first");
    return *w.session;
}

ServiceStats
ProfilingService::stats() const
{
    ServiceStats st;
    {
        std::lock_guard<std::mutex> lock(mutex);
        st.tenants = tenants.size();
        for (const auto &t : tenants)
            st.workloads += t->workloads.size();
        for (const auto &[key, cached] : sessions) {
            (void)key;
            if (!cached.session)
                continue;
            SessionStats s = cached.session->stats();
            st.sessions.dispatches += s.dispatches;
            st.sessions.refreshes += s.refreshes;
            st.sessions.reclustered += s.reclustered;
            st.sessions.reusedSelections += s.reusedSelections;
            st.sessions.evictions += s.evictions;
        }
        st.replays = replayCount;
        st.artifactHits = artifactHitCount;
    }
    st.planCache = plans.stats();
    return st;
}

void
ProfilingService::runReplay(Workload &leader, cfl::Recording recording)
{
    std::shared_ptr<WorkloadSession> session;
    std::string error;
    try {
        core::TraceDatabase db;
        {
            // The oversubscription guard: every replay runs on the
            // one shared pool, and at most admission.width() run
            // concurrently. Re-entrant: a replay submitted from
            // inside an already-admitted task (inline execution on
            // a 1-thread pool) must not wait on its own slot.
            sched::PoolHandle::Slot slot = admission.acquireReentrant();
            db = core::replayTrial(recording, cfg.device, cfg.trial,
                                   &plans);
        }
        recording = cfl::Recording(); // only the replay reads it
        session = std::make_shared<WorkloadSession>(
            leader.name, std::move(db), cfg, pool);
    } catch (const std::exception &e) {
        error = e.what();
    }

    {
        std::lock_guard<std::mutex> lock(mutex);
        ++replayCount;
        auto it = sessions.find(leader.recordingHash);
        std::vector<Workload *> copies = std::move(it->second.followers);
        copies.insert(copies.begin(), &leader);
        if (!error.empty()) {
            // The followers would fail the same way: they inherit
            // the leader's error, and drain() names every one of
            // them. Forgetting the recording lets a later submission
            // replay afresh.
            sessions.erase(it);
            for (Workload *w : copies) {
                w->error = error;
                unreportedFailures.push_back(w);
            }
            return;
        }
        it->second.session = session;
        it->second.lastUse = ++useTicket;
        for (Workload *w : copies)
            w->session = session;
        artifactHitCount += copies.size() - 1;
    }
    enforceBudget();
}

SessionArchive &
ProfilingService::archiveCatalog()
{
    std::lock_guard<std::mutex> lock(archiveMutex);
    if (!archiveStore)
        archiveStore = std::make_unique<SessionArchive>(archiveRoot);
    return *archiveStore;
}

void
ProfilingService::enforceBudget()
{
    if (cfg.maxResidentSessions == SIZE_MAX &&
        cfg.maxResidentBytes == UINT64_MAX)
        return;

    // Snapshot the resident sessions under the service lock; they
    // are locked one at a time (service -> session lock order, never
    // the reverse) and evicted outside it.
    struct Candidate
    {
        uint64_t key;
        std::shared_ptr<WorkloadSession> session;
        uint64_t lastUse;
        uint64_t bytes;
    };
    std::vector<Candidate> resident;
    uint64_t residentBytes = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &[key, cached] : sessions) {
            if (!cached.session || cached.session->isEvicted())
                continue;
            uint64_t bytes = cached.session->memoryBytes();
            residentBytes += bytes;
            resident.push_back(
                {key, cached.session, cached.lastUse, bytes});
        }
    }
    std::sort(resident.begin(), resident.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.lastUse < b.lastUse;
              });

    size_t residentCount = resident.size();
    for (const Candidate &cand : resident) {
        if (residentCount <= cfg.maxResidentSessions &&
            residentBytes <= cfg.maxResidentBytes)
            break;
        WorkloadSession &s = *cand.session;
        SessionArchive &catalog = archiveCatalog();
        std::string path = catalog.pathFor(cand.key, s.name());
        s.evict(path);
        catalog.record(s.name(), path, s.numDispatches());
        residentBytes -= std::min(cand.bytes, residentBytes);
        --residentCount;
        inform("serve: evicted '", s.name(), "' (",
               humanBytes(cand.bytes), ") to ", path, "; ",
               residentCount, " sessions / ",
               humanBytes(residentBytes), " resident");
    }
}

ServiceFootprint
ProfilingService::memoryFootprint() const
{
    ServiceFootprint fp;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &[key, cached] : sessions) {
            fp.artifactBytes += sizeof(key) + sizeof(CachedSession);
            if (!cached.session)
                continue;
            uint64_t bytes = cached.session->memoryBytes();
            if (cached.session->isEvicted())
                fp.evictedResidueBytes += bytes;
            else
                fp.sessionBytes += bytes;
            fp.memoBytes += cached.session->memoBytes();
        }
    }
    fp.planCacheBytes = plans.memoryBytes();
    fp.traceCacheBytes = core::trace_store::threadCacheResidentBytes();
    fp.totalBytes = fp.sessionBytes + fp.evictedResidueBytes +
                    fp.memoBytes + fp.planCacheBytes + fp.artifactBytes +
                    fp.traceCacheBytes;
    return fp;
}

} // namespace gt::serve
