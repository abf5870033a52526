#include "serve/service.hh"

#include <algorithm>
#include <cstdlib>

#include <unistd.h>

#include "common/logging.hh"
#include "common/table.hh"
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

uint64_t
ReplayArtifact::memoryBytes() const
{
    uint64_t bytes =
        sizeof(*this) + rows.size() * sizeof(core::DispatchRecord);
    for (const core::DispatchRecord &row : rows) {
        bytes += row.profile.footprintBytes() -
                 sizeof(gtpin::DispatchProfile);
    }
    return bytes;
}

WorkloadSession::WorkloadSession(std::string workload_name,
                                 const ServiceConfig &config,
                                 sched::ThreadPool &shared_pool)
    : workloadName(std::move(workload_name)), pool(shared_pool),
      clusterOptions(config.cluster),
      targetInstrs(config.targetInstrs)
{
    clusterOptions.pool = &pool;
    configs.reserve(config.selections.size());
    for (const SelectionConfig &sc : config.selections) {
        configs.push_back(ConfigState{
            sc, core::IncrementalIntervals(sc.scheme, targetInstrs),
            {}, 0, false});
    }
}

void
WorkloadSession::addDispatches(
    std::span<const core::DispatchRecord> rows)
{
    std::lock_guard<std::mutex> lock(mutex);
    rehydrateLocked();
    for (const core::DispatchRecord &row : rows)
        appendLocked(row);
    fed += rows.size();
    counters.dispatches += rows.size();
}

void
WorkloadSession::appendLocked(core::DispatchRecord row)
{
    // The builder checks the row's shape and order before anything
    // lowers it.
    builder.appendJoined(std::move(row));
    uint64_t i = builder.numAppended() - 1;
    const gtpin::DispatchProfile &profile = builder.profileAt(i);
    features.appendDispatch(profile);
    for (ConfigState &cs : configs) {
        cs.intervals.append(builder.syncEpoch(i), profile.instrs,
                            builder.seconds(i));
    }
}

void
WorkloadSession::refresh()
{
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.refreshes;
    refreshLocked();
}

void
WorkloadSession::refreshLocked()
{
    if (fed == 0)
        return; // nothing to select from yet
    bool stale = false;
    for (const ConfigState &cs : configs)
        stale |= !cs.hasSelection || cs.selectionAt != fed;
    if (!stale) {
        // No rows since the last cluster: the memoized selections
        // are still exact. This is also the evicted steady state —
        // answering from the memo is what keeps refresh() from
        // rehydrating every archived session.
        counters.reusedSelections += configs.size();
        return;
    }

    rehydrateLocked();
    features.refreshColumns();
    core::simpoint::ProjectionTable table =
        core::simpoint::ProjectionTable::build(features.uniqueKeys());
    core::DispatchFeatureCache::Scratch scratch;
    for (ConfigState &cs : configs) {
        std::vector<core::Interval> intervals = cs.intervals.snapshot();
        std::vector<core::simpoint::Point> points(intervals.size());
        for (size_t i = 0; i < intervals.size(); ++i) {
            points[i] = features.projectInto(
                intervals[i], cs.config.feature, scratch, table);
        }
        cs.selection = core::selectFromProjected(
            cs.config.scheme, cs.config.feature, std::move(intervals),
            points, builder.totalInstrs(), clusterOptions);
        cs.selectionAt = fed;
        cs.hasSelection = true;
        ++counters.reclustered;
    }
}

core::SubsetSelection
WorkloadSession::selection(size_t config) const
{
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(config < configs.size(), "selection config ", config,
              " out of range (", configs.size(), " configured)");
    GT_ASSERT(configs[config].hasSelection,
              "no refresh() has run since dispatches arrived");
    return configs[config].selection;
}

uint64_t
WorkloadSession::numDispatches() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return fed;
}

core::TraceDatabase
WorkloadSession::sealDatabase() const
{
    std::lock_guard<std::mutex> lock(mutex);
    // The archive *is* a columnar database of exactly the fed rows;
    // reopening it reproduces the sealed totals bit for bit.
    if (evicted && !archivePath.empty())
        return core::TraceDatabase::openColumnarFile(archivePath);
    return builder.seal();
}

void
WorkloadSession::evict(const std::string &archive_path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (evicted)
        return;
    // Memoize every selection at the current prefix first: an
    // evicted session keeps answering refresh()/selection() from the
    // memo, so draining a fleet and refreshing it stays cheap and
    // never re-reads the archives.
    refreshLocked();
    if (builder.numAppended() > 0) {
        builder.writeArchive(archive_path);
        archivePath = archive_path;
    }
    // Everything else is reclaimed and reproducible from the
    // archive.
    builder = core::TraceDatabase::Builder();
    features = core::DispatchFeatureCache();
    for (ConfigState &cs : configs) {
        cs.intervals = core::IncrementalIntervals(cs.config.scheme,
                                                  targetInstrs);
    }
    evicted = true;
    ++counters.evictions;
}

bool
WorkloadSession::isEvicted() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return evicted;
}

void
WorkloadSession::rehydrateLocked()
{
    if (!evicted)
        return;
    evicted = false;
    ++counters.rehydrations;
    if (archivePath.empty())
        return; // the session was empty when evicted
    core::TraceDatabase db =
        core::TraceDatabase::openColumnarFile(archivePath);
    for (uint64_t i = 0; i < db.numDispatches(); ++i) {
        // Copy out of the thread's decode cache: the reference is
        // only stable across a few block touches.
        appendLocked(core::DispatchRecord{db.profileAt(i), db.seconds(i),
                                          db.syncEpoch(i)});
    }
    GT_ASSERT(builder.numAppended() == fed,
              "rehydrated ", builder.numAppended(),
              " rows but the session had fed ", fed);
}

uint64_t
WorkloadSession::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t bytes = sizeof(*this) + workloadName.size() +
                     archivePath.size();
    bytes += builder.memoryBytes();
    bytes += features.memoryBytes();
    for (const ConfigState &cs : configs)
        bytes += sizeof(ConfigState) + cs.intervals.memoryBytes();
    return bytes;
}

uint64_t
WorkloadSession::memoBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t bytes = 0;
    for (const ConfigState &cs : configs) {
        bytes += cs.selection.intervals.size() *
                     sizeof(core::Interval) +
                 cs.selection.selected.size() * sizeof(uint64_t) +
                 cs.selection.ratios.size() * sizeof(double);
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
    uint64_t key = cfl::recordingContentHash(recording);
    Workload *wl = nullptr;
    WorkloadId id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        GT_ASSERT(tenant < tenants.size(), "unknown tenant ",
                  tenant);
        Tenant &t = *tenants[tenant];
        auto workload = std::make_unique<Workload>();
        workload->tenant = tenant;
        workload->recording = std::move(recording);
        workload->session = std::make_unique<WorkloadSession>(
            std::move(workload_name), cfg, pool);
        workload->id = t.workloads.size();
        t.workloads.push_back(std::move(workload));
        wl = t.workloads.back().get();
        id = wl->id;
    }

    // Single-flight admission: the first submission of a recording
    // leads its replay; later copies either hit the finished artifact
    // or wait on the leader's replay as followers.
    std::shared_ptr<const ReplayArtifact> artifact;
    {
        ArtifactShard &shard = artifactShards[gpu::cacheShardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            artifact = it->second;
        } else {
            auto [flight, leads] = shard.inflight.try_emplace(key);
            if (!leads) {
                flight->second.push_back(wl);
                return id;
            }
        }
    }

    // The warm admission fast path: a known recording needs no
    // replay, no admission slot, and no pool hop — the cached rows
    // bulk-append synchronously on the calling thread, so warm
    // submission cost is O(rows) and independent of replay cost.
    if (artifact) {
        artifactHitCount.fetch_add(1, std::memory_order_relaxed);
        feed(*wl, *artifact);
        enforceBudget();
        return id;
    }

    // Schedule outside the service lock: on a 1-thread pool submit()
    // runs the replay inline, and the replay takes the service lock
    // (to record a failure, to enforce the budget).
    std::future<void> fut =
        pool.submit([this, wl, key] { runReplay(*wl, key); });
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
                             "', workload '" + w->session->name() +
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
    std::vector<Workload *> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads)
                work.push_back(w.get());
        }
    }
    for (Workload *w : work) {
        w->session->refresh();
        w->lastUse.store(useTicket.fetch_add(1),
                         std::memory_order_relaxed);
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
        fatal("serve: workload '", w.session->name(), "' of tenant '",
              t.name, "' failed: ", w.error);
    }
    return *w.session;
}

ServiceStats
ProfilingService::stats() const
{
    ServiceStats st;
    {
        std::lock_guard<std::mutex> lock(mutex);
        st.tenants = tenants.size();
        for (const auto &t : tenants) {
            st.workloads += t->workloads.size();
            for (const auto &w : t->workloads) {
                SessionStats s = w->session->stats();
                st.sessions.dispatches += s.dispatches;
                st.sessions.refreshes += s.refreshes;
                st.sessions.reclustered += s.reclustered;
                st.sessions.reusedSelections += s.reusedSelections;
                st.sessions.evictions += s.evictions;
                st.sessions.rehydrations += s.rehydrations;
            }
        }
    }
    st.replays = replayCount.load();
    st.artifactHits = artifactHitCount.load();
    st.planCache = plans.stats();
    st.checkpointCache = ckpts.stats();
    return st;
}

void
ProfilingService::runReplay(Workload &workload, uint64_t key)
{
    auto artifact = std::make_shared<ReplayArtifact>();
    std::string error;
    try {
        // The oversubscription guard: every replay runs on the one
        // shared pool, and at most admission.width() run
        // concurrently. Re-entrant: a replay submitted from inside
        // an already-admitted task (inline execution on a 1-thread
        // pool) must not wait on its own slot.
        sched::PoolHandle::Slot slot = admission.acquireReentrant();
        replayCount.fetch_add(1, std::memory_order_relaxed);
        artifact->rows = core::replayRows(workload.recording,
                                          cfg.device, cfg.trial,
                                          &plans, &ckpts);
    } catch (const std::exception &e) {
        error = e.what();
    }

    // Publish (or, on failure, forget) the recording; a later
    // submission of a failed recording replays afresh.
    ArtifactShard &shard = artifactShards[gpu::cacheShardOf(key)];
    std::vector<Workload *> followers;
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto flight = shard.inflight.find(key);
        followers = std::move(flight->second);
        shard.inflight.erase(flight);
        if (error.empty())
            shard.map.emplace(key, artifact);
    }

    if (!error.empty()) {
        // The followers would fail the same way: they inherit the
        // leader's error, and drain() names every one of them.
        std::lock_guard<std::mutex> lock(mutex);
        followers.insert(followers.begin(), &workload);
        for (Workload *w : followers) {
            w->error = error;
            unreportedFailures.push_back(w);
        }
        return;
    }

    feed(workload, *artifact);
    for (Workload *follower : followers) {
        artifactHitCount.fetch_add(1, std::memory_order_relaxed);
        feed(*follower, *artifact);
    }
    enforceBudget();
}

void
ProfilingService::feed(Workload &workload,
                       const ReplayArtifact &artifact)
{
    workload.session->addDispatches(artifact.rows);
    workload.lastUse.store(useTicket.fetch_add(1),
                           std::memory_order_relaxed);
    workload.drained.store(true, std::memory_order_release);
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

    // Snapshot resident state under the service lock; the sessions
    // themselves are locked one at a time (service -> session lock
    // order, never the reverse).
    struct Candidate
    {
        Workload *workload;
        uint64_t lastUse;
        uint64_t bytes;
    };
    std::vector<Candidate> evictable;
    uint64_t residentBytes = 0;
    size_t residentCount = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads) {
                // A failed workload holds no rows and never drains,
                // so it must not count against the session budget.
                if (!w->session || !w->error.empty() ||
                    w->session->isEvicted())
                    continue;
                uint64_t bytes = w->session->memoryBytes();
                residentBytes += bytes;
                ++residentCount;
                if (w->drained.load(std::memory_order_acquire)) {
                    evictable.push_back(
                        {w.get(),
                         w->lastUse.load(std::memory_order_relaxed),
                         bytes});
                }
            }
        }
    }
    std::sort(evictable.begin(), evictable.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.lastUse < b.lastUse;
              });

    for (const Candidate &cand : evictable) {
        if (residentCount <= cfg.maxResidentSessions &&
            residentBytes <= cfg.maxResidentBytes)
            break;
        Workload &wl = *cand.workload;
        SessionArchive &catalog = archiveCatalog();
        std::string path = catalog.pathFor(wl.tenant, wl.id,
                                           wl.session->name());
        wl.session->evict(path);
        catalog.record(wl.session->name(), path,
                       wl.session->numDispatches());
        residentBytes -= std::min(cand.bytes, residentBytes);
        --residentCount;
        inform("serve: evicted '", wl.session->name(), "' (",
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
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads) {
                if (!w->session)
                    continue;
                uint64_t bytes = w->session->memoryBytes();
                if (w->session->isEvicted())
                    fp.evictedResidueBytes += bytes;
                else
                    fp.sessionBytes += bytes;
                fp.memoBytes += w->session->memoBytes();
            }
        }
    }
    fp.planCacheBytes = plans.memoryBytes();
    fp.checkpointCacheBytes = ckpts.memoryBytes();
    for (const ArtifactShard &shard : artifactShards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, artifact] : shard.map) {
            (void)key;
            fp.artifactBytes += artifact->memoryBytes();
        }
    }
    fp.traceCacheBytes = core::trace_store::threadCacheResidentBytes();
    fp.totalBytes = fp.sessionBytes + fp.evictedResidueBytes +
                    fp.memoBytes + fp.planCacheBytes +
                    fp.checkpointCacheBytes + fp.artifactBytes +
                    fp.traceCacheBytes;
    return fp;
}

} // namespace gt::serve
