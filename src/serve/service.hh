/**
 * @file
 * Streaming multi-tenant profiling service.
 *
 * The paper's pipeline is batch-shaped: profile one application,
 * build its database, divide intervals, extract features, cluster,
 * select. This service turns that pipeline into a long-running
 * facility the way GT-Pin is deployed inside a design team: N
 * tenants (users, CI jobs, sweep drivers) each submit recorded API
 * streams (cfl::Recording), the service replays them on per-tenant
 * driver stacks sharing one thread pool, and each workload's
 * intervals, feature columns, and subset selections are maintained
 * *incrementally* as dispatches drain — a refresh() at any moment
 * answers with selections bitwise identical to a one-shot
 * selectSubset() over everything fed so far.
 *
 * Cross-tenant sharing is content-addressed and immutable:
 *
 *  - gpu::SharedPlanCache — kernel execution plans (decoded uop
 *    programs, block cycle tables, gang verdicts) keyed on
 *    isa::contentHash, shared by every tenant driver;
 *  - gpu::SharedCheckpointCache — detailed-mode warm checkpoints
 *    keyed on (binary hash, dispatch shape);
 *  - the replay-artifact cache here — full replay outcomes (call
 *    stream, dispatch profiles, timings) keyed on
 *    cfl::recordingContentHash, so the second tenant submitting an
 *    identical recording streams the cached rows instead of
 *    re-executing kernels. Admission is single-flight: a recording
 *    submitted while its first copy is still replaying attaches to
 *    that replay and is fed from its artifact when it lands, so each
 *    distinct recording replays once however submissions interleave
 *    with pool threads. On a single-core host this dedup, not
 *    thread parallelism, is what makes aggregate throughput scale
 *    with tenant count (bench/service_throughput gates it).
 *
 * All caches follow the repo's "fully built => const, shareable"
 * contract: artifacts are inserted only once complete, never mutated
 * afterwards, first insert wins, and lookups hand out
 * shared_ptr<const> (or stable const references) safe to read from
 * any thread.
 *
 * Incremental selection refresh reuses three invariants, each pinned
 * by differential tests:
 *
 *  1. closed intervals are final (core::IncrementalIntervals), so
 *     per-interval projected points for the completed prefix never
 *     change;
 *  2. projection rows are pure per-key
 *     (simpoint::ProjectionTable::build-with-reuse), so cached
 *     prefix points stay bitwise valid as the key universe grows;
 *  3. the unique-value index is a pure function of the point
 *     multiset (simpoint::extendUniqueIndex), so the pruned k-means
 *     index extends instead of re-sorting.
 *
 * A population is re-clustered only when its workload gained
 * dispatches since the last refresh; untouched configurations are
 * answered from the memoized selection.
 *
 * At hundreds of tenants the remaining scaling hazards are resident
 * session state (every drained workload used to keep its joined
 * records, feature columns, and interval state in memory forever)
 * and global cache mutexes. Three mechanisms close them:
 *
 *  - **Session eviction.** When a workload drains — or the
 *    configured resident-session / resident-byte budget is exceeded
 *    (LRU order) — its session is *evicted*: selections are
 *    memoized, the joined rows are written to a named columnar
 *    archive file under a small catalog (serve/archive.hh), and the
 *    builder, feature cache, and interval state are dropped. While
 *    evicted, refresh() and selection() answer from the memo at
 *    near-zero cost; a late dispatch (or a non-memo refresh)
 *    *rehydrates* by re-feeding the archived rows, after which every
 *    selection is bitwise identical to a never-evicted session's
 *    (the eviction differential tests pin this across budget
 *    thresholds).
 *  - **Warm admission.** A submit() whose recording content hash
 *    already has a replay artifact skips replay scheduling entirely:
 *    the cached rows bulk-append into the new session through
 *    WorkloadSession::addDispatches() using the artifact's
 *    precomputed epoch assignments — one lock, no per-dispatch epoch
 *    walk, no admission slot, no pool hop. Warm submission is an
 *    O(rows) append on the calling thread, which is what the
 *    warm-vs-cold latency gate in bench/service_throughput measures.
 *  - **Sharded caches.** The plan, checkpoint (gpu/plan_cache.hh),
 *    and replay-artifact caches are striped by content hash, so
 *    tenants contend per stripe, never on one global mutex; stats
 *    remain exact.
 */

#ifndef GT_SERVE_SERVICE_HH
#define GT_SERVE_SERVICE_HH

#include <array>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cfl/recorder.hh"
#include "cfl/tracer.hh"
#include "core/feature_engine.hh"
#include "core/interval.hh"
#include "core/selection.hh"
#include "gpu/plan_cache.hh"
#include "ocl/driver.hh"
#include "sched/thread_pool.hh"
#include "serve/archive.hh"

namespace gt::serve
{

/** One (interval scheme, feature kind) selection configuration a
 * session keeps refreshed. */
struct SelectionConfig
{
    core::IntervalScheme scheme = core::IntervalScheme::SyncBounded;
    core::FeatureKind feature = core::FeatureKind::BB;
};

/** Service-wide configuration, fixed at construction. */
struct ServiceConfig
{
    gpu::DeviceConfig device = gpu::DeviceConfig::hd4000();
    gpu::TrialConfig trial = {};

    /** Selections maintained per workload (default: the paper's BB
     * feature under all three interval schemes). */
    std::vector<SelectionConfig> selections = {
        {core::IntervalScheme::SyncBounded, core::FeatureKind::BB},
        {core::IntervalScheme::ApproxInstructions,
         core::FeatureKind::BB},
        {core::IntervalScheme::SingleKernel, core::FeatureKind::BB},
    };

    /** Clustering options shared by every refresh; the service
     * threads its own pool and unique index through per call. */
    core::simpoint::ClusterOptions cluster = {};

    /** ApproxInstructions chunk size (0 = derive from the final
     * total, see buildIntervals()). */
    uint64_t targetInstrs = 0;

    /**
     * Concurrent-replay admission cap (0 = the pool's thread
     * count). This is the oversubscription guard: every tenant
     * replay runs on the one shared pool below, and at most this
     * many run at a time — no per-tenant pools sized from
     * GT_THREADS.
     */
    unsigned replayWidth = 0;

    /** Shared pool for replays and refresh clustering (null = the
     * process-wide pool). */
    sched::ThreadPool *pool = nullptr;

    /**
     * Resident-session cap: when more than this many sessions hold
     * live builder/feature state, drained sessions are evicted to
     * the archive in LRU order. SIZE_MAX = never evict by count;
     * 0 = evict every drained session. Defaults from
     * GT_SERVE_MAX_SESSIONS when the field is left unset.
     */
    size_t maxResidentSessions = SIZE_MAX;

    /**
     * Resident-byte budget over the summed per-session state
     * (builders, feature caches, interval/point state — see
     * WorkloadSession::memoryBytes). Exceeding it evicts drained
     * sessions LRU-first until back under. UINT64_MAX = unbounded.
     * Defaults from GT_SERVE_MAX_BYTES when left unset.
     */
    uint64_t maxResidentBytes = UINT64_MAX;

    /** Evict every workload the moment its replay drains (the
     * most aggressive setting; selections stay answerable from the
     * memo). Defaults from GT_SERVE_EVICT=1. */
    bool evictOnDrain = false;

    /** Directory for session archives and their catalog. Empty =
     * GT_SERVE_ARCHIVE_DIR, else TMPDIR (or /tmp) +
     * "/gt-serve-<pid>". Created on first eviction. */
    std::string archiveDir;
};

/**
 * One complete replay outcome, cached across tenants by recording
 * content hash. Immutable once built (const members only through the
 * shared_ptr), so any number of sessions may stream from it
 * concurrently.
 */
struct ReplayArtifact
{
    std::vector<ocl::ApiCallRecord> calls;
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;

    /** Precomputed (dispatch seq, sync epoch) assignments of the
     * call stream, ascending by seq (one entry per profile) — what
     * lets warm submissions bulk-append without re-running the
     * per-dispatch epoch walk
     * (core::TraceDatabase::Builder::assignEpochs). */
    std::vector<std::pair<uint64_t, uint64_t>> epochs;

    uint64_t dispatchCount() const { return profiles.size(); }

    /** Approximate resident bytes of the cached outcome. */
    uint64_t memoryBytes() const;
};

/** Per-session work counters (monotone; see stats()). */
struct SessionStats
{
    uint64_t dispatches = 0;       //!< rows fed into the session
    uint64_t refreshes = 0;        //!< refresh() calls
    uint64_t reclustered = 0;      //!< config refreshes that ran k-means
    uint64_t reusedSelections = 0; //!< answered from the memo
    uint64_t reusedPoints = 0;     //!< cached prefix points kept
    uint64_t projectedPoints = 0;  //!< points (re)computed
    uint64_t evictions = 0;        //!< sessions sealed to the archive
    uint64_t rehydrations = 0;     //!< archives re-fed into builders
};

/**
 * Per-(tenant, workload) incremental selection state: a streaming
 * TraceDatabase::Builder, the flat feature columns, one
 * IncrementalIntervals per configured scheme, and the memoized
 * refresh artifacts (points, unique index, projection table,
 * selection). Thread-safe: every method locks the session, so the
 * service's replay task may feed while another thread refreshes or
 * reads selections.
 */
class WorkloadSession
{
  public:
    WorkloadSession(std::string workload_name,
                    const ServiceConfig &config,
                    sched::ThreadPool &pool);

    /** Advance the sync-epoch walk over one host API call (must be
     * fed in call order, before the dispatches it precedes). */
    void observeCall(const ocl::ApiCallRecord &call);

    /** Feed one drained dispatch: joins the builder, lowers the
     * feature columns, and advances every interval scheme. */
    void addDispatch(const gtpin::DispatchProfile &profile,
                     const cfl::KernelTiming &timing);

    /**
     * Bulk-append already-epoch-assigned rows (the warm admission
     * path): one session lock for the whole batch, and the joined
     * rows bypass the per-dispatch epoch walk because @p epochs
     * carries the artifact's precomputed (seq, epoch) assignments
     * (parallel to @p profiles). Bitwise identical session state to
     * feeding the same rows through observeCall()/addDispatch().
     */
    void addDispatches(
        const std::vector<gtpin::DispatchProfile> &profiles,
        const std::vector<cfl::KernelTiming> &timings,
        const std::vector<std::pair<uint64_t, uint64_t>> &epochs);

    /**
     * Seal this session's joined rows to the named columnar archive
     * at @p archive_path and drop the builder records, feature
     * columns, and interval/point state — everything except the
     * memoized selections (refreshed here first, so an evicted
     * session answers refresh()/selection() from the memo without
     * touching the archive) and the tiny epoch-walk restart state. A
     * later dispatch rehydrates transparently by re-feeding the
     * archived rows; selections afterwards are bitwise identical to
     * a never-evicted session's. Idempotent.
     */
    void evict(const std::string &archive_path);

    /** Whether the session is currently evicted (state on disk). */
    bool isEvicted() const;

    /**
     * Approximate resident bytes of this session's *reclaimable*
     * state: the streaming builder (joined records + profile heap),
     * the lowered feature columns, the projection table, and
     * per-config interval/point/unique-index state. What evict()
     * reclaims; the service's byte-budget eviction and
     * memoryFootprint() sum this. The memoized selections are
     * excluded — they survive eviction by contract (selection()
     * stays answerable) and are reported by memoBytes().
     */
    uint64_t memoryBytes() const;

    /** Approximate bytes of the memoized selections (the one
     * per-workload cost that outlives eviction). */
    uint64_t memoBytes() const;

    /**
     * Incremental selection refresh over everything fed so far.
     * Configurations whose population gained no dispatches since
     * their last refresh are answered from the memoized selection;
     * the rest re-cluster, reusing the completed-prefix points, the
     * extended unique-value index, and the grown projection table.
     * The result is bitwise identical — selections, chosen k,
     * ratios — to a one-shot selectSubset() over a database sealed
     * at this prefix (the service differential tests pin this at
     * multiple arrival orders and granularities).
     */
    void refresh();

    /** Latest refreshed selection of configuration @p config (index
     * into ServiceConfig::selections). refresh() must have run since
     * the first dispatch arrived. */
    core::SubsetSelection selection(size_t config) const;

    uint64_t numDispatches() const;

    /** Seal a TraceDatabase over everything fed so far — the oracle
     * the differential tests and SPI projections run against. */
    core::TraceDatabase sealDatabase() const;

    SessionStats stats() const;

    const std::string &name() const { return workloadName; }

  private:
    struct ConfigState
    {
        SelectionConfig config;
        core::IncrementalIntervals intervals;
        /** Cached per-interval projected points; [0, stable) cover
         * completed (final) intervals and are reused verbatim. */
        std::vector<core::simpoint::Point> points;
        size_t stable = 0;
        /** Unique-value index over the stable prefix. */
        core::simpoint::UniqueIndex uniq;
        core::SubsetSelection selection;
        uint64_t selectionAt = 0; //!< dispatch count at last cluster
        bool hasSelection = false;
    };

    void refreshConfig(ConfigState &state);

    /** Re-feed the archived rows into fresh builder/feature/interval
     * state (no-op unless evicted). Caller holds the mutex. */
    void rehydrateLocked();

    std::string workloadName;
    sched::ThreadPool &pool;
    core::simpoint::ClusterOptions clusterOptions;
    uint64_t targetInstrs;

    mutable std::mutex mutex;
    core::TraceDatabase::Builder builder;
    core::DispatchFeatureCache features;
    core::simpoint::ProjectionTable table;
    std::vector<ConfigState> configs;
    SessionStats counters;

    /** Rows ever fed (survives eviction; builder.numAppended() drops
     * to 0 while evicted, so the memo check keys on this). */
    uint64_t fed = 0;
    bool evicted = false;
    /** Archive file holding the joined rows while evicted (empty if
     * the session was empty at eviction). */
    std::string archivePath;
};

/** Service-wide counters and cache statistics. */
struct ServiceStats
{
    uint64_t tenants = 0;
    uint64_t workloads = 0;
    uint64_t replays = 0;      //!< recordings actually re-executed
    uint64_t artifactHits = 0; //!< recordings served from the cache
    SessionStats sessions;     //!< summed over every session
    gpu::SharedCacheStats planCache;
    gpu::SharedCacheStats checkpointCache;
};

/** Where the service's resident bytes live (approximate,
 * deterministic sums — see memoryFootprint()). */
struct ServiceFootprint
{
    /** Builder/feature/interval state of the *resident*
     * (non-evicted) sessions. This is what the byte-budget eviction
     * bounds: it stays under ServiceConfig::maxResidentBytes no
     * matter how many workloads accumulate. */
    uint64_t sessionBytes = 0;
    /** Residual object bytes of evicted sessions (the session
     * object, empty column/interval shells, the epoch-walk restart
     * state — a few KB each, everything heavy is on disk). */
    uint64_t evictedResidueBytes = 0;
    /** Memoized selections, summed over every session. Retained
     * across eviction (selection()/refresh() answer from them), so
     * this grows with workload count — but by O(selected intervals)
     * per workload, not O(dispatches). */
    uint64_t memoBytes = 0;
    uint64_t planCacheBytes = 0;       //!< shared execution plans
    uint64_t checkpointCacheBytes = 0; //!< adopted checkpoints
    uint64_t artifactBytes = 0;        //!< cached replay outcomes
    /** Decoded-block bytes the calling thread's trace-store cache
     * holds for live stores. */
    uint64_t traceCacheBytes = 0;
    uint64_t totalBytes = 0; //!< sum of the above
};

/**
 * The multi-tenant profiling service (see the file comment).
 * Tenants are opened, recordings submitted (asynchronously replayed
 * on the shared pool), drain() joins the outstanding replays, and
 * refreshAll()/session() expose the incrementally maintained
 * selections.
 */
class ProfilingService
{
  public:
    using TenantId = size_t;
    using WorkloadId = size_t;

    explicit ProfilingService(ServiceConfig config = {});

    /** Joins outstanding replays (failures are swallowed here; call
     * drain() first to observe them). */
    ~ProfilingService();

    ProfilingService(const ProfilingService &) = delete;
    ProfilingService &operator=(const ProfilingService &) = delete;

    TenantId openTenant(std::string name);

    /**
     * Submit one recorded workload for @p tenant. The replay is
     * scheduled on the shared pool and streams into the workload's
     * session as dispatches drain; identical recordings (by content
     * hash) from any tenant are served from the replay-artifact
     * cache without re-executing kernels — including copies that
     * arrive while the first one is still replaying, which are fed
     * when that replay finishes. If that replay fails, drain()
     * reports it once and its waiting copies stay empty.
     */
    WorkloadId submit(TenantId tenant, std::string workload_name,
                      cfl::Recording recording);

    /** Wait for every outstanding replay; rethrows the first
     * failure. */
    void drain();

    /** refresh() every session (see WorkloadSession::refresh). */
    void refreshAll();

    /** The incremental state of one submitted workload. */
    WorkloadSession &session(TenantId tenant, WorkloadId workload);

    gpu::SharedPlanCache &planCache() { return plans; }

    gpu::SharedCheckpointCache &checkpointCache() { return ckpts; }

    const ServiceConfig &config() const { return cfg; }

    ServiceStats stats() const;

    /**
     * Approximate resident bytes of the service: every session's
     * state (WorkloadSession::memoryBytes) plus the three shared
     * caches and the calling thread's trace-store decode cache.
     * Logged at eviction decisions; the eviction tests assert it
     * stays bounded as tenants accumulate.
     */
    ServiceFootprint memoryFootprint() const;

    /** Directory evicted sessions archive to (catalog inside). */
    const std::string &archiveDirectory() const { return archiveRoot; }

  private:
    struct Workload
    {
        TenantId tenant = 0;
        WorkloadId id = 0;
        cfl::Recording recording;
        std::unique_ptr<WorkloadSession> session;
        /** Replay finished and every row is fed — the precondition
         * for eviction. */
        std::atomic<bool> drained{false};
        /** LRU ticket (monotone service-wide counter, not wall
         * time), refreshed on feed completion and refreshAll(). */
        std::atomic<uint64_t> lastUse{0};
    };

    struct Tenant
    {
        std::string name;
        std::vector<std::unique_ptr<Workload>> workloads;
    };

    void runReplay(Workload &workload, uint64_t key);
    std::shared_ptr<ReplayArtifact> replayStreaming(Workload &workload);
    static void feedFromArtifact(WorkloadSession &session,
                                 const ReplayArtifact &artifact);
    /** Feed @p workload from a cached artifact and mark it drained. */
    void serveFromArtifact(Workload &workload,
                           const ReplayArtifact &artifact);

    /** The archive catalog, created (with its directory) on first
     * use. */
    SessionArchive &archiveCatalog();

    /** Evict drained sessions (LRU-first) until the resident-session
     * and resident-byte budgets hold; no-op when unbounded. Called
     * after every workload drains. */
    void enforceBudget();

    ServiceConfig cfg;
    sched::ThreadPool &pool;
    sched::PoolHandle admission;
    gpu::SharedPlanCache plans;
    gpu::SharedCheckpointCache ckpts;

    /** Replay-artifact cache, striped like the gpu caches. A key
     * is in either map or inflight, never both: inflight holds the
     * workloads waiting on the one replay of that recording. */
    struct ArtifactShard
    {
        mutable std::mutex mu;
        std::unordered_map<uint64_t,
                           std::shared_ptr<const ReplayArtifact>>
            map;
        std::unordered_map<uint64_t, std::vector<Workload *>> inflight;
    };
    std::array<ArtifactShard, gpu::numCacheShards> artifactShards;
    std::atomic<uint64_t> replayCount{0};
    std::atomic<uint64_t> artifactHitCount{0};

    std::string archiveRoot;
    std::mutex archiveMutex;
    std::unique_ptr<SessionArchive> archiveStore;
    std::atomic<uint64_t> useTicket{1};

    mutable std::mutex mutex; //!< tenants + pending futures
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::vector<std::future<void>> pendingReplays;
};

} // namespace gt::serve

#endif // GT_SERVE_SERVICE_HH
