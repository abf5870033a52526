/**
 * @file
 * Multi-tenant profiling service.
 *
 * The paper's pipeline is batch-shaped: profile one application,
 * build its database, divide intervals, extract features, cluster,
 * select. This service turns that pipeline into a long-running
 * facility the way GT-Pin is deployed inside a design team: N
 * tenants (users, CI jobs, sweep drivers) each submit recorded API
 * streams (cfl::Recording), the service replays them on per-tenant
 * driver stacks sharing one thread pool, and each workload's subset
 * selections are answered from a session.
 *
 * A session is an immutable value built once per distinct recording:
 * the replay's database, sealed by core::replayTrial(), and every
 * configured selection, computed once through the batch
 * core::selectSubset() with one FeatureEngine shared by all
 * configurations — the code one-shot selection runs, so a session
 * equals it by construction. Every submission of an identical
 * recording, from any tenant, shares that one session.
 *
 * Cross-tenant sharing is content-addressed and immutable:
 *
 *  - gpu::SharedPlanCache — kernel execution plans (decoded uop
 *    programs, block cycle tables) keyed on
 *    isa::contentHash, shared by every tenant driver;
 *  - the session cache here — shared_ptr<WorkloadSession> keyed on
 *    cfl::recordingContentHash. Admission is single-flight: the
 *    first submission of a recording leads its replay; a copy
 *    submitted while it replays waits as a follower, and a copy
 *    submitted later is a warm hit. Followers and warm hits take a
 *    reference to the leader's session, so warm admission is O(1):
 *    nothing is replayed, re-lowered or re-clustered, and each
 *    distinct recording replays and clusters once. On a single-core
 *    host this dedup, not thread parallelism, is what makes
 *    aggregate throughput scale with tenant count
 *    (bench/service_throughput gates it).
 *
 * Both caches follow the repo's "fully built => const, shareable"
 * contract: entries are published only once complete and never
 * mutated afterwards, so any thread may read them.
 *
 * **Session eviction.** When the resident-session or resident-byte
 * budget is exceeded, sessions are evicted in LRU order (a session
 * budget of 0 evicts every session): the sealed database's encoded
 * bytes are written to a named archive file under a small catalog
 * (serve/archive.hh) and the database is dropped. The selections
 * stay, so selection() and refresh() keep answering at no cost;
 * sealDatabase() reopens the archive, bitwise identical to the
 * database that was evicted.
 *
 * A replay that fails (a malformed recording, or one without kernel
 * dispatches) fails only its workload and the copies waiting on it:
 * drain() reports every such workload in one FatalError, and a later
 * submission of the same recording replays afresh.
 */

#ifndef GT_SERVE_SERVICE_HH
#define GT_SERVE_SERVICE_HH

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "cfl/recorder.hh"
#include "core/selection.hh"
#include "gpu/plan_cache.hh"
#include "sched/thread_pool.hh"
#include "serve/archive.hh"

namespace gt::serve
{

/** One (interval scheme, feature kind) selection configuration every
 * session selects under. */
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

    /** Clustering options shared by every session; the service
     * threads its own pool through. */
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

    /** Shared pool for replays and clustering (null = the
     * process-wide pool). */
    sched::ThreadPool *pool = nullptr;

    /**
     * Resident-session cap: when more than this many sessions hold
     * their sealed database, sessions are evicted to the archive in
     * LRU order. SIZE_MAX = never evict by count; 0 = evict every
     * session.
     */
    size_t maxResidentSessions = SIZE_MAX;

    /**
     * Resident-byte budget over the summed per-session state (see
     * WorkloadSession::memoryBytes). Exceeding it evicts sessions
     * LRU-first until back under. UINT64_MAX = unbounded.
     */
    uint64_t maxResidentBytes = UINT64_MAX;

    /** Directory for session archives and their catalog. Empty =
     * TMPDIR (or /tmp) + "/gt-serve-<pid>". Created on first
     * eviction. */
    std::string archiveDir;
};

/** Per-session work counters (monotone; see stats()). */
struct SessionStats
{
    uint64_t dispatches = 0;       //!< dispatches in the database
    uint64_t refreshes = 0;        //!< refresh() calls
    uint64_t reclustered = 0;      //!< configurations clustered
    uint64_t reusedSelections = 0; //!< answered from the memo
    uint64_t evictions = 0;        //!< databases sealed to the archive
};

/**
 * The selection state of one distinct recording: its sealed
 * database and one memoized selection per configuration, all
 * computed at construction. Shared by every submission of the
 * recording. Thread-safe: the selections never change, and the
 * database and counters are guarded by the session's lock.
 */
class WorkloadSession
{
  public:
    /**
     * Select once: every configuration of @p config runs
     * core::selectSubset() over @p db through one FeatureEngine on
     * @p pool. Throws FatalError naming @p workload_name when @p db
     * has no dispatches.
     */
    WorkloadSession(std::string workload_name, core::TraceDatabase db,
                    const ServiceConfig &config,
                    sched::ThreadPool &pool);

    /**
     * Write the sealed database's encoded bytes to the named archive
     * at @p archive_path and drop the database. The selections stay;
     * sealDatabase() reopens the archive. Idempotent.
     */
    void evict(const std::string &archive_path);

    /** Whether the database is on disk (see evict()). */
    bool isEvicted() const;

    /**
     * The bytes evict() releases: the sealed database's resident
     * columns and its spill mapping (0 once evicted), plus the
     * session object's own residue. Deterministic; the service's
     * byte budget and memoryFootprint() sum it. The selections are
     * excluded — they survive eviction — and reported by
     * memoBytes().
     */
    uint64_t memoryBytes() const;

    /** Approximate bytes of the memoized selections. */
    uint64_t memoBytes() const;

    /** Answer every configuration from the memoized selections
     * (counted in SessionStats::reusedSelections). */
    void refresh();

    /** The selection of configuration @p config (index into
     * ServiceConfig::selections). */
    const core::SubsetSelection &selection(size_t config) const;

    uint64_t numDispatches() const { return dispatches; }

    /** The session's database — the resident one, or reopened from
     * the archive when evicted. The oracle the differential tests
     * and SPI projections run against. */
    core::TraceDatabase sealDatabase() const;

    SessionStats stats() const;

    const std::string &name() const { return workloadName; }

  private:
    const std::string workloadName;
    const uint64_t dispatches;
    std::vector<core::SubsetSelection> selections;

    mutable std::mutex mutex;
    std::optional<core::TraceDatabase> db; //!< empty once evicted
    /** Archive file holding the database while evicted. */
    std::string archivePath;
    SessionStats counters;
};

/** Service-wide counters and cache statistics. */
struct ServiceStats
{
    uint64_t tenants = 0;
    uint64_t workloads = 0;
    uint64_t replays = 0;      //!< recordings actually re-executed
    /** Submissions served by an existing session (followers and
     * warm hits). */
    uint64_t artifactHits = 0;
    SessionStats sessions; //!< summed over the distinct sessions
    gpu::SharedCacheStats planCache;
};

/** Where the service's resident bytes live (approximate,
 * deterministic sums — see memoryFootprint()). */
struct ServiceFootprint
{
    /** Sealed databases of the *resident* (non-evicted) sessions.
     * This is what the byte-budget eviction bounds: it stays under
     * ServiceConfig::maxResidentBytes no matter how many workloads
     * accumulate. */
    uint64_t sessionBytes = 0;
    /** Residual object bytes of evicted sessions (everything heavy
     * is on disk). */
    uint64_t evictedResidueBytes = 0;
    /** Memoized selections, summed over the distinct sessions.
     * Retained across eviction, so this grows with the number of
     * distinct recordings, not with submissions. */
    uint64_t memoBytes = 0;
    uint64_t planCacheBytes = 0; //!< shared execution plans
    /** The session cache's own index: one entry per distinct
     * recording (hash, shared reference, LRU ticket). The sessions
     * it references are counted above. */
    uint64_t artifactBytes = 0;
    /** Decoded-block bytes the calling thread's trace-store cache
     * holds for live stores. */
    uint64_t traceCacheBytes = 0;
    uint64_t totalBytes = 0; //!< sum of the above
};

/**
 * The multi-tenant profiling service (see the file comment).
 * Tenants are opened, recordings submitted (asynchronously replayed
 * on the shared pool), drain() joins the outstanding replays, and
 * session() exposes each workload's selections.
 */
class ProfilingService
{
  public:
    using TenantId = size_t;
    using WorkloadId = size_t;

    explicit ProfilingService(ServiceConfig config = {});

    /** Joins outstanding replays (failures are not reported here;
     * call drain() first to observe them). */
    ~ProfilingService();

    ProfilingService(const ProfilingService &) = delete;
    ProfilingService &operator=(const ProfilingService &) = delete;

    TenantId openTenant(std::string name);

    /**
     * Submit one recorded workload for @p tenant. The first copy of
     * a recording (by content hash, from any tenant) is replayed on
     * the shared pool and its session built when the replay
     * finishes; every other copy shares that session — at once if
     * it is built, else when the replay finishes. If that replay
     * fails, the waiting copies fail with it. Only the replay reads
     * @p recording; it is dropped once the replay has run.
     */
    WorkloadId submit(TenantId tenant, std::string workload_name,
                      cfl::Recording recording);

    /**
     * Wait for every outstanding replay, then throw one FatalError
     * naming each workload that failed since the last drain() (the
     * good workloads are usable either way).
     */
    void drain();

    /** refresh() every workload's session (see
     * WorkloadSession::refresh) and mark it recently used. */
    void refreshAll();

    /** The session of one drained workload (shared with every copy
     * of its recording). Throws FatalError with the replay's error
     * if the workload failed. */
    WorkloadSession &session(TenantId tenant, WorkloadId workload);

    gpu::SharedPlanCache &planCache() { return plans; }

    const ServiceConfig &config() const { return cfg; }

    ServiceStats stats() const;

    /**
     * Approximate resident bytes of the service: every distinct
     * session's state (WorkloadSession::memoryBytes and memoBytes)
     * plus the shared plan cache, the session cache's index and the
     * calling thread's trace-store decode cache. The eviction tests
     * assert it stays bounded as tenants accumulate.
     */
    ServiceFootprint memoryFootprint() const;

    /** Directory evicted sessions archive to (catalog inside). */
    const std::string &archiveDirectory() const { return archiveRoot; }

  private:
    struct Workload
    {
        TenantId tenant = 0;
        std::string name;
        uint64_t recordingHash = 0;
        /** Set when the session is built (null while replaying and
         * on failure). */
        std::shared_ptr<WorkloadSession> session;
        /** Why the replay failed (empty = it did not). */
        std::string error;
    };

    struct Tenant
    {
        std::string name;
        std::vector<std::unique_ptr<Workload>> workloads;
    };

    /** One distinct recording: its session once built, else the
     * copies waiting on its replay. */
    struct CachedSession
    {
        std::shared_ptr<WorkloadSession> session;
        std::vector<Workload *> followers;
        uint64_t lastUse = 0; //!< LRU ticket (monotone counter)
    };

    /** Replay @p recording for @p leader, build its session, and
     * publish it to the leader and its followers (or their error). */
    void runReplay(Workload &leader, cfl::Recording recording);

    /** The archive catalog, created (with its directory) on first
     * use. */
    SessionArchive &archiveCatalog();

    /** Evict sessions (LRU-first) until the resident-session and
     * resident-byte budgets hold; no-op when unbounded. Called after
     * every session is built. */
    void enforceBudget();

    ServiceConfig cfg;
    sched::ThreadPool &pool;
    sched::PoolHandle admission;
    gpu::SharedPlanCache plans;

    std::string archiveRoot;
    std::mutex archiveMutex;
    std::unique_ptr<SessionArchive> archiveStore;

    /** Guards everything below and every Workload. */
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Tenant>> tenants;
    /** Sessions by recording content hash. A failed replay's entry
     * is erased, so a resubmission replays afresh. */
    std::unordered_map<uint64_t, CachedSession> sessions;
    uint64_t useTicket = 0;
    uint64_t replayCount = 0;
    uint64_t artifactHitCount = 0;
    std::vector<std::future<void>> pendingReplays;
    /** Failed workloads drain() has not reported yet. */
    std::vector<Workload *> unreportedFailures;
};

} // namespace gt::serve

#endif // GT_SERVE_SERVICE_HH
