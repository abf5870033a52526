/**
 * @file
 * serve_tenants: one serve::ProfilingService under a resident-byte
 * budget. Tenants submit serialized recordings (cfl::loadRecording)
 * in waves: every tenant submits one recording, then drain(), then
 * refreshAll(). Recordings follow a Zipf(1) popularity over the
 * suite, so most submissions are warm duplicates served from the
 * replay-artifact cache, each app's first copy is cold, and the most
 * popular apps' duplicates arrive in the same wave as their first
 * copy, before it drains.
 *
 * The popularity order is a fixed permutation of the suite that does
 * not follow app size (popularityOrder below), so small and large
 * apps alike get warm submissions. The number of copies of each app
 * and the wave each copy lands in follow from it (copies are spread
 * evenly over the run), and so does the submission order, so every
 * seed does the same work. The seed sets the replay noise stream and
 * which tenant submits each recording.
 */

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include <unistd.h>

#include "bench.hh"
#include "common/rng.hh"
#include "serve/service.hh"

namespace perfbench
{

namespace
{

/** Resident-session byte budget; small enough that sessions get
 * evicted to the archive during a pass. */
constexpr uint64_t residentBudget = 8ull << 20;

/**
 * Popularity rank of the suite's apps, most popular first: the suite
 * shuffled once (Python's random.Random(1).shuffle over
 * workloadSuite() order), written out so it never follows changes to
 * the suite's order. With Zipf(1) over 8 tenants x 6 waves the first
 * 8 apps get copies in more than one wave, so warm submissions; they
 * include the largest app, sonyvegas-proj-r4 (3 copies), and 2-4 apps
 * of each third of the suite by dispatch count.
 */
const std::vector<std::string> popularityOrder = {
    "cb-histogram-image",       "sonyvegas-proj-r3",
    "sonyvegas-proj-r7",        "sonyvegas-proj-r4",
    "sonyvegas-proj-r6",        "cb-physics-part-sim-64k",
    "sonyvegas-proj-r5",        "cb-throughput-juliaset",
    "sandra-crypt-aes256",      "cb-histogram-buffer",
    "cb-physics-part-sim-32k",  "sandra-proc-gpu",
    "cb-graphics-t-rex",        "cb-gaussian-buffer",
    "cb-physics-ocean-surf",    "cb-graphics-provence",
    "cb-throughput-ao",         "sonyvegas-proj-r2",
    "cb-vision-facedetect-mobile", "sandra-crypt-aes128",
    "cb-vision-facedetect",     "cb-gaussian-image",
    "cb-throughput-bitcoin",    "sonyvegas-proj-r1",
    "cb-vision-tv-l1-of",
};

/** Sessions per pass re-derived with a one-shot selectSubset(). */
constexpr size_t oracleSamples = 3;

class ServeTenants : public Workload
{
  public:
    void
    setup(const Options &opts, DigestBook &book, Checks &checks) override
    {
        seed = opts.seed;
        inject = opts.injectMalformed;
        workDir = opts.workDir;
        tenants = opts.tiny ? 3 : 8;
        const unsigned waves = opts.tiny ? 2 : 6;
        std::vector<std::string> names =
            opts.tiny ? std::vector<std::string>{"cb-gaussian-image",
                                                 "cb-throughput-juliaset",
                                                 "cb-gaussian-buffer"}
                      : popularityOrder;
        std::vector<std::string> sorted = names, suite = suiteNames();
        std::sort(sorted.begin(), sorted.end());
        std::sort(suite.begin(), suite.end());
        if (!opts.tiny && sorted != suite)
            throw std::runtime_error(
                "serve_tenants: popularity order is not the suite");

        // Recordings in popularity order, most popular first.
        std::vector<gt::core::ProfiledApp> profiled =
            profileApps(names);
        recordings.clear();
        for (size_t i = 0; i < profiled.size(); ++i) {
            recordings.push_back(
                {names[i], serialize(profiled[i].recording)});
            book.check("recording/" + names[i],
                       Digest().add(recordings.back().text).value(),
                       checks);
        }

        // Copies per app: Zipf(1) shares of tenants x waves
        // submissions, apportioned by largest remainder.
        const size_t total = (size_t)tenants * waves;
        double norm = 0.0;
        for (size_t r = 0; r < recordings.size(); ++r)
            norm += 1.0 / (double)(r + 1);
        std::vector<size_t> copies(recordings.size());
        std::vector<std::pair<double, size_t>> remainders;
        size_t given = 0;
        for (size_t r = 0; r < recordings.size(); ++r) {
            double share = (double)total / (double)(r + 1) / norm;
            copies[r] = (size_t)share;
            given += copies[r];
            remainders.push_back({share - (double)copies[r], r});
        }
        std::sort(remainders.rbegin(), remainders.rend());
        for (size_t i = 0; given < total; ++i, ++given)
            ++copies[remainders[i % remainders.size()].second];

        // Spread each app's copies evenly over the run: copy j of an
        // app with n copies arrives at (j + 0.5) / n.
        std::vector<std::pair<double, size_t>> arrivals;
        for (size_t r = 0; r < recordings.size(); ++r) {
            for (size_t j = 0; j < copies[r]; ++j)
                arrivals.push_back(
                    {((double)j + 0.5) / (double)copies[r], r});
        }
        std::sort(arrivals.begin(), arrivals.end());

        // Submissions go in arrival order; the seed deals them to
        // tenants.
        gt::Rng rng(seed);
        schedule.assign(waves, {});
        for (unsigned w = 0; w < waves; ++w) {
            std::vector<unsigned> who(tenants);
            for (unsigned t = 0; t < tenants; ++t)
                who[t] = t;
            for (size_t i = who.size(); i > 1; --i)
                std::swap(who[i - 1], who[rng.nextBounded(i)]);
            for (unsigned t = 0; t < tenants; ++t)
                schedule[w].push_back(
                    {arrivals[(size_t)w * tenants + t].second, who[t]});
        }
        noiseSeed = Digest().add(seed).add(std::string("serve")).value() | 1;
    }

    PassOut
    pass(unsigned pass_id, PassClock &clock, Tracer &tracer,
         DigestBook &book, Checks &checks) override
    {
        PassOut out;
        gt::serve::ServiceConfig cfg;
        cfg.trial.noiseSeed = noiseSeed;
        cfg.maxResidentBytes = residentBudget;
        cfg.archiveDir = workDir + "/serve-archive-" +
                         std::to_string((long)::getpid()) + "-p" +
                         std::to_string(pass_id);

        struct Submitted
        {
            size_t rec;
            gt::serve::ProfilingService::TenantId tenant;
            gt::serve::ProfilingService::WorkloadId id;
        };
        std::vector<Submitted> submitted;
        std::vector<double> warm_s, cold;
        std::set<size_t> seen, drained;

        std::optional<gt::serve::ProfilingService> service;
        service.emplace(cfg);
        {
            Tracer::Scope pass_span(tracer, "pass");
            std::vector<gt::serve::ProfilingService::TenantId> ids;
            for (unsigned t = 0; t < tenants; ++t)
                ids.push_back(
                    service->openTenant("tenant-" + std::to_string(t)));
            for (size_t w = 0; w < schedule.size(); ++w) {
                const double w0 = nowSeconds();
                Tracer::Scope wave_span(tracer, "wave");
                // Every tenant's upload is parsed first, then all are
                // submitted back to back, so a duplicate of a cold
                // recording arrives while its first copy replays.
                std::vector<std::optional<gt::cfl::Recording>> uploads;
                for (size_t t = 0; t < schedule[w].size(); ++t) {
                    const Rec &rec = recordings[schedule[w][t].rec];
                    Tracer::Scope s(tracer, "cfl.load");
                    const bool bad =
                        inject && pass_id == 0 && w == 0 && t == 0;
                    uploads.push_back(loadSerialized(
                        bad ? malformed(rec.text) : rec.text, rec.name,
                        checks));
                }
                for (size_t t = 0; t < schedule[w].size(); ++t) {
                    if (!uploads[t])
                        continue;
                    const size_t r = schedule[w][t].rec;
                    const auto tenant = ids[schedule[w][t].tenant];
                    const bool warm = drained.count(r) > 0;
                    const bool first = seen.insert(r).second;
                    const double s0 = nowSeconds();
                    gt::serve::ProfilingService::WorkloadId id;
                    {
                        Tracer::Scope s(tracer, "serve.submit");
                        id = service->submit(tenant, recordings[r].name,
                                             std::move(*uploads[t]));
                    }
                    const double dt = nowSeconds() - s0;
                    if (warm)
                        warm_s.push_back(dt);
                    else if (first)
                        cold.push_back(dt);
                    submitted.push_back({r, tenant, id});
                }
                try {
                    Tracer::Scope s(tracer, "serve.drain");
                    service->drain();
                } catch (const std::exception &e) {
                    checks.expect(false, std::string("drain: ") + e.what());
                }
                {
                    Tracer::Scope s(tracer, "serve.refresh");
                    service->refreshAll();
                }
                drained.insert(seen.begin(), seen.end());
                out.stepSeconds.push_back(nowSeconds() - w0);
            }
        }
        clock.stop();

        const gt::serve::ServiceStats stats = service->stats();
        const gt::serve::ServiceFootprint fp = service->memoryFootprint();
        uint64_t dispatches = 0;
        for (const Submitted &s : submitted) {
            gt::serve::WorkloadSession &session =
                service->session(s.tenant, s.id);
            dispatches += session.numDispatches();
            Digest d;
            for (size_t c = 0; c < cfg.selections.size(); ++c)
                d.add(session.selection(c));
            book.check("serve_tenants/" + recordings[s.rec].name +
                           "/seed" + std::to_string(seed),
                       d.value(), checks);
        }
        gt::Rng pick(seed + pass_id);
        for (size_t i = 0; i < oracleSamples && !submitted.empty(); ++i) {
            const Submitted &s =
                submitted[pick.nextBounded(submitted.size())];
            checks.expect(matchesOracle(service->session(s.tenant, s.id),
                                        cfg),
                          "session of " + recordings[s.rec].name +
                              " differs from one-shot selectSubset");
        }
        service.reset();
        std::error_code ec;
        std::filesystem::remove_all(cfg.archiveDir, ec);

        const double mb = 1.0 / (1 << 20);
        const double hits = (double)stats.artifactHits;
        const double replays = (double)stats.replays;
        const double reused = (double)stats.sessions.reusedSelections;
        const double plan_lookups =
            (double)(stats.planCache.hits + stats.planCache.misses);
        out.values["warm_submit_p50_ms"] =
            quantile(warm_s, 0.5) * 1e3;
        out.values["warm_submit_p90_ms"] =
            quantile(warm_s, 0.9) * 1e3;
        out.values["wave_p50_s"] = quantile(out.stepSeconds, 0.5);
        out.values["footprint_mb"] = (double)fp.totalBytes * mb;
        out.values["dispatches_per_s"] =
            (double)dispatches / clock.seconds();
        out.values["serve.submit_cold_ms"] = quantile(cold, 0.5) * 1e3;
        out.values["serve.artifact_hit_ratio"] =
            hits + replays > 0 ? hits / (hits + replays) : 0.0;
        out.values["serve.redundant_replays"] =
            replays - (double)seen.size();
        out.values["serve.reused_selection_ratio"] =
            reused / std::max(1.0, reused + (double)stats.sessions
                                                .reclustered);
        out.values["serve.evictions"] = (double)stats.sessions.evictions;
        out.values["gpu.plan_cache_hit_ratio"] =
            plan_lookups > 0 ? (double)stats.planCache.hits / plan_lookups
                             : 0.0;
        out.values["serve.resident_session_mb"] =
            (double)fp.sessionBytes * mb;
        out.values["serve.memo_mb"] = (double)fp.memoBytes * mb;
        out.values["serve.artifact_mb"] = (double)fp.artifactBytes * mb;
        out.values["serve.plan_cache_mb"] =
            (double)fp.planCacheBytes * mb;
        return out;
    }

  private:
    struct Rec
    {
        std::string name;
        std::string text; //!< serialized recording
    };

    /** The oracle bench/service_throughput uses: seal the session's
     * database and re-derive every configured selection one-shot. */
    static bool
    matchesOracle(gt::serve::WorkloadSession &session,
                  const gt::serve::ServiceConfig &cfg)
    {
        gt::core::TraceDatabase db = session.sealDatabase();
        for (size_t c = 0; c < cfg.selections.size(); ++c) {
            const gt::serve::SelectionConfig &sc = cfg.selections[c];
            gt::core::SubsetSelection got = session.selection(c);
            gt::core::SubsetSelection want = gt::core::selectSubset(
                db, sc.scheme, sc.feature, cfg.cluster, cfg.targetInstrs);
            if (Digest().add(got).value() != Digest().add(want).value() ||
                gt::core::projectedSpi(db, got) !=
                    gt::core::projectedSpi(db, want))
                return false;
        }
        return true;
    }

    std::vector<Rec> recordings;
    /** One submission: which recording, from which tenant. */
    struct Slot
    {
        size_t rec;
        unsigned tenant;
    };
    std::vector<std::vector<Slot>> schedule;
    unsigned tenants = 0;
    uint64_t seed = 1;
    uint64_t noiseSeed = 1;
    bool inject = false;
    std::string workDir;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeServeTenants()
{
    return std::make_unique<ServeTenants>();
}

} // namespace perfbench
