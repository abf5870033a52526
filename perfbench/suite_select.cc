/**
 * @file
 * suite_select: the paper's selection flow over every application's
 * recording, one app at a time. Each app goes serialized recording
 * -> cfl::loadRecording -> core::replayTrial -> core::FeatureEngine
 * -> core::exploreConfigs -> pickMinError + pickCoOptimized(10%).
 *
 * Set-up profiles the suite once (core::profileSuite) and keeps only
 * the serialized recordings. The seed fixes the order the apps are
 * taken in and each app's replay noise stream, so every seed does
 * the same work on different timings.
 */

#include <algorithm>

#include "bench.hh"
#include "common/rng.hh"
#include "core/feature_engine.hh"

namespace perfbench
{

namespace
{

/** The smallest app: its replay is the per-replay fixed cost. */
const char *floorApp = "cb-gaussian-image";

class SuiteSelect : public Workload
{
  public:
    void
    setup(const Options &opts, DigestBook &book, Checks &checks) override
    {
        seed = opts.seed;
        inject = opts.injectMalformed;
        std::vector<std::string> names =
            opts.tiny ? std::vector<std::string>{floorApp,
                                                 "cb-throughput-juliaset",
                                                 "cb-gaussian-buffer"}
                      : suiteNames();
        std::vector<gt::core::ProfiledApp> profiled =
            profileApps(names);

        apps.clear();
        for (size_t i = 0; i < profiled.size(); ++i) {
            App app;
            app.name = names[i];
            app.text = serialize(profiled[i].recording);
            app.noiseSeed =
                Digest().add(seed).add(app.name).value() | 1;
            book.check("recording/" + app.name,
                       Digest().add(app.text).value(), checks);
            apps.push_back(std::move(app));
        }
        gt::Rng rng(seed);
        for (size_t i = apps.size(); i > 1; --i)
            std::swap(apps[i - 1], apps[rng.nextBounded(i)]);
    }

    PassOut
    pass(unsigned pass_id, PassClock &clock, Tracer &tracer,
         DigestBook &book, Checks &checks) override
    {
        PassOut out;
        std::vector<double> app_s;
        uint64_t dispatches = 0;
        double resident = 0.0, floor_s = 0.0;
        gt::core::simpoint::KMeansStats cluster;
        std::vector<double> minerr, reduction;
        std::vector<std::pair<std::string, uint64_t>> digests;
        {
            Tracer::Scope pass_span(tracer, "pass");
            for (const App &app : apps) {
                const double t0 = nowSeconds();
                Tracer::Scope app_span(tracer, "app");
                // Each stage is a step of its own, so wall_s can take
                // every stage's fastest time from a different pass.
                double s0 = t0;
                auto step = [&] {
                    const double s1 = nowSeconds();
                    out.stepSeconds.push_back(s1 - s0);
                    s0 = s1;
                };
                std::optional<gt::cfl::Recording> recording;
                {
                    Tracer::Scope s(tracer, "cfl.load");
                    const bool bad = inject && pass_id == 0 &&
                                     &app == &apps.front();
                    recording = loadSerialized(
                        bad ? malformed(app.text) : app.text, app.name,
                        checks);
                }
                if (!recording)
                    continue;
                step();

                gt::gpu::TrialConfig trial;
                trial.noiseSeed = app.noiseSeed;
                const double r0 = nowSeconds();
                std::optional<gt::core::TraceDatabase> db;
                {
                    Tracer::Scope s(tracer, "gpu.replay");
                    db.emplace(gt::core::replayTrial(
                        *recording, gt::gpu::DeviceConfig::hd4000(),
                        trial));
                }
                if (app.name == floorApp)
                    floor_s = nowSeconds() - r0;
                step();
                std::optional<gt::core::FeatureEngine> engine;
                {
                    Tracer::Scope s(tracer, "core.features");
                    engine.emplace(*db);
                }
                step();
                gt::core::Exploration ex;
                {
                    Tracer::Scope s(tracer, "core.explore");
                    ex = gt::core::exploreConfigs(*db, {}, 0, &*engine);
                }
                const gt::core::ConfigResult &best =
                    gt::core::pickMinError(ex);
                const gt::core::ConfigResult &coopt =
                    gt::core::pickCoOptimized(ex, 10.0);
                step();
                app_s.push_back(s0 - t0);

                dispatches += db->numDispatches();
                resident += (double)db->memoryFootprint().residentBytes;
                cluster.merge(ex.clusterStats());
                minerr.push_back(best.errorPct);
                reduction.push_back(
                    (double)coopt.selection.totalInstrs /
                    (double)std::max<uint64_t>(
                        1, coopt.selection.selectedInstrs));
                Digest d;
                for (const gt::core::ConfigResult &r : ex.results)
                    d.add(r.selection).add(r.errorPct);
                d.add(best.selection).add(coopt.selection);
                digests.emplace_back(app.name, d.value());
            }
        }
        clock.stop();

        for (const auto &[name, digest] : digests) {
            book.check("suite_select/" + name + "/seed" +
                           std::to_string(seed),
                       digest, checks);
        }
        auto mean = [](const std::vector<double> &v) {
            double s = 0.0;
            for (double x : v)
                s += x;
            return v.empty() ? 0.0 : s / (double)v.size();
        };
        out.values["app_p50_s"] = quantile(app_s, 0.5);
        out.values["dispatches_per_s"] =
            (double)dispatches / clock.seconds();
        out.values["minerr_error_pct"] = mean(minerr);
        out.values["coopt_reduction"] = mean(reduction);
        out.values["gpu.replay_floor_ms"] = floor_s * 1e3;
        out.values["simpoint.prune_rate"] = cluster.pruneRate();
        out.values["simpoint.assign_steps"] = (double)cluster.assignSteps;
        out.values["core.trace_resident_mb"] = resident / (1 << 20);
        return out;
    }

  private:
    struct App
    {
        std::string name;
        std::string text; //!< serialized recording
        uint64_t noiseSeed = 1;
    };

    std::vector<App> apps;
    uint64_t seed = 1;
    bool inject = false;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSuiteSelect()
{
    return std::make_unique<SuiteSelect>();
}

} // namespace perfbench
