/**
 * @file
 * detail_sweep: cycle-level validation of subset selections. Set-up
 * profiles a few heavy apps and runs their 30-configuration
 * explorations; each pass then constructs a core::DetailedValidator
 * per app and validate()s several of the 30 selections at two
 * machine design points. The machine layer (detailed simulation,
 * EU pipeline, checkpoints) does the work; replay and clustering
 * stay in set-up.
 *
 * The seed picks which selections are validated and in what order.
 * The first validate() at a design point simulates every dispatch
 * (the whole-program reference), so the work per pass does not
 * depend on which selections are picked.
 */

#include <algorithm>

#include "bench.hh"
#include "common/rng.hh"

namespace perfbench
{

namespace
{

struct Point
{
    std::string label;
    gt::core::DesignPoint dp;
};

class DetailSweep : public Workload
{
  public:
    void
    setup(const Options &opts, DigestBook &book, Checks &checks) override
    {
        seed = opts.seed;
        std::vector<std::string> names =
            opts.tiny ? std::vector<std::string>{"cb-gaussian-image",
                                                 "cb-throughput-juliaset"}
                      : std::vector<std::string>{"sonyvegas-proj-r3",
                                                 "cb-vision-facedetect",
                                                 "cb-graphics-provence"};
        const size_t per_app = opts.tiny ? 2 : 4;

        apps.clear();
        profiled = profileApps(names);

        gt::Rng rng(seed);
        for (size_t i = 0; i < profiled.size(); ++i) {
            App app;
            app.profile = &profiled[i];
            app.exploration = gt::core::exploreConfigs(profiled[i].db);
            book.check("recording/" + names[i],
                       Digest().add(serialize(profiled[i].recording))
                           .value(),
                       checks);
            Digest d;
            for (const gt::core::ConfigResult &r :
                 app.exploration.results)
                d.add(r.selection).add(r.errorPct);
            book.check("explore/" + names[i], d.value(), checks);

            std::vector<size_t> configs(app.exploration.results.size());
            for (size_t c = 0; c < configs.size(); ++c)
                configs[c] = c;
            for (size_t c = configs.size(); c > 1; --c)
                std::swap(configs[c - 1], configs[rng.nextBounded(c)]);
            configs.resize(per_app);
            app.configs = configs;
            apps.push_back(std::move(app));
        }

        points = {{"hd4000", {gt::gpu::DeviceConfig::hd4000(), 0.0}},
                  {"hd4600", {gt::gpu::DeviceConfig::hd4600(), 0.0}}};
    }

    PassOut
    pass(unsigned, PassClock &clock, Tracer &tracer, DigestBook &book,
         Checks &checks) override
    {
        PassOut out;
        uint64_t walked = 0, checkpoints = 0, cells = 0;
        double validate_s = 0.0, err_sum = 0.0;
        size_t reports = 0;
        std::vector<std::pair<std::string, uint64_t>> digests;
        {
            Tracer::Scope pass_span(tracer, "pass");
            for (const App &app : apps) {
                Tracer::Scope app_span(tracer, "app");
                std::optional<gt::core::DetailedValidator> validator;
                const double c0 = nowSeconds();
                {
                    Tracer::Scope s(tracer, "detailed.ctor");
                    validator.emplace(*app.profile);
                }
                out.stepSeconds.push_back(nowSeconds() - c0);
                for (const Point &pt : points) {
                    for (size_t c : app.configs) {
                        const double v0 = nowSeconds();
                        gt::core::DetailedValidator::Report r;
                        {
                            Tracer::Scope s(tracer, "detailed.validate");
                            r = validator->validate(
                                app.exploration.results[c].selection,
                                pt.dp);
                        }
                        out.stepSeconds.push_back(nowSeconds() - v0);
                        validate_s += out.stepSeconds.back();
                        walked += r.fullWalked + r.subsetWalked;
                        err_sum += r.errorPct;
                        ++reports;
                        digests.emplace_back(
                            app.profile->name + "/c" + std::to_string(c) +
                                "/" + pt.label,
                            Digest().add(r).value());
                    }
                }
                checkpoints += validator->checkpointBuilds();
                cells += validator->cellSims();
            }
        }
        clock.stop();

        for (const auto &[key, digest] : digests)
            book.check("detail_sweep/" + key, digest, checks);
        out.values["walked_minstr_per_s"] =
            (double)walked / 1e6 / clock.seconds();
        out.values["detail_error_pct"] =
            reports ? err_sum / (double)reports : 0.0;
        out.values["detailed.checkpoints"] = (double)checkpoints;
        out.values["detailed.cells"] = (double)cells;
        out.values["detailed.cell_us"] =
            cells ? validate_s / (double)cells * 1e6 : 0.0;
        return out;
    }

  private:
    struct App
    {
        const gt::core::ProfiledApp *profile = nullptr;
        gt::core::Exploration exploration;
        std::vector<size_t> configs; //!< validated selections
    };

    std::vector<gt::core::ProfiledApp> profiled;
    std::vector<App> apps;
    std::vector<Point> points;
    uint64_t seed = 1;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeDetailSweep()
{
    return std::make_unique<DetailSweep>();
}

} // namespace perfbench
