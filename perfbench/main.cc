/**
 * @file
 * Benchmark main program: set up a workload several times, run measured
 * passes for the requested time, and print every measurement as a
 * machine-readable line (see bench.hh). perfbench/run.py builds this
 * binary, runs it and formats the report.
 *
 *     perfbench --workload suite_select --seed 1 --seconds 15 \
 *               --trace 0 [--tiny] [--inject-malformed] \
 *               [--work-dir D] [--trace-out F] [--digests F]
 *
 * Untraced passes give the end-to-end metrics; a full run makes a
 * fixed number of them per workload (fullPasses), and more only if
 * they end before --seconds. wall_s adds up each step's fastest time
 * over them
 * (fastestPass()), so steps slowed by other load on the host do not
 * move it. With --trace 1 the passes come in pairs, untraced then
 * traced; traced passes record benchmark-side spans, whose per-pass
 * self times give the per-layer `<span>_s` metrics, and the median
 * over pairs of the traced minus the untraced pass wall is the
 * tracing overhead.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "bench.hh"
#include "common/logging.hh"
#include "sched/thread_pool.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload suite_select|"
                 "detail_sweep|serve_tenants --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--inject-malformed] "
                 "[--work-dir D] [--trace-out F] [--digests F]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--work-dir")
                o.workDir = value();
            else if (a == "--trace-out")
                o.tracePath = value();
            else if (a == "--digests")
                o.digestPath = value();
            else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--inject-malformed")
                o.injectMalformed = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "suite_select")
        return makeSuiteSelect();
    if (name == "detail_sweep")
        return makeDetailSweep();
    if (name == "serve_tenants")
        return makeServeTenants();
    usage("unknown workload " + name);
}

/** Untraced passes a full run makes at least. Each count outlasts
 * run_seconds on a 4-vCPU host, so the count, not the host's speed
 * at the time, ends the run and wall_s's per-step minimum is always
 * taken over as many samples: a time limit that falls between the
 * third and fourth pass splits runs into two groups whose minima
 * differ by more than the host's noise. */
const std::map<std::string, unsigned> fullPasses = {
    {"suite_select", 4}, {"detail_sweep", 5}, {"serve_tenants", 4}};

void
metric(const std::string &name, double value)
{
    std::cout << "M " << name << ' ' << std::setprecision(17) << value
              << '\n';
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Layer spans and the per-layer metric (name, scale from seconds)
 * their per-pass self time feeds. Other spans (pass, app, wave) only
 * structure the trace and the self-time table. */
const std::map<std::string, std::pair<std::string, double>> layerSpans = {
    {"cfl.load", {"cfl.load_ms", 1e3}},
    {"gpu.replay", {"gpu.replay_s", 1.0}},
    {"core.features", {"core.features_s", 1.0}},
    {"core.explore", {"core.explore_s", 1.0}},
    {"detailed.ctor", {"detailed.ctor_s", 1.0}},
    {"detailed.validate", {"detailed.validate_s", 1.0}},
    {"serve.submit", {"serve.submit_s", 1.0}},
    {"serve.drain", {"serve.drain_s", 1.0}},
    {"serve.refresh", {"serve.refresh_s", 1.0}},
};

/** Seconds one Tracer::Scope costs when tracing is on (fastest of a
 * few batches, so a descheduled batch does not count). */
double
scopeCost()
{
    constexpr int batch = 50000;
    double best = 1.0;
    for (int round = 0; round < 3; ++round) {
        Tracer t;
        t.setPass(1, true);
        const double t0 = nowSeconds();
        for (int i = 0; i < batch; ++i)
            Tracer::Scope s(t, "calibrate");
        best = std::min(best, (nowSeconds() - t0) / batch);
    }
    return best;
}

struct PassRecord
{
    unsigned id = 0;
    bool traced = false;
    PassClock clock; //!< starts when the record is made
    PassOut out;
};

/** One pass's wall time with host interference filtered out: the sum
 * over the pass's steps of each step's fastest time in the untraced
 * passes. Other load on the host only ever slows a step, and it hits
 * different steps in different passes. */
double
fastestPass(const std::vector<PassRecord> &passes)
{
    std::vector<double> fastest;
    for (const PassRecord &r : passes) {
        if (r.traced)
            continue;
        const std::vector<double> &steps = r.out.stepSeconds;
        if (fastest.empty())
            fastest = steps;
        if (steps.size() != fastest.size())
            throw std::runtime_error("passes differ in their steps");
        for (size_t i = 0; i < steps.size(); ++i)
            fastest[i] = std::min(fastest[i], steps[i]);
    }
    double sum = 0.0;
    for (double s : fastest)
        sum += s;
    return sum;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    gt::setLogQuiet(true);
    Options opts = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(opts.workload);

    const char *threads_env = std::getenv("GT_THREADS");
    const unsigned pool_width =
        gt::sched::ThreadPool::global().threadCount();
    std::cout << "I workload " << opts.workload << "\n"
              << "I seed " << opts.seed << "\n"
              << "I mode " << (opts.tiny ? "tiny" : "full") << "\n"
              << "I build_type " << PERFBENCH_BUILD_TYPE << "\n"
              << "I nproc " << sysconf(_SC_NPROCESSORS_ONLN) << "\n"
              << "I pool_threads " << pool_width << "\n"
              << "I gt_threads "
              << (threads_env && *threads_env ? threads_env : "unset")
              << "\n";

    Checks checks;
    DigestBook book(opts.digestPath);

    std::vector<double> setup_s;
    const unsigned setups = opts.tiny ? 1 : 3;
    for (unsigned i = 0; i < setups; ++i) {
        double t0 = nowSeconds();
        workload->setup(opts, book, checks);
        setup_s.push_back(nowSeconds() - t0);
    }

    // One unmeasured pass first, so allocator growth, page faults of
    // first-touched memory and lazily built caches are not timed.
    Tracer tracer;
    {
        PassClock warmup;
        workload->pass(0, warmup, tracer, book, checks);
    }
    const double scope_cost = opts.trace ? scopeCost() : 0.0;
    std::vector<PassRecord> passes;
    // A full run makes at least fullPasses untraced passes, or two
    // (untraced, traced) pairs; a tiny run one pass or one pair.
    unsigned min_passes = opts.trace ? 4 : fullPasses.at(opts.workload);
    if (opts.tiny)
        min_passes = opts.trace ? 2 : 1;
    const double t_start = nowSeconds();
    for (unsigned p = 1;; ++p) {
        const bool traced = opts.trace && p % 2 == 0;
        tracer.setPass(p, traced);
        PassRecord &rec = passes.emplace_back();
        rec.id = p;
        rec.traced = traced;
        rec.out = workload->pass(p, rec.clock, tracer, book, checks);
        rec.clock.stop();
        tracer.setPass(p, false);
        if (passes.size() >= min_passes &&
            nowSeconds() - t_start >= (opts.tiny ? 0.0 : opts.seconds) &&
            (!opts.trace || passes.size() % 2 == 0))
            break;
    }

    // End-to-end metrics from the untraced passes.
    std::vector<double> walls, overheads;
    std::map<std::string, std::vector<double>> values;
    std::vector<double> user, sys, faults, util, rss, growth;
    for (size_t i = 0; i < passes.size(); ++i) {
        const PassClock &c = passes[i].clock;
        if (passes[i].traced) {
            // Pairs are (untraced, traced), in that order.
            overheads.push_back(c.seconds() -
                                passes[i - 1].clock.seconds());
            continue;
        }
        walls.push_back(c.seconds());
        for (const auto &[name, v] : passes[i].out.values)
            values[name].push_back(v);
        user.push_back(c.userSeconds());
        sys.push_back(c.sysSeconds());
        faults.push_back(c.minorFaults());
        rss.push_back(c.peakRssMb());
        growth.push_back(c.peakRssMb() - c.baseRssMb());
        util.push_back((c.userSeconds() + c.sysSeconds()) /
                       (c.seconds() * pool_width));
    }
    // Every pass's raw figures, so a reader sees the spread (and the
    // host's steal) behind each reported figure.
    auto series = [&](const char *name, auto value) {
        std::cout << "I " << name << ' ' << std::setprecision(4);
        for (size_t i = 0; i < passes.size(); ++i)
            std::cout << (i ? "," : "") << value(passes[i]);
        std::cout << '\n';
    };
    series("pass_walls",
           [](const PassRecord &r) { return r.clock.seconds(); });
    series("pass_rss_mb",
           [](const PassRecord &r) { return r.clock.peakRssMb(); });
    series("pass_base_rss_mb",
           [](const PassRecord &r) { return r.clock.baseRssMb(); });
    series("pass_cpu_s", [](const PassRecord &r) {
        return r.clock.userSeconds() + r.clock.sysSeconds();
    });
    series("pass_steal_pct",
           [](const PassRecord &r) { return r.clock.stealShare() * 100.0; });
    std::cout << "I passes " << passes.size() << "\n"
              << "I untraced_passes " << walls.size() << "\n";

    metric("setup_s", median(setup_s));
    metric("wall_s", fastestPass(passes));
    // Memory peaks: the most any pass needed.
    metric("peak_rss_mb", *std::max_element(rss.begin(), rss.end()));
    metric("pass_peak_mb",
           *std::max_element(growth.begin(), growth.end()));
    for (const auto &[name, v] : values)
        metric(name, median(v));

    if (opts.trace) {
        metric("os.user_s", median(user));
        metric("os.sys_s", median(sys));
        metric("os.minor_faults", median(faults));
        metric("os.cpu_util", median(util));

        // Per-layer self time: median over traced passes of each
        // span's per-pass totals.
        std::map<std::string, std::vector<Tracer::Totals>> per_span;
        std::vector<double> span_counts;
        for (const PassRecord &r : passes) {
            if (!r.traced)
                continue;
            uint64_t spans = 0;
            for (const auto &[name, t] : tracer.totals(r.id)) {
                per_span[name].push_back(t);
                spans += t.count;
            }
            span_counts.push_back((double)spans);
        }
        const size_t traced = span_counts.size();
        for (const auto &[name, list] : per_span) {
            std::vector<double> count, total, self;
            for (const Tracer::Totals &t : list) {
                count.push_back((double)t.count);
                total.push_back(t.total);
                self.push_back(t.self);
            }
            // A span missing from some traced pass counts as zero.
            count.resize(traced, 0.0);
            total.resize(traced, 0.0);
            self.resize(traced, 0.0);
            std::cout << "S " << name << ' ' << median(count) << ' '
                      << std::setprecision(9) << median(total) << ' '
                      << median(self) << '\n';
            if (auto it = layerSpans.find(name); it != layerSpans.end())
                metric(it->second.first, median(self) * it->second.second);
        }

        // Tracing overhead, measured (traced minus untraced wall of
        // each pair) and as the tracer's own cost (spans recorded per
        // traced pass times the calibrated cost of one span). The
        // untraced walls' interquartile range tells whether the
        // measured figure stands out of the host's noise.
        std::cout << "I trace_pairs " << overheads.size() << "\n"
                  << "I untraced_wall_iqr_s " << std::setprecision(6)
                  << quantile(walls, 0.75) - quantile(walls, 0.25) << "\n"
                  << "I span_cost_ns " << scope_cost * 1e9 << "\n"
                  << "I spans_per_pass " << median(span_counts) << "\n";
        metric("trace.overhead_s", median(overheads));
        metric("trace.direct_s", median(span_counts) * scope_cost);
        if (!opts.tracePath.empty())
            tracer.writeChrome(opts.tracePath);
    }

    book.save();
    std::cout << "C " << checks.attempted() << ' ' << checks.failed()
              << std::endl;
    return 0;
}
