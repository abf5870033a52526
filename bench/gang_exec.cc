/**
 * @file
 * Gang-execution benchmark: Full-mode dispatch throughput of the
 * executor (gang-lockstep SoA execution wherever the plan proves it
 * safe) vs. scalar per-thread execution on the reference interpreter
 * (tests/reference), across the whole kernel template library.
 *
 * Each case runs the same dispatch through one of the two; the
 * paired timings yield per-template speedups, a
 * geometric mean over the gang-engaged templates, and a geometric
 * mean over the wide-SIMD set (blur, stream, blend) that the
 * acceptance gate enforces at >= 2x. Results are written to
 * BENCH_gang.json (and summarized on stdout) so the README's perf
 * numbers are reproducible with:
 *
 *     build/bench/gang_exec            # full run, enforces the gate
 *     build/bench/gang_exec --smoke    # quick CI sanity pass
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "gpu/executor.hh"
#include "reference/interpreter.hh"
#include "workloads/templates.hh"

using namespace gt;

namespace
{

/** Leading template parameter (trip count / size knob) per case. */
constexpr int64_t leadingParam = 8;

/** Work items per dispatch (64 hardware threads at SIMD16). */
constexpr uint64_t benchGlobalSize = 16 * 64;

/** Templates the >= 2x geomean acceptance gate runs over: wide-SIMD
 * streaming kernels where lockstep should pay off most. */
const std::set<std::string> wideSimdSet = {"blur", "stream", "blend"};

/** Did the gang executor actually gang this template's dispatch? */
std::map<std::string, bool> gangEngaged;

/** Time @p tmpl's Full-mode dispatch on an @p Interp (the executor
 * or the scalar reference interpreter). */
template <class Interp>
void
runExec(benchmark::State &state, const std::string &tmpl)
{
    setLogQuiet(true);
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "bench_" + tmpl;
    src.templateName = tmpl;
    src.params = {leadingParam};
    isa::KernelBinary bin = jit.compile(src);

    gpu::DeviceMemory mem(32 << 20);
    Interp exec(gpu::DeviceConfig::hd4000(), mem);

    gpu::Dispatch d;
    d.binary = &bin;
    d.globalSize = benchGlobalSize;
    d.simdWidth = 16;
    // Kernels whose gang verdict carries dispatch-time region checks
    // need distinct per-arg buffers (aliased args would pin scalar
    // execution); the rest use a shared base, which keeps args some
    // templates reinterpret as trip counts small.
    if (isa::analyzeGangSafety(bin).checks.empty()) {
        d.args.assign(bin.numArgs, (uint32_t)mem.allocate(4 << 20));
    } else {
        for (uint32_t a = 0; a < bin.numArgs; ++a)
            d.args.push_back((uint32_t)mem.allocate(1 << 19));
    }

    uint64_t instrs = 0;
    for (auto _ : state) {
        gpu::ExecProfile p = exec.run(d, gpu::Executor::Mode::Full);
        instrs += p.dynInstrs;
        benchmark::DoNotOptimize(p.dynInstrs);
    }
    if constexpr (std::is_same_v<Interp, gpu::Executor>)
        gangEngaged[tmpl] = exec.lastRunGanged();
    state.counters["interp_instrs_per_s"] = benchmark::Counter(
        (double)instrs, benchmark::Counter::kIsRate);
}

std::string
caseName(const std::string &tmpl, const char *exec_name)
{
    return "gang/" + tmpl + "/full/" + exec_name;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = bench::stripSmokeFlag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    const std::vector<std::string> templates =
        workloads::builtinTemplates().templateNames();

    using RunFn = void (*)(benchmark::State &, const std::string &);
    const std::pair<const char *, RunFn> execs[] = {
        {"scalar", &runExec<reference::Interpreter>},
        {"gang", &runExec<gpu::Executor>},
    };

    const double min_time = smoke ? 0.01 : 0.1;
    for (const std::string &tmpl : templates) {
        for (const auto &[exec_name, run] : execs) {
            benchmark::RegisterBenchmark(
                caseName(tmpl, exec_name).c_str(),
                [tmpl, run](benchmark::State &st) { run(st, tmpl); })
                ->MinTime(min_time)
                ->Unit(benchmark::kMicrosecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Pair up the timings: per-template speedups, a geomean over the
    // templates the gang path engaged on, and the enforced wide-SIMD
    // geomean.
    bench::BenchReport report("BENCH_gang.json");
    bench::GeoMean geoGanged, geoWide;
    for (const std::string &tmpl : templates) {
        auto sc = reporter.times.find(caseName(tmpl, "scalar"));
        auto ga = reporter.times.find(caseName(tmpl, "gang"));
        if (sc == reporter.times.end() || ga == reporter.times.end())
            continue;
        double speedup = sc->second / ga->second;
        bool ganged = gangEngaged[tmpl];
        if (ganged)
            geoGanged.add(speedup);
        if (wideSimdSet.count(tmpl))
            geoWide.add(speedup);
        report.addRow()
            .field("template", tmpl)
            .field("mode", "full")
            .field("scalar_ns", sc->second)
            .field("gang_ns", ga->second)
            .field("speedup", speedup)
            .field("ganged", ganged);
    }

    std::cout << "\n";
    report.scalar("geomean_speedup_ganged", geoGanged.value());
    report.scalar("geomean_speedup_wide_simd", geoWide.value());
    std::cout << "geomean speedup (Full mode, gang vs scalar, "
              << geoGanged.count()
              << " gang-engaged templates): " << geoGanged.value()
              << "x\n";
    std::cout << "geomean speedup (wide-SIMD set blur/stream/blend): "
              << geoWide.value() << "x\n";

    // Acceptance gates. The wide-SIMD >= 2x bound is the PR's headline
    // claim; the engagement check keeps the numbers honest (a silent
    // fallback to scalar would "pass" with a 1.0x speedup otherwise).
    bool engaged = true;
    for (const std::string &tmpl : wideSimdSet)
        engaged = engaged && gangEngaged[tmpl];
    report.gate("wide_simd_gate",
                engaged && (smoke || geoWide.value() >= 2.0),
                "wide-SIMD gang gate: engaged=" +
                    std::string(engaged ? "yes" : "no") +
                    ", geomean " + std::to_string(geoWide.value()) +
                    "x (enforced bound 2x)");
    return report.finish();
}
