/**
 * @file
 * Memory-trace delivery benchmark: per-access delivery on the
 * reference interpreter (tests/reference, each access fed straight
 * into CacheModel::access) vs. the executor's batched SoA pipeline,
 * measured on cache-sim-enabled profiling — a GT-Pin stack with
 * CacheSimTool attached, dispatching memory-heavy kernel templates
 * through the driver exactly as production profiling does.
 *
 * The paired timings yield per-template speedups and a geometric-mean
 * speedup, written to BENCH_memtrace.json (and summarized on stdout)
 * so the README's perf numbers are reproducible with:
 *
 *     build/bench/memtrace
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "gtpin/cache_sim.hh"
#include "gtpin/gtpin.hh"
#include "ocl/driver.hh"
#include "reference/interpreter.hh"
#include "workloads/templates.hh"

using namespace gt;

namespace
{

/** Leading template parameter (trip count / size knob) per case. */
constexpr int64_t leadingParam = 8;

/** Work items per dispatch (256 hardware threads at SIMD16). */
constexpr uint64_t benchGlobalSize = 16 * 256;

/** Memory-heavy subset of the template library: cache simulation is
 * only enabled when global-memory address traces matter, so the
 * benchmark covers the templates whose dispatch cost is dominated by
 * traced (global) accesses, not compute (hash, julia) or local
 * memory (histogram, scan). */
const std::vector<std::string> benchTemplates = {
    "stream", "blur", "effect", "blend", "matmul",
    "reduce", "lut",  "fft",    "flow",
};

void
runTrace(benchmark::State &state, const std::string &tmpl,
         bool reference)
{
    setLogQuiet(true);
    workloads::TemplateJit jit;
    gpu::TrialConfig trial;
    trial.noiseSigma = 0.0;
    ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, trial);

    gtpin::CacheSimTool tool(4ull << 20, 16, 64);
    gtpin::GtPin pin;
    pin.addTool(&tool);
    pin.attach(driver);

    isa::KernelSource src;
    src.name = "bench_" + tmpl;
    src.templateName = tmpl;
    src.params = {leadingParam};
    uint32_t kernel = driver.buildKernel(src);
    std::vector<uint32_t> args(
        driver.binary(kernel).numArgs,
        (uint32_t)driver.memory().allocate(4 << 20));
    reference::Interpreter interp(driver.config(), driver.memory());

    for (auto _ : state) {
        if (reference) {
            reference::executeOnDriver(
                driver, interp, kernel, benchGlobalSize, 16, args,
                [&](uint64_t addr, uint32_t bytes, bool is_write) {
                    tool.cache().access(addr, bytes, is_write);
                });
        } else {
            driver.execute(kernel, benchGlobalSize, 16, args);
        }
        benchmark::DoNotOptimize(tool.cache().accesses());
    }
    state.counters["cache_accesses_per_s"] = benchmark::Counter(
        (double)tool.cache().accesses(), benchmark::Counter::kIsRate);
    pin.detach();
}

std::string
caseName(const std::string &tmpl, const char *mode)
{
    return "memtrace/" + tmpl + "/" + mode;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    for (const std::string &tmpl : benchTemplates) {
        for (const char *mode_name : {"callback", "batch"}) {
            bool reference = mode_name[0] == 'c';
            benchmark::RegisterBenchmark(
                caseName(tmpl, mode_name).c_str(),
                [tmpl, reference](benchmark::State &st) {
                    runTrace(st, tmpl, reference);
                })
                ->MinTime(0.1)
                ->Unit(benchmark::kMicrosecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Pair up the timings: speedup = callback time / batch time.
    bench::BenchReport report("BENCH_memtrace.json");
    bench::GeoMean geomean;
    for (const std::string &tmpl : benchTemplates) {
        auto cb = reporter.times.find(caseName(tmpl, "callback"));
        auto bt = reporter.times.find(caseName(tmpl, "batch"));
        if (cb == reporter.times.end() || bt == reporter.times.end())
            continue;
        double speedup = cb->second / bt->second;
        geomean.add(speedup);
        report.addRow()
            .field("template", tmpl)
            .field("callback_ns", cb->second)
            .field("batch_ns", bt->second)
            .field("speedup", speedup);
    }
    std::cout << "\n";
    if (geomean.count() > 0) {
        report.scalar("geomean_speedup", geomean.value());
        std::cout << "geomean speedup (batch vs reference callback "
                     "delivery): "
                  << geomean.value() << "x\n";
    }
    return report.finish();
}
