#include "core/pipeline.hh"

#include <set>

#include "common/logging.hh"
#include "gtpin/tools.hh"

namespace gt::core
{

namespace
{

/**
 * One profiled run's stack: a fresh driver with the GT-Pin tool set
 * attached and the CoFluent tracer observing its runtime. The
 * constructor is the one place the tool set is attached — native
 * profiling and every replay carry identical instrumentation.
 */
struct InstrumentedRun
{
    InstrumentedRun(const gpu::DeviceConfig &config,
                    const gpu::TrialConfig &trial,
                    gpu::SharedPlanCache *plans = nullptr)
        : driver(config, jit, trial), runtime(driver)
    {
        driver.setSharedPlanCache(plans);
        pin.addTool(&profileTool);
        pin.addTool(&bbTool);
        pin.addTool(&mixTool);
        pin.addTool(&memTool);
        pin.attach(driver);
        runtime.addObserver(&tracer);
    }

    // The tools, the GT-Pin attachment and the runtime hold each
    // other's addresses.
    InstrumentedRun(const InstrumentedRun &) = delete;
    InstrumentedRun &operator=(const InstrumentedRun &) = delete;

    /** The run's joined trace database (consumes the profiles). */
    TraceDatabase
    seal()
    {
        return TraceDatabase::build(profileTool.takeProfiles(),
                                    tracer.kernelTimings(),
                                    tracer.callStream());
    }

    workloads::TemplateJit jit;
    ocl::GpuDriver driver;
    gtpin::KernelProfileTool profileTool;
    gtpin::BasicBlockCounterTool bbTool;
    gtpin::OpcodeMixTool mixTool;
    gtpin::MemBytesTool memTool;
    gtpin::GtPin pin; //!< detaches on destruction, before the tools
    ocl::ClRuntime runtime;
    cfl::ApiTracer tracer;
};

} // anonymous namespace

ProfiledApp
profileApp(const workloads::Workload &workload,
           const gpu::DeviceConfig &config,
           const gpu::TrialConfig &trial)
{
    InstrumentedRun run(config, trial);
    cfl::Recorder recorder;
    run.runtime.addObserver(&recorder);

    workload.run(run.runtime);

    ProfiledApp app;
    app.name = workload.info().name;
    app.db = run.seal();
    app.recording = recorder.take();

    const cfl::ApiTracer &tracer = run.tracer;
    AppCharacterization &st = app.stats;
    st.totalApiCalls = tracer.totalCalls();
    st.fracKernel =
        tracer.categoryFraction(ocl::ApiCategory::Kernel);
    st.fracSync =
        tracer.categoryFraction(ocl::ApiCategory::Synchronization);
    st.fracOther =
        tracer.categoryFraction(ocl::ApiCategory::Other);

    std::set<std::string> names;
    for (uint32_t k = 0; k < run.driver.numKernels(); ++k)
        names.insert(run.driver.binary(k).name);
    st.uniqueKernels = names.size();
    st.uniqueBlocks = run.bbTool.totalStaticBlocks();

    st.kernelInvocations = app.db.numDispatches();
    st.blockExecs = run.bbTool.totalBlockExecs();
    st.dynInstrs = app.db.totalInstrs();

    st.classCounts = run.mixTool.classCounts();
    st.simdCounts = run.mixTool.simdCounts();
    st.bytesRead = run.memTool.totalBytesRead();
    st.bytesWritten = run.memTool.totalBytesWritten();
    return app;
}

std::vector<ProfiledApp>
profileSuite(const std::vector<const workloads::Workload *> &apps,
             const gpu::DeviceConfig &config,
             const gpu::TrialConfig &trial,
             sched::ThreadPool *pool_arg)
{
    sched::ThreadPool &pool =
        pool_arg ? *pool_arg : sched::ThreadPool::global();
    std::vector<ProfiledApp> results(apps.size());
    pool.parallelFor(
        apps.size(),
        [&](size_t i) {
            GT_ASSERT(apps[i], "null workload in profileSuite");
            results[i] = profileApp(*apps[i], config, trial);
        },
        1);
    return results;
}

TraceDatabase
replayTrial(const cfl::Recording &recording,
            const gpu::DeviceConfig &config,
            const gpu::TrialConfig &trial, gpu::SharedPlanCache *plans)
{
    InstrumentedRun run(config, trial, plans);
    cfl::replay(recording, run.runtime);
    return run.seal();
}

} // namespace gt::core
