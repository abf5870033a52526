#include "core/pipeline.hh"

#include <set>

#include "common/logging.hh"
#include "gtpin/tools.hh"

namespace gt::core
{

ProfiledApp
profileApp(const workloads::Workload &workload,
           const gpu::DeviceConfig &config,
           const gpu::TrialConfig &trial)
{
    workloads::TemplateJit jit;
    ocl::GpuDriver driver(config, jit, trial);

    gtpin::KernelProfileTool profile_tool;
    gtpin::BasicBlockCounterTool bb_tool;
    gtpin::OpcodeMixTool mix_tool;
    gtpin::MemBytesTool mem_tool;

    gtpin::GtPin pin;
    pin.addTool(&profile_tool);
    pin.addTool(&bb_tool);
    pin.addTool(&mix_tool);
    pin.addTool(&mem_tool);
    pin.attach(driver);

    ocl::ClRuntime runtime(driver);
    cfl::ApiTracer tracer;
    cfl::Recorder recorder;
    runtime.addObserver(&tracer);
    runtime.addObserver(&recorder);

    workload.run(runtime);

    ProfiledApp app;
    app.name = workload.info().name;
    app.db = TraceDatabase::build(profile_tool.takeProfiles(),
                                  tracer.kernelTimings(),
                                  tracer.callStream());
    app.recording = recorder.take();

    AppCharacterization &st = app.stats;
    st.totalApiCalls = tracer.totalCalls();
    st.fracKernel =
        tracer.categoryFraction(ocl::ApiCategory::Kernel);
    st.fracSync =
        tracer.categoryFraction(ocl::ApiCategory::Synchronization);
    st.fracOther =
        tracer.categoryFraction(ocl::ApiCategory::Other);

    std::set<std::string> names;
    for (uint32_t k = 0; k < driver.numKernels(); ++k)
        names.insert(driver.binary(k).name);
    st.uniqueKernels = names.size();
    st.uniqueBlocks = bb_tool.totalStaticBlocks();

    st.kernelInvocations = app.db.numDispatches();
    st.blockExecs = bb_tool.totalBlockExecs();
    st.dynInstrs = app.db.totalInstrs();

    st.classCounts = mix_tool.classCounts();
    st.simdCounts = mix_tool.simdCounts();
    st.bytesRead = mem_tool.totalBytesRead();
    st.bytesWritten = mem_tool.totalBytesWritten();

    pin.detach();
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
            const gpu::TrialConfig &trial)
{
    workloads::TemplateJit jit;
    ocl::GpuDriver driver(config, jit, trial);

    // Attach the same tool set profileApp() uses: instrumentation
    // load shifts kernels' relative SPI, so validation trials must
    // carry identical instrumentation or selections made on the
    // profiling trial are systematically biased on replays.
    gtpin::KernelProfileTool profile_tool;
    gtpin::BasicBlockCounterTool bb_tool;
    gtpin::OpcodeMixTool mix_tool;
    gtpin::MemBytesTool mem_tool;
    gtpin::GtPin pin;
    pin.addTool(&profile_tool);
    pin.addTool(&bb_tool);
    pin.addTool(&mix_tool);
    pin.addTool(&mem_tool);
    pin.attach(driver);

    ocl::ClRuntime runtime(driver);
    cfl::ApiTracer tracer;
    runtime.addObserver(&tracer);

    cfl::replay(recording, runtime);

    TraceDatabase db = TraceDatabase::build(
        profile_tool.takeProfiles(), tracer.kernelTimings(),
        tracer.callStream());
    pin.detach();
    return db;
}

} // namespace gt::core
