#include "ocl/driver.hh"

#include "common/logging.hh"

namespace gt::ocl
{

GpuDriver::GpuDriver(const gpu::DeviceConfig &config,
                     const isa::JitCompiler &jit_,
                     const gpu::TrialConfig &trial)
    : cfg(config), jit(jit_), mem(config.memBytes), exec(config, mem),
      timing(config, trial)
{
}

void
GpuDriver::setObserver(DriverObserver *observer)
{
    GT_ASSERT(!observer || !observerPtr,
              "a driver observer is already attached");
    observerPtr = observer;
}

uint32_t
GpuDriver::buildKernel(const isa::KernelSource &source)
{
    isa::KernelBinary bin = jit.compile(source);
    isa::verify(bin);
    if (observerPtr) {
        // The GT-Pin diversion point: binary goes through the
        // rewriter before reaching the device.
        bin = observerPtr->onKernelJit(source, std::move(bin));
        isa::verify(bin);
    }
    KernelEntry entry;
    entry.src = source;
    entry.bin = std::make_unique<isa::KernelBinary>(std::move(bin));
    kernels.push_back(std::move(entry));
    return (uint32_t)(kernels.size() - 1);
}

const isa::KernelBinary &
GpuDriver::binary(uint32_t kernel_id) const
{
    GT_ASSERT(kernel_id < kernels.size(), "invalid kernel id ",
              kernel_id);
    return *kernels[kernel_id].bin;
}

const isa::KernelSource &
GpuDriver::source(uint32_t kernel_id) const
{
    GT_ASSERT(kernel_id < kernels.size(), "invalid kernel id ",
              kernel_id);
    return kernels[kernel_id].src;
}

DispatchResult
GpuDriver::execute(uint32_t kernel_id, uint64_t global_size,
                   uint8_t simd_width,
                   const std::vector<uint32_t> &args)
{
    const isa::KernelBinary &bin = binary(kernel_id);

    gpu::Dispatch dispatch;
    dispatch.binary = &bin;
    dispatch.globalSize = global_size;
    dispatch.simdWidth = simd_width;
    dispatch.args = args;

    DispatchResult result;
    result.seq = nextSeq++;
    result.kernelId = kernel_id;
    result.kernelName = bin.name;
    result.globalSize = global_size;
    result.args = args;

    // FNV-1a over the argument words, the identity the KN-ARGS
    // feature family and the checkpoint store key on.
    result.argsHash = gpu::dispatchArgsHash(args);

    result.profile =
        exec.run(dispatch, execMode, &trace, memBatch);
    result.time = timing.kernelTime(result.profile);
    busySeconds += result.time.seconds;

    if (observerPtr)
        observerPtr->onDispatchComplete(result, trace);
    return result;
}

void
GpuDriver::setSharedCaches(gpu::SharedPlanCache *plan_cache,
                           gpu::SharedCheckpointCache *ckpt_cache)
{
    exec.setSharedPlanCache(plan_cache);
    sharedCkpts = ckpt_cache;
}

const gpu::DetailedCheckpoint &
GpuDriver::checkpoint(uint32_t kernel_id, uint64_t global_size,
                      uint8_t simd_width,
                      const std::vector<uint32_t> &args)
{
    const isa::KernelBinary &bin = binary(kernel_id);

    gpu::Dispatch dispatch;
    dispatch.binary = &bin;
    dispatch.globalSize = global_size;
    dispatch.simdWidth = simd_width;
    dispatch.args = args;
    if (!sharedCkpts)
        return ckpts.get(exec, dispatch, kernel_id);

    gpu::SharedCheckpointCache::Key key;
    key.binaryHash = isa::contentHash(bin);
    key.globalSize = global_size;
    key.simdWidth = simd_width;
    key.argsHash = gpu::dispatchArgsHash(args);
    key.traceCap = 4'000'000;
    if (auto hit = sharedCkpts->find(key))
        return *hit;
    const gpu::DetailedCheckpoint &built =
        ckpts.get(exec, dispatch, kernel_id);
    return *sharedCkpts->insert(key, built, bin);
}

double
GpuDriver::transferSeconds(uint64_t bytes) const
{
    return (double)bytes / (cfg.memBandwidthGBs * 1e9);
}

void
GpuDriver::setMemBatchCallback(gpu::MemBatchFn fn)
{
    memBatch = std::move(fn);
}

} // namespace gt::ocl
