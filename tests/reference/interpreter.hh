/**
 * @file
 * Scalar reference interpreter: the bitwise oracle for gpu::Executor.
 *
 * A straightforward per-instruction opcode-switch interpreter over
 * the same kernel binaries, dispatch orchestration (representative
 * thread, stratified sampling, per-thread weighting) and execution
 * plan the production executor uses, but with none of its machinery:
 * no predecoded uops, no superblock chaining, no gang lockstep, no
 * SoA trace buffer. Threads run one at a time in thread order and
 * every global memory access is delivered to a callback the moment it
 * executes, which makes this interpreter the oracle for profiles,
 * trace deltas, block traces, memory contents and memory-access order
 * alike.
 *
 * Built only on public headers: the plan comes from
 * Executor::buildPlan, everything else from the ISA and device-memory
 * APIs. Linked by tests and benches only, never by src/.
 */

#ifndef GT_REFERENCE_INTERPRETER_HH
#define GT_REFERENCE_INTERPRETER_HH

#include <functional>
#include <memory>
#include <unordered_map>

#include "gpu/executor.hh"
#include "ocl/driver.hh"

namespace gt::reference
{

/** Per-access memory callback (global sends only, execution order). */
using MemAccessFn =
    std::function<void(uint64_t addr, uint32_t bytes, bool is_write)>;

/** Interprets dispatches one instruction at a time. */
class Interpreter
{
  public:
    Interpreter(const gpu::DeviceConfig &config,
                gpu::DeviceMemory &memory);
    ~Interpreter();

    /**
     * Execute @p dispatch and return its profile; same contract as
     * gpu::Executor::run, except that memory accesses go to
     * @p mem_access one by one (setting it forces Full mode).
     */
    gpu::ExecProfile run(const gpu::Dispatch &dispatch,
                         gpu::Executor::Mode mode,
                         gpu::TraceBuffer *trace = nullptr,
                         const MemAccessFn &mem_access = {});

    /** Same contract as gpu::Executor::blockTrace. */
    std::vector<uint32_t> blockTrace(const gpu::Dispatch &dispatch,
                                     uint64_t thread_idx,
                                     uint64_t max_len = 4'000'000);

  private:
    struct ThreadCtx;

    /** The executor's plan for @p bin, cached per binary. */
    const gpu::ExecPlan &plan(const isa::KernelBinary &bin);

    /** Run one hardware thread. @return its issue cycles. */
    double runThread(const gpu::Dispatch &dispatch, uint64_t thread_idx,
                     bool fast, const gpu::ExecPlan &plan,
                     std::vector<uint64_t> &block_counts,
                     std::vector<uint64_t> &trace_deltas,
                     const MemAccessFn &mem_access,
                     std::vector<uint32_t> *block_trace = nullptr,
                     uint64_t trace_max_len = 0);

    const gpu::DeviceConfig config;
    gpu::DeviceMemory &memory;
    /** The executor's defaults. */
    static constexpr uint64_t threadInstrLimit = 200'000'000;
    static constexpr uint64_t maxExplicitThreads = 1024;
    std::unique_ptr<ThreadCtx> ctxBuf;
    /** Keyed by binary address and generation, like the executor's
     * local plan map. */
    std::unordered_map<const isa::KernelBinary *,
                       std::pair<uint64_t, std::unique_ptr<gpu::ExecPlan>>>
        plans;
};

/**
 * Run one Full-mode dispatch of @p driver's kernel @p kernel_id on
 * @p interp (built over driver.config() and driver.memory()) in place
 * of the driver's executor, delivering every access to @p mem_access,
 * then notify the driver's observer (GT-Pin) as GpuDriver::execute
 * does. The reference side of whole-stack differentials; the result
 * carries the kernel id and profile, no modeled time.
 */
ocl::DispatchResult
executeOnDriver(ocl::GpuDriver &driver, Interpreter &interp,
                uint32_t kernel_id, uint64_t global_size,
                uint8_t simd_width, const std::vector<uint32_t> &args,
                const MemAccessFn &mem_access);

} // namespace gt::reference

#endif // GT_REFERENCE_INTERPRETER_HH
