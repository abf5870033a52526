/**
 * @file
 * Device global memory and the trace buffer.
 *
 * DeviceMemory is a flat byte-addressed space with a bump allocator;
 * OpenCL buffers and images are carved out of it by the runtime.
 * TraceBuffer is the CPU/GPU-shared profiling area GT-Pin allocates at
 * initialization (Fig. 1): instrumentation instructions accumulate
 * into its slots during device execution and the CPU post-processor
 * reads them out afterwards.
 */

#ifndef GT_GPU_MEMORY_HH
#define GT_GPU_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"

namespace gt::gpu
{

/**
 * Flat device global memory with a bump allocator. The storage is
 * demand-zero (calloc): a driver's 64 MB image costs only the pages
 * its buffers touch, not an eager fault-in of the whole image.
 */
class DeviceMemory
{
  public:
    explicit DeviceMemory(uint64_t size_bytes);

    uint64_t size() const { return len; }

    /**
     * Allocate @p size bytes aligned to @p align; returns the device
     * address. Throws FatalError when out of memory.
     */
    uint64_t allocate(uint64_t size, uint64_t align = 64);

    /** Release all allocations (contents are preserved). */
    void resetAllocator();

    /** Bytes currently allocated. */
    uint64_t allocated() const { return bumpPtr; }

    // Scalar accessors are inline: they sit on the interpreters'
    // per-lane Send path, where an out-of-line call per access is
    // measurable against the predecoded uops' dispatch cost.
    uint8_t
    read8(uint64_t addr) const
    {
        checkRange(addr, 1);
        return bytes.get()[addr];
    }

    uint32_t
    read32(uint64_t addr) const
    {
        checkRange(addr, 4);
        uint32_t v;
        std::memcpy(&v, bytes.get() + addr, 4);
        return v;
    }

    void
    write8(uint64_t addr, uint8_t value)
    {
        checkRange(addr, 1);
        bytes.get()[addr] = value;
    }

    void
    write32(uint64_t addr, uint32_t value)
    {
        checkRange(addr, 4);
        std::memcpy(bytes.get() + addr, &value, 4);
    }

    /** Bulk host<->device transfer helpers. */
    void copyIn(uint64_t addr, const void *src, uint64_t size);
    void copyOut(uint64_t addr, void *dst, uint64_t size) const;
    void fill(uint64_t addr, uint8_t value, uint64_t size);

  private:
    void
    checkRange(uint64_t addr, uint64_t size) const
    {
        if (addr + size > len || addr + size < addr) {
            panic("device memory access out of bounds: addr ", addr,
                  " size ", size, " capacity ", len);
        }
    }

    struct FreeDeleter
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    std::unique_ptr<uint8_t, FreeDeleter> bytes;
    uint64_t len = 0;
    uint64_t bumpPtr = 0;
};

/**
 * The GT-Pin profiling buffer: an array of 64-bit accumulator slots
 * shared between the modeled GPU (instrumentation instructions add to
 * slots) and the host (tools read slots during post-processing).
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(uint32_t num_slots = 0) { resize(num_slots); }

    void resize(uint32_t num_slots) { slots.assign(num_slots, 0); }

    uint32_t size() const { return (uint32_t)slots.size(); }

    /** Grow (never shrink) to hold at least @p num_slots slots. */
    void reserveSlots(uint32_t num_slots);

    void add(uint32_t slot, uint64_t delta);

    uint64_t read(uint32_t slot) const;

    void clear();

    const std::vector<uint64_t> &raw() const { return slots; }

  private:
    std::vector<uint64_t> slots;
};

} // namespace gt::gpu

#endif // GT_GPU_MEMORY_HH
