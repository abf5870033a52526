#include "gpu/memory.hh"

#include <cstring>

#include "common/logging.hh"

namespace gt::gpu
{

DeviceMemory::DeviceMemory(uint64_t size_bytes)
    : len(size_bytes)
{
    GT_ASSERT(size_bytes > 0, "device memory must be non-empty");
    bytes.reset((uint8_t *)std::calloc(size_bytes, 1));
    if (!bytes)
        fatal("cannot allocate ", size_bytes, " bytes of device memory");
}

uint64_t
DeviceMemory::allocate(uint64_t size, uint64_t align)
{
    GT_ASSERT(align > 0 && (align & (align - 1)) == 0,
              "alignment must be a power of two");
    if (size == 0)
        size = 1;
    uint64_t base = (bumpPtr + align - 1) & ~(align - 1);
    if (base + size > len) {
        fatal("device out of memory: need ", size, " bytes, ",
              len - bumpPtr, " free");
    }
    bumpPtr = base + size;
    return base;
}

void
DeviceMemory::resetAllocator()
{
    bumpPtr = 0;
}

void
DeviceMemory::copyIn(uint64_t addr, const void *src, uint64_t size)
{
    checkRange(addr, size);
    std::memcpy(bytes.get() + addr, src, size);
}

void
DeviceMemory::copyOut(uint64_t addr, void *dst, uint64_t size) const
{
    checkRange(addr, size);
    std::memcpy(dst, bytes.get() + addr, size);
}

void
DeviceMemory::fill(uint64_t addr, uint8_t value, uint64_t size)
{
    checkRange(addr, size);
    std::memset(bytes.get() + addr, value, size);
}

void
TraceBuffer::reserveSlots(uint32_t num_slots)
{
    if (num_slots > slots.size())
        slots.resize(num_slots, 0);
}

void
TraceBuffer::add(uint32_t slot, uint64_t delta)
{
    GT_ASSERT(slot < slots.size(), "trace buffer slot ", slot,
              " out of range (", slots.size(), " slots)");
    slots[slot] += delta;
}

uint64_t
TraceBuffer::read(uint32_t slot) const
{
    GT_ASSERT(slot < slots.size(), "trace buffer slot ", slot,
              " out of range (", slots.size(), " slots)");
    return slots[slot];
}

void
TraceBuffer::clear()
{
    std::fill(slots.begin(), slots.end(), 0);
}

} // namespace gt::gpu
