#include "gtpin/cache_sim.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace gt::gtpin
{

CacheModel::CacheModel(uint64_t size_bytes, uint32_t ways_,
                       uint32_t line_bytes)
    : ways(ways_)
{
    GT_ASSERT(line_bytes >= 4 && std::has_single_bit(line_bytes),
              "line size must be a power of two >= 4");
    GT_ASSERT(ways > 0, "associativity must be positive");
    GT_ASSERT(size_bytes >= (uint64_t)ways * line_bytes,
              "cache smaller than one set");
    lineShift = (uint32_t)std::countr_zero(line_bytes);
    uint64_t num_lines = size_bytes / line_bytes;
    sets = (uint32_t)(num_lines / ways);
    GT_ASSERT(sets > 0 && std::has_single_bit(sets),
              "set count must be a power of two (size ", size_bytes,
              ", ways ", ways, ", line ", line_bytes, ")");
    setShift = (uint32_t)std::countr_zero(sets);
    lines.resize((size_t)sets * ways);
    llb.resize(llbSize);
    setGen.resize(sets, 0);
}

CacheModel::Line &
CacheModel::probeLine(uint64_t line_addr, bool is_write)
{
    uint32_t set = (uint32_t)(line_addr & (sets - 1));
    uint64_t tag = line_addr >> setShift;
    Line *base = &lines[(size_t)set * ways];
    ++useClock;

    Line *victim = base;
    for (uint32_t w = 0; w < ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            line.dirty = line.dirty || is_write;
            ++hitCount;
            return line;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid &&
                   line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++missCount;
    ++setGen[set]; // the refill below invalidates LLB entries here
    if (victim->valid && victim->dirty)
        ++writebackCount;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    victim->dirty = is_write;
    return *victim;
}

bool
CacheModel::access(uint64_t addr, uint32_t bytes, bool is_write)
{
    GT_ASSERT(bytes > 0, "zero-byte access");
    uint64_t first = addr >> lineShift;
    uint64_t last = (addr + bytes - 1) >> lineShift;
    bool all_hit = true;
    for (uint64_t line = first; line <= last; ++line) {
        uint64_t hits_before = hitCount;
        probeLine(line, is_write);
        all_hit = all_hit && hitCount != hits_before;
    }
    return all_hit;
}

void
CacheModel::accessBatch(const gpu::MemBatch &batch)
{
    for (size_t i = 0; i < batch.count; ++i) {
        uint64_t addr = batch.addrs[i];
        uint32_t meta = batch.metas[i];
        bool is_write = gpu::MemBatch::isWrite(meta);
        uint64_t first = addr >> lineShift;
        uint64_t last =
            (addr + gpu::MemBatch::bytes(meta) - 1) >> lineShift;
        uint64_t line = first;
        do {
            LlbEntry &e = llb[line & (llbSize - 1)];
            uint32_t set = (uint32_t)(line & (sets - 1));
            if (e.lineAddr == line && e.gen == setGen[set]) {
                // Still resident: apply exactly a probe hit's
                // effects without scanning the set.
                ++useClock;
                ++hitCount;
                e.line->lastUse = useClock;
                e.line->dirty = e.line->dirty || is_write;
            } else {
                Line &ln = probeLine(line, is_write);
                e.lineAddr = line;
                e.line = &ln;
                e.gen = setGen[set]; // read after a possible bump
            }
        } while (++line <= last);
    }
}

void
CacheModel::reset()
{
    for (auto &line : lines)
        line = Line{};
    for (auto &e : llb)
        e = LlbEntry{};
    std::fill(setGen.begin(), setGen.end(), 0u);
    useClock = 0;
    hitCount = 0;
    missCount = 0;
    writebackCount = 0;
}

CacheSimTool::CacheSimTool(uint64_t size_bytes, uint32_t ways,
                           uint32_t line_bytes)
    : model(size_bytes, ways, line_bytes)
{
}

} // namespace gt::gtpin
