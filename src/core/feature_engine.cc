#include "core/feature_engine.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace gt::core
{

DispatchFeatureCache::DispatchFeatureCache(const TraceDatabase &db)
{
    for (uint64_t d = 0; d < db.numDispatches(); ++d)
        appendDispatch(db.profileAt(d));
    refreshColumns();
}

void
DispatchFeatureCache::appendDispatch(
    const gtpin::DispatchProfile &p)
{
    using detail::mixFeatureKey;
    using detail::tagBase;
    using detail::tagRead;
    using detail::tagReadWrite;
    using detail::tagWrite;

    p.checkShape();

    // Interim column ids are assigned in first-encounter order and
    // never change, so already-lowered streams stay valid as more
    // dispatches arrive; refreshColumns() re-derives the ascending-
    // key ranks queries read through. Hash-colliding keys (however
    // unlikely at 64 bits) intern to one column, matching the map
    // oracle's merge of colliding contributions.
    auto intern = [&](uint64_t key) {
        auto [it, inserted] = idOf.emplace(key, (uint32_t)idOf.size());
        if (inserted) {
            internKeys.push_back(key);
            ranksStale = true;
        }
        return it->second;
    };

    auto push = [&](Stream &stream, uint64_t key, double value) {
        // Zero contributions are dropped exactly as the oracle's
        // add() drops them.
        if (value == 0.0)
            return;
        stream.cols.push_back(intern(key));
        stream.values.push_back(value);
    };

    double instrs = (double)p.instrs;
    push(streams[knBase],
         mixFeatureKey(p.kernelId, 0, 0, tagBase), instrs);
    push(streams[knArgsBase],
         mixFeatureKey(p.kernelId, p.argsHash, 0, tagBase),
         instrs);
    push(streams[knGwsBase],
         mixFeatureKey(p.kernelId, 0, p.globalWorkSize, tagBase),
         instrs);
    push(streams[knArgsGwsBase],
         mixFeatureKey(p.kernelId, p.argsHash, p.globalWorkSize,
                       tagBase),
         instrs);
    push(streams[knRw],
         mixFeatureKey(p.kernelId, 0, 0, tagRead),
         (double)p.bytesRead);
    push(streams[knRw],
         mixFeatureKey(p.kernelId, 0, 0, tagWrite),
         (double)p.bytesWritten);

    for (size_t b = 0; b < p.blockCounts.size(); ++b) {
        uint64_t count = p.blockCounts[b];
        if (count == 0)
            continue;
        double weighted = (double)count * p.blockLens[b];
        push(streams[bbBase],
             mixFeatureKey(p.kernelId, b, 0, tagBase), weighted);
        double read = (double)count * p.blockReadBytes[b];
        double written = (double)count * p.blockWriteBytes[b];
        push(streams[bbRead],
             mixFeatureKey(p.kernelId, b, 0, tagRead), read);
        push(streams[bbWrite],
             mixFeatureKey(p.kernelId, b, 0, tagWrite), written);
        push(streams[bbReadWrite],
             mixFeatureKey(p.kernelId, b, 0, tagReadWrite),
             read + written);
    }

    for (Stream &stream : streams)
        stream.offsets.push_back(stream.cols.size());
    ++numDispatches;
}

void
DispatchFeatureCache::refreshColumns()
{
    if (!ranksStale && colKeys.size() == internKeys.size())
        return;

    // Rank columns so that ascending rank order is ascending key
    // order — the map oracle's iteration order. Interned keys are
    // distinct, so the order (and thus every rank) is deterministic.
    std::vector<uint32_t> order((uint32_t)internKeys.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  return internKeys[a] < internKeys[b];
              });
    rankOf.resize(order.size());
    colKeys.resize(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
        rankOf[order[rank]] = rank;
        colKeys[rank] = internKeys[order[rank]];
    }
    ranksStale = false;
}

uint64_t
DispatchFeatureCache::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    for (const Stream &stream : streams) {
        bytes += stream.offsets.size() * sizeof(uint64_t);
        bytes += stream.cols.size() * sizeof(uint32_t);
        bytes += stream.values.size() * sizeof(double);
    }
    // Hash-node estimate for the intern map: pair plus bucket link.
    bytes += idOf.size() * (sizeof(uint64_t) + sizeof(uint32_t) +
                            2 * sizeof(void *));
    bytes += internKeys.size() * sizeof(uint64_t);
    bytes += rankOf.size() * sizeof(uint32_t);
    bytes += colKeys.size() * sizeof(uint64_t);
    return bytes;
}

std::array<DispatchFeatureCache::StreamId, 3>
DispatchFeatureCache::streamsFor(FeatureKind kind, int &count)
{
    switch (kind) {
      case FeatureKind::KN:
        count = 1;
        return {knBase, knBase, knBase};
      case FeatureKind::KN_ARGS:
        count = 1;
        return {knArgsBase, knArgsBase, knArgsBase};
      case FeatureKind::KN_GWS:
        count = 1;
        return {knGwsBase, knGwsBase, knGwsBase};
      case FeatureKind::KN_ARGS_GWS:
        count = 1;
        return {knArgsGwsBase, knArgsGwsBase, knArgsGwsBase};
      case FeatureKind::KN_RW:
        count = 2;
        return {knBase, knRw, knRw};
      case FeatureKind::BB:
        count = 1;
        return {bbBase, bbBase, bbBase};
      case FeatureKind::BB_R:
        count = 2;
        return {bbBase, bbRead, bbRead};
      case FeatureKind::BB_W:
        count = 2;
        return {bbBase, bbWrite, bbWrite};
      case FeatureKind::BB_R_W:
        count = 3;
        return {bbBase, bbRead, bbWrite};
      case FeatureKind::BB_RpW:
        count = 2;
        return {bbBase, bbReadWrite, bbReadWrite};
      default:
        panic("invalid feature kind ", (int)kind);
    }
}

void
DispatchFeatureCache::accumulate(const Interval &interval,
                                 FeatureKind kind,
                                 Scratch &scratch) const
{
    GT_ASSERT(interval.lastDispatch < numDispatches,
              "interval out of range");
    GT_ASSERT(!ranksStale,
              "query on a stale cache: call refreshColumns() after "
              "appending dispatches");

    if (scratch.acc.size() != colKeys.size()) {
        scratch.acc.assign(colKeys.size(), 0.0);
        scratch.epoch.assign(colKeys.size(), 0);
        scratch.generation = 0;
    }
    if (++scratch.generation == 0) {
        // Generation counter wrapped: reset the epoch marks.
        std::fill(scratch.epoch.begin(), scratch.epoch.end(), 0u);
        scratch.generation = 1;
    }
    scratch.touched.clear();

    int count = 0;
    std::array<StreamId, 3> list = streamsFor(kind, count);

    // Dispatch-major accumulation: per key, contributions combine in
    // dispatch-encounter order — the map oracle's per-key `+=`
    // order — with the base stream preceding the memory streams
    // within a dispatch just as the oracle emits them.
    for (uint64_t d = interval.firstDispatch;
         d <= interval.lastDispatch; ++d) {
        for (int s = 0; s < count; ++s) {
            const Stream &stream = streams[list[(size_t)s]];
            for (uint64_t i = stream.offsets[d];
                 i < stream.offsets[d + 1]; ++i) {
                uint32_t col = rankOf[stream.cols[i]];
                if (scratch.epoch[col] != scratch.generation) {
                    scratch.epoch[col] = scratch.generation;
                    scratch.acc[col] = stream.values[i];
                    scratch.touched.push_back(col);
                } else {
                    scratch.acc[col] += stream.values[i];
                }
            }
        }
    }

    // Ascending column order is ascending key order, the map
    // oracle's iteration order.
    std::sort(scratch.touched.begin(), scratch.touched.end());
}

FeatureVector
DispatchFeatureCache::extract(const Interval &interval,
                              FeatureKind kind,
                              Scratch &scratch) const
{
    accumulate(interval, kind, scratch);
    std::vector<uint64_t> keys;
    std::vector<double> values;
    keys.reserve(scratch.touched.size());
    values.reserve(scratch.touched.size());
    for (uint32_t col : scratch.touched) {
        keys.push_back(colKeys[col]);
        values.push_back(scratch.acc[col]);
    }
    return FeatureVector::fromSorted(std::move(keys),
                                     std::move(values));
}

simpoint::Point
DispatchFeatureCache::projectInto(
    const Interval &interval, FeatureKind kind, Scratch &scratch,
    const simpoint::ProjectionTable &table) const
{
    GT_ASSERT(table.size() == colKeys.size(),
              "projection table/cache key universe mismatch");
    accumulate(interval, kind, scratch);

    // Same FP order as FeatureVector::normalize() followed by
    // simpoint::project(): one ascending pass summing, then one
    // ascending pass dividing and accumulating per dimension.
    double sum = 0.0;
    for (uint32_t col : scratch.touched)
        sum += scratch.acc[col];
    simpoint::Point p{};
    for (uint32_t col : scratch.touched) {
        double v = scratch.acc[col];
        if (sum != 0.0)
            v /= sum;
        const simpoint::Point &row = table.rowAt(col);
        for (int d = 0; d < simpoint::projectedDims; ++d)
            p[d] += v * row[d];
    }
    return p;
}

FeatureEngine::FeatureEngine(const TraceDatabase &db_)
    : db(db_), cache(db),
      table(simpoint::ProjectionTable::build(cache.uniqueKeys()))
{
}

FeatureVector
FeatureEngine::extract(const Interval &interval,
                       FeatureKind kind) const
{
    DispatchFeatureCache::Scratch scratch;
    return cache.extract(interval, kind, scratch);
}

std::vector<FeatureVector>
FeatureEngine::extractAll(const std::vector<Interval> &intervals,
                          FeatureKind kind) const
{
    std::vector<FeatureVector> vectors;
    vectors.reserve(intervals.size());
    DispatchFeatureCache::Scratch scratch;
    for (const Interval &iv : intervals) {
        FeatureVector vec = cache.extract(iv, kind, scratch);
        vec.normalize();
        vectors.push_back(std::move(vec));
    }
    return vectors;
}

std::vector<simpoint::Point>
FeatureEngine::projectAll(const std::vector<Interval> &intervals,
                          FeatureKind kind) const
{
    std::vector<simpoint::Point> points;
    points.reserve(intervals.size());
    DispatchFeatureCache::Scratch scratch;
    for (const Interval &iv : intervals)
        points.push_back(cache.projectInto(iv, kind, scratch, table));
    return points;
}

} // namespace gt::core
