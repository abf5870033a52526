#include "core/interval.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gt::core
{

const char *
intervalSchemeName(IntervalScheme scheme)
{
    switch (scheme) {
      case IntervalScheme::SyncBounded: return "sync";
      case IntervalScheme::ApproxInstructions: return "approx-n";
      case IntervalScheme::SingleKernel: return "kernel";
      default:
        panic("invalid interval scheme ", (int)scheme);
    }
}

double
Interval::spi() const
{
    GT_ASSERT(instrs > 0, "SPI of an instruction-free interval");
    return seconds / (double)instrs;
}

std::vector<Interval>
buildIntervals(const TraceDatabase &db, IntervalScheme scheme,
               uint64_t target_instrs)
{
    const uint64_t num = db.numDispatches();
    GT_ASSERT(num > 0, "interval build on empty trace");
    if (target_instrs == 0)
        target_instrs = std::max<uint64_t>(1, db.totalInstrs() / 1000);

    std::vector<Interval> out;
    Interval cur;
    uint64_t cur_epoch = db.syncEpoch(0);
    const double *seconds = db.secondsData();
    for (uint64_t i = 0; i < num; ++i) {
        const uint64_t epoch = db.syncEpoch(i);
        bool boundary = false;
        switch (scheme) {
          case IntervalScheme::SyncBounded:
            boundary = epoch != cur_epoch;
            break;
          case IntervalScheme::ApproxInstructions:
            // Close at sync epochs always; otherwise once the chunk
            // has reached the target. A kernel invocation is never
            // split, so chunks may overshoot — that is the
            // "approximately" in the paper's name.
            boundary = epoch != cur_epoch || cur.instrs >= target_instrs;
            break;
          case IntervalScheme::SingleKernel:
            boundary = true;
            break;
        }
        if (i > 0 && boundary) {
            out.push_back(cur);
            cur = Interval{};
            cur.firstDispatch = i;
            cur_epoch = epoch;
        }
        // Left-to-right accumulation per interval — the FP order
        // rangeSeconds() uses over the same range, so the seconds
        // match it bitwise.
        cur.lastDispatch = i;
        cur.instrs += db.rangeInstrs(i, i);
        cur.seconds += seconds[i];
    }
    out.push_back(cur);
    return out;
}

IntervalStats
intervalStats(const std::vector<Interval> &intervals)
{
    IntervalStats stats;
    stats.count = intervals.size();
    if (intervals.empty())
        return stats;
    stats.minInstrs = intervals[0].instrs;
    stats.maxInstrs = intervals[0].instrs;
    double sum = 0.0;
    for (const Interval &iv : intervals) {
        stats.minInstrs = std::min(stats.minInstrs, iv.instrs);
        stats.maxInstrs = std::max(stats.maxInstrs, iv.instrs);
        sum += (double)iv.instrs;
    }
    stats.avgInstrs = sum / (double)intervals.size();
    return stats;
}

} // namespace gt::core
