/**
 * @file
 * Interval construction (the paper's Table II).
 *
 * The paper explores three ways of dividing a GPU program trace into
 * candidate simulation intervals, all respecting the hardware
 * designers' constraints that an interval is at least one whole
 * kernel invocation and never spans a synchronization call:
 *
 *   - SyncBounded: split at every OpenCL synchronization call
 *     (largest intervals);
 *   - ApproxInstructions: subdivide sync epochs into roughly
 *     N-instruction chunks without splitting a kernel invocation
 *     ("approximately 100M instructions" in the paper — N scales
 *     with our scaled-down workloads);
 *   - SingleKernel: every kernel invocation is its own interval
 *     (smallest intervals).
 */

#ifndef GT_CORE_INTERVAL_HH
#define GT_CORE_INTERVAL_HH

#include "core/trace_db.hh"

namespace gt::core
{

/** Table II's three interval-division schemes. */
enum class IntervalScheme : uint8_t
{
    SyncBounded,
    ApproxInstructions,
    SingleKernel,
};

constexpr int numIntervalSchemes = 3;

/** @return display name, e.g. "sync". */
const char *intervalSchemeName(IntervalScheme scheme);

/** A contiguous run of dispatches [first, last]. */
struct Interval
{
    uint64_t firstDispatch = 0;  //!< index into db.dispatches()
    uint64_t lastDispatch = 0;   //!< inclusive
    uint64_t instrs = 0;         //!< dynamic instructions inside
    double seconds = 0.0;        //!< summed kernel time inside

    uint64_t
    numDispatches() const
    {
        return lastDispatch - firstDispatch + 1;
    }

    /** Interval seconds-per-instruction. */
    double spi() const;
};

/**
 * Divide @p db into intervals under @p scheme.
 *
 * @param target_instrs for ApproxInstructions: the chunk size. The
 *        paper uses 100M for applications averaging 308 B
 *        instructions; pass roughly totalInstrs()/1000 to match that
 *        proportion on scaled workloads (0 = that default).
 *
 * Postconditions (verified by the property tests): intervals
 * partition the dispatch sequence, never span a sync epoch, and
 * each contains at least one whole kernel invocation.
 */
std::vector<Interval> buildIntervals(const TraceDatabase &db,
                                     IntervalScheme scheme,
                                     uint64_t target_instrs = 0);

/** Min/avg/max interval statistics for Table II. */
struct IntervalStats
{
    uint64_t count = 0;
    uint64_t minInstrs = 0;
    uint64_t maxInstrs = 0;
    double avgInstrs = 0.0;
};

IntervalStats intervalStats(const std::vector<Interval> &intervals);

} // namespace gt::core

#endif // GT_CORE_INTERVAL_HH
