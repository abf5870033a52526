/**
 * @file
 * Fully resident joined rows: the bitwise oracle for the sealed,
 * columnar core::TraceDatabase.
 *
 * The rows stay in memory together with running totals, prefix sums
 * and a dense seconds column, all accumulated in append order — the
 * left-to-right FP order the sealed database derives its totals in.
 * The accessors mirror the TraceDatabase query API, so every sealed
 * accessor can be checked against the rows it was sealed from
 * (tests/test_tracedb_store.cc), and bench/trace_store times the
 * columnar query path against this resident one.
 */

#ifndef GT_REFERENCE_RESIDENT_TRACE_HH
#define GT_REFERENCE_RESIDENT_TRACE_HH

#include <vector>

#include "core/trace_db.hh"

namespace gt::reference
{

class ResidentTrace
{
  public:
    /**
     * Append one joined dispatch. Dispatches must arrive in
     * ascending seq order with non-decreasing sync epochs.
     */
    void append(core::DispatchRecord row);

    /** Dispatches appended so far. */
    uint64_t numDispatches() const { return records.size(); }

    /** The appended rows, in dispatch order. */
    const std::vector<core::DispatchRecord> &
    rows() const
    {
        return records;
    }

    const gtpin::DispatchProfile &
    profileAt(uint64_t i) const
    {
        return records[i].profile;
    }

    double seconds(uint64_t i) const { return records[i].seconds; }

    uint64_t
    syncEpoch(uint64_t i) const
    {
        return records[i].syncEpoch;
    }

    uint64_t totalInstrs() const { return instrTotal; }

    double totalSeconds() const { return secondsTotal; }

    /** Dynamic instructions of dispatches [first, last], both
     * inclusive (exact prefix-sum subtraction). */
    uint64_t
    rangeInstrs(uint64_t first, uint64_t last) const
    {
        return instrPrefix[last + 1] - instrPrefix[first];
    }

    /** Kernel seconds of [first, last], accumulated left-to-right
     * like TraceDatabase::rangeSeconds. */
    double
    rangeSeconds(uint64_t first, uint64_t last) const
    {
        double acc = 0.0;
        for (uint64_t i = first; i <= last; ++i)
            acc += secondsCol[i];
        return acc;
    }

    /** Resident bytes: joined records (including the profiles'
     * heap) and the prefix/seconds columns. */
    uint64_t memoryBytes() const;

  private:
    std::vector<core::DispatchRecord> records;
    std::vector<uint64_t> instrPrefix{0};
    std::vector<double> secondsCol;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
};

} // namespace gt::reference

#endif // GT_REFERENCE_RESIDENT_TRACE_HH
