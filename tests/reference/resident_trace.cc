#include "reference/resident_trace.hh"

#include "common/logging.hh"

namespace gt::reference
{

void
ResidentTrace::append(core::DispatchRecord rec)
{
    rec.profile.checkShape();
    if (!records.empty()) {
        GT_ASSERT(rec.profile.seq > records.back().profile.seq,
                  "dispatch records out of order");
        GT_ASSERT(rec.syncEpoch >= records.back().syncEpoch,
                  "sync epochs out of order");
    }

    instrTotal += rec.profile.instrs;
    secondsTotal += rec.seconds;
    instrPrefix.push_back(instrPrefix.back() + rec.profile.instrs);
    secondsCol.push_back(rec.seconds);
    records.push_back(std::move(rec));
}

uint64_t
ResidentTrace::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    bytes += records.size() * sizeof(core::DispatchRecord);
    for (const core::DispatchRecord &rec : records) {
        bytes += rec.profile.footprintBytes() -
                 sizeof(gtpin::DispatchProfile);
    }
    bytes += instrPrefix.size() * sizeof(uint64_t);
    bytes += secondsCol.size() * sizeof(double);
    return bytes;
}

} // namespace gt::reference
