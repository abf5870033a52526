#include "core/trace_db.hh"

#include <map>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/trace_store.hh"

namespace gt::core
{

TraceDatabase::TraceDatabase() = default;
TraceDatabase::~TraceDatabase() = default;
TraceDatabase::TraceDatabase(TraceDatabase &&) noexcept = default;
TraceDatabase &
TraceDatabase::operator=(TraceDatabase &&) noexcept = default;

std::vector<DispatchRecord>
TraceDatabase::join(std::vector<gtpin::DispatchProfile> profiles,
                    const std::vector<cfl::KernelTiming> &timings,
                    const std::vector<ocl::ApiCallRecord> &call_stream)
{
    GT_ASSERT(profiles.size() == timings.size(),
              "GT-Pin saw ", profiles.size(),
              " dispatches but CoFluent timed ", timings.size());

    std::vector<std::pair<uint64_t, uint64_t>> epochs =
        assignEpochs(call_stream);
    std::vector<DispatchRecord> rows(profiles.size());
    size_t next = 0; // both sides ascend by seq
    for (size_t i = 0; i < profiles.size(); ++i) {
        GT_ASSERT(profiles[i].seq == timings[i].seq,
                  "profile/timing sequence mismatch at index ", i);
        while (next < epochs.size() &&
               epochs[next].first < profiles[i].seq)
            ++next;
        GT_ASSERT(next < epochs.size() &&
                      epochs[next].first == profiles[i].seq,
                  "dispatch ", profiles[i].seq,
                  " missing from the host call stream");
        rows[i].profile = std::move(profiles[i]);
        rows[i].seconds = timings[i].seconds;
        rows[i].syncEpoch = epochs[next].second;
    }
    return rows;
}

std::vector<std::pair<uint64_t, uint64_t>>
TraceDatabase::assignEpochs(const std::vector<ocl::ApiCallRecord> &calls)
{
    std::map<uint64_t, uint64_t> epochOf; // by seq, so ascending
    uint64_t epoch = 0;
    bool has_work = false;
    for (const ocl::ApiCallRecord &call : calls) {
        switch (ocl::apiCategory(call.id)) {
          case ocl::ApiCategory::Kernel:
            epochOf[call.dispatchSeq] = epoch;
            has_work = true;
            break;
          case ocl::ApiCategory::Synchronization:
            if (has_work) {
                ++epoch;
                has_work = false;
            }
            break;
          default:
            break;
        }
    }
    return {epochOf.begin(), epochOf.end()};
}

TraceDatabase
TraceDatabase::fromRows(std::vector<DispatchRecord> rows,
                        uint32_t block_size)
{
    Builder builder;
    for (DispatchRecord &row : rows)
        builder.appendJoined(std::move(row));
    return builder.seal(block_size);
}

TraceDatabase
TraceDatabase::build(std::vector<gtpin::DispatchProfile> profiles,
                     const std::vector<cfl::KernelTiming> &timings,
                     const std::vector<ocl::ApiCallRecord> &call_stream,
                     uint32_t block_size)
{
    std::vector<DispatchRecord> rows =
        join(std::move(profiles), timings, call_stream);
    return fromRows(std::move(rows), block_size);
}

TraceDatabase
TraceDatabase::openColumnarFile(const std::string &path)
{
    TraceDatabase db;
    db.store = trace_store::ColumnarStore::openFile(path);
    db.count = db.store->numDispatches();
    db.instrTotal = db.store->totalInstrs();
    // Left-to-right over the raw double column — the identical FP
    // order the builder accumulated secondsTotal in, so the reopened
    // totals (and the cached SPI quotient) carry the same bits.
    const double *col = db.store->secondsData();
    for (uint64_t i = 0; i < db.count; ++i)
        db.secondsTotal += col[i];
    if (db.count > 0)
        db.syncEpochs = db.store->syncEpoch(db.count - 1) + 1;
    if (db.instrTotal > 0)
        db.spiCached = db.secondsTotal / (double)db.instrTotal;
    return db;
}

void
TraceDatabase::Builder::appendJoined(DispatchRecord rec)
{
    rec.profile.checkShape();

    // Dispatches must arrive in order with monotone epochs.
    if (!records.empty()) {
        GT_ASSERT(rec.profile.seq > records.back().profile.seq,
                  "dispatch records out of order");
        GT_ASSERT(rec.syncEpoch >= records.back().syncEpoch,
                  "sync epochs out of order");
    }

    // The running totals accumulate in append order — the one FP
    // order every path shares, which is what makes seal() after any
    // prefix bitwise equal to fromRows() over that prefix.
    instrTotal += rec.profile.instrs;
    secondsTotal += rec.seconds;
    instrPrefix.push_back(instrPrefix.back() + rec.profile.instrs);
    secondsCol.push_back(rec.seconds);
    records.push_back(std::move(rec));
}

uint64_t
TraceDatabase::Builder::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    bytes += records.size() * sizeof(DispatchRecord);
    for (const DispatchRecord &rec : records) {
        bytes += rec.profile.footprintBytes() -
                 sizeof(gtpin::DispatchProfile);
    }
    bytes += instrPrefix.size() * sizeof(uint64_t);
    bytes += secondsCol.size() * sizeof(double);
    return bytes;
}

void
TraceDatabase::Builder::writeArchive(const std::string &path,
                                     uint32_t block_size) const
{
    trace_store::ColumnarOptions options;
    options.blockSize = block_size;
    trace_store::ColumnarStore::writeFile(records, path, options);
}

TraceDatabase
TraceDatabase::Builder::seal(uint32_t block_size) const
{
    TraceDatabase db;
    db.count = records.size();
    db.instrTotal = instrTotal;
    db.secondsTotal = secondsTotal;
    if (db.instrTotal > 0)
        db.spiCached = db.secondsTotal / (double)db.instrTotal;
    // An empty database keeps no store — the count guards in the
    // accessors cover it.
    if (!records.empty()) {
        db.syncEpochs = records.back().syncEpoch + 1;
        trace_store::ColumnarOptions options;
        options.blockSize = block_size;
        db.store = trace_store::ColumnarStore::spill(records, options);
    }

    // One footprint line per process, at the first real build: the
    // paper's traces are collected once and queried many times, so
    // this is where the resident-memory story is decided.
    if (db.count > 0) {
        static const bool logged = [&db] {
            TraceDbFootprint fp = db.memoryFootprint();
            inform("trace db: ", humanCount(db.count), " dispatches, ",
                   humanBytes(fp.residentBytes), " resident (",
                   humanBytes(fp.columnBytes), " columns, ",
                   humanBytes(fp.profileBytes), " profiles; spill ",
                   humanBytes(fp.fileBytes), ")");
            return true;
        }();
        (void)logged;
    }
    return db;
}

const gtpin::DispatchProfile &
TraceDatabase::profileAt(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return store->profileAt(i);
}

double
TraceDatabase::seconds(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return store->seconds(i);
}

uint64_t
TraceDatabase::syncEpoch(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return store->syncEpoch(i);
}

uint64_t
TraceDatabase::rangeInstrs(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "instr range [", first, ", ", last, "] out of range");
    // Exact integers: anchor + varint-delta reconstruction makes
    // these the same prefix values the builder keeps.
    return store->instrPrefixAt(last + 1) - store->instrPrefixAt(first);
}

double
TraceDatabase::rangeSeconds(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "seconds range [", first, ", ", last, "] out of range");
    // Left-to-right over the dense column; the columnar file stores
    // the raw double bits, so the accumulation is bit-for-bit the
    // builder's sum.
    const double *col = secondsData();
    double acc = 0.0;
    for (uint64_t i = first; i <= last; ++i)
        acc += col[i];
    return acc;
}

const double *
TraceDatabase::secondsData() const
{
    return store ? store->secondsData() : nullptr;
}

double
TraceDatabase::measuredSpi() const
{
    GT_ASSERT(instrTotal > 0, "measured SPI of an empty database");
    return spiCached;
}

TraceDbFootprint
TraceDatabase::memoryFootprint() const
{
    TraceDbFootprint fp;
    if (store) {
        fp.columnBytes = store->residentBytes();
        fp.profileBytes = store->payloadBytes();
        fp.fileBytes = store->fileBytes();
        fp.cacheBytes = store->cacheBytesThisThread();
        fp.residentBytes = fp.columnBytes + fp.cacheBytes;
    }
    return fp;
}

} // namespace gt::core
