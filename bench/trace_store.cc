/**
 * @file
 * Columnar trace-store benchmark: resident memory and exploration
 * query throughput of the sealed (on-disk columnar) TraceDatabase
 * against the fully-resident rows it was sealed from
 * (reference::ResidentTrace, the oracle the tests compare it
 * against).
 *
 * A large deterministic synthetic suite (hundreds of thousands of
 * joined dispatches) is joined once into resident rows and once into
 * a sealed database, then both serve the paper's post-profiling
 * access pattern — interval division under all three schemes,
 * feature lowering and per-interval extraction, per-dispatch profile
 * scans, and a random mix of range queries — with every result
 * compared bitwise between the two. Two gates are enforced:
 *
 *  - resident memory must shrink by at least 5x once sealed (that
 *    reduction is the columnar store's reason to exist);
 *  - the columnar query phase must stay within 1.5x of the resident
 *    rows' wall clock.
 *
 *     cd /path/to/repo && build/bench/trace_store
 *
 * Pass --smoke for the smaller CI variant. Results land in
 * BENCH_tracedb.json (BENCH_tracedb.smoke.json under --smoke).
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <unordered_map>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "core/features.hh"
#include "core/interval.hh"
#include "core/trace_db.hh"
#include "reference/resident_trace.hh"

using namespace gt;
using core::TraceDatabase;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct Inputs
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
};

/** A deterministic joined suite shaped like the profiled CB apps:
 * a few dozen distinct kernels re-dispatched many times, small
 * per-kernel block vectors, syncs every handful of kernels. */
Inputs
makeInputs(uint64_t n)
{
    Rng rng(0xbadc0ffee);
    Inputs in;
    in.profiles.reserve(n);
    in.timings.reserve(n);
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t kernel = (uint32_t)(rng.next() % 48);
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = kernel;
        p.kernelName = "suite_kernel_" + std::to_string(kernel);
        p.globalWorkSize = 64 << (kernel % 6);
        p.argsHash = rng.next();
        p.args.resize(2 + kernel % 4);
        for (uint32_t &a : p.args)
            a = (uint32_t)rng.next();
        size_t blocks = 2 + kernel % 6;
        p.blockCounts.resize(blocks);
        p.blockLens.resize(blocks);
        p.blockReadBytes.resize(blocks);
        p.blockWriteBytes.resize(blocks);
        for (size_t b = 0; b < blocks; ++b) {
            p.blockCounts[b] = rng.next() % 50000;
            p.blockLens[b] = 4 + (uint32_t)(rng.next() % 28);
            p.instrs += p.blockCounts[b] * p.blockLens[b];
            p.blockReadBytes[b] = (uint32_t)(rng.next() % 2048);
            p.blockWriteBytes[b] = (uint32_t)(rng.next() % 2048);
            p.bytesRead += p.blockCounts[b] * p.blockReadBytes[b];
            p.bytesWritten += p.blockCounts[b] * p.blockWriteBytes[b];
        }
        in.profiles.push_back(std::move(p));

        cfl::KernelTiming t;
        t.seq = i;
        t.kernelName = in.profiles.back().kernelName;
        t.seconds = (double)(rng.next() >> 11) * 0x1.0p-53 * 1e-3;
        in.timings.push_back(t);

        ocl::ApiCallRecord call;
        call.callIndex = idx++;
        call.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        call.dispatchSeq = i;
        in.calls.push_back(call);
        if (rng.next() % 9 == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            in.calls.push_back(sync);
        }
    }
    return in;
}

/**
 * Divide the @p n dispatches of @p db into @p scheme's intervals
 * through the accessor API (buildIntervals()' boundary rules, with
 * the approx chunk size fixed at 1/1000 of the total).
 */
template <class DB>
std::vector<core::Interval>
divide(const DB &db, uint64_t n, core::IntervalScheme scheme)
{
    const uint64_t target =
        std::max<uint64_t>(1, db.totalInstrs() / 1000);
    std::vector<core::Interval> out;
    core::Interval cur;
    for (uint64_t i = 0; i < n; ++i) {
        bool boundary = scheme == core::IntervalScheme::SingleKernel ||
                        db.syncEpoch(i) != db.syncEpoch(cur.firstDispatch);
        if (scheme == core::IntervalScheme::ApproxInstructions)
            boundary = boundary || cur.instrs >= target;
        if (i > 0 && boundary) {
            out.push_back(cur);
            cur = core::Interval{};
            cur.firstDispatch = i;
        }
        cur.lastDispatch = i;
        cur.instrs += db.rangeInstrs(i, i);
        cur.seconds += db.seconds(i);
    }
    out.push_back(cur);
    return out;
}

/**
 * The FeatureEngine's work over the @p n dispatches of @p db, done
 * through the accessor API both sides share: lower every profile's
 * kernel and block keys into interned sparse columns (CSR over
 * dispatches) and rank them by key, as DispatchFeatureCache does,
 * then merge, sort and normalize each of @p kept's intervals over
 * the kernel and the block columns. Returns a checksum of the
 * normalized values.
 */
template <class DB>
double
lowerAndExtract(const DB &db, uint64_t n,
                const std::vector<core::Interval> &kept)
{
    using namespace core::detail;
    struct Stream
    {
        std::vector<uint64_t> offsets{0};
        std::vector<uint32_t> cols;
        std::vector<double> values;
    };
    Stream kernels, blocks;
    std::unordered_map<uint64_t, uint32_t> id_of;
    std::vector<uint64_t> keys;
    auto push = [&](Stream &stream, uint64_t key, double value) {
        if (value == 0.0)
            return;
        auto [it, fresh] = id_of.emplace(key, (uint32_t)keys.size());
        if (fresh)
            keys.push_back(key);
        stream.cols.push_back(it->second);
        stream.values.push_back(value);
    };
    for (uint64_t d = 0; d < n; ++d) {
        const gtpin::DispatchProfile &p = db.profileAt(d);
        p.checkShape();
        const double instrs = (double)p.instrs;
        push(kernels, mixFeatureKey(p.kernelId, 0, 0, tagBase), instrs);
        push(kernels, mixFeatureKey(p.kernelId, p.argsHash, 0, tagBase),
             instrs);
        push(kernels,
             mixFeatureKey(p.kernelId, 0, p.globalWorkSize, tagBase),
             instrs);
        push(kernels,
             mixFeatureKey(p.kernelId, p.argsHash, p.globalWorkSize,
                           tagBase),
             instrs);
        push(kernels, mixFeatureKey(p.kernelId, 0, 0, tagRead),
             (double)p.bytesRead);
        push(kernels, mixFeatureKey(p.kernelId, 0, 0, tagWrite),
             (double)p.bytesWritten);
        for (size_t b = 0; b < p.blockCounts.size(); ++b) {
            if (p.blockCounts[b] == 0)
                continue;
            const double count = (double)p.blockCounts[b];
            const double read = count * p.blockReadBytes[b];
            const double written = count * p.blockWriteBytes[b];
            push(blocks, mixFeatureKey(p.kernelId, b, 0, tagBase),
                 count * p.blockLens[b]);
            push(blocks, mixFeatureKey(p.kernelId, b, 0, tagRead), read);
            push(blocks, mixFeatureKey(p.kernelId, b, 0, tagWrite),
                 written);
            push(blocks, mixFeatureKey(p.kernelId, b, 0, tagReadWrite),
                 read + written);
        }
        kernels.offsets.push_back(kernels.cols.size());
        blocks.offsets.push_back(blocks.cols.size());
    }

    // Rank the columns so ascending column order is ascending key
    // order.
    std::vector<uint32_t> order(keys.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    std::vector<uint32_t> rank_of(keys.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank)
        rank_of[order[rank]] = rank;
    for (Stream *stream : {&kernels, &blocks}) {
        for (uint32_t &col : stream->cols)
            col = rank_of[col];
    }

    double checksum = 0.0;
    std::vector<double> acc(keys.size(), 0.0);
    std::vector<bool> seen(keys.size(), false);
    std::vector<uint32_t> touched;
    for (const Stream *stream : {&kernels, &blocks}) {
        for (const core::Interval &iv : kept) {
            touched.clear();
            for (uint64_t i = stream->offsets[iv.firstDispatch];
                 i < stream->offsets[iv.lastDispatch + 1]; ++i) {
                const uint32_t col = stream->cols[i];
                if (!seen[col]) {
                    seen[col] = true;
                    acc[col] = 0.0;
                    touched.push_back(col);
                }
                acc[col] += stream->values[i];
            }
            std::sort(touched.begin(), touched.end());
            double sum = 0.0;
            for (uint32_t col : touched)
                sum += acc[col];
            for (uint32_t col : touched) {
                checksum += acc[col] / sum;
                seen[col] = false;
            }
        }
    }
    return checksum;
}

/**
 * One pass of the post-profiling access pattern over the @p n
 * dispatches of @p db (a sealed database or builder rows, which share
 * the accessor API); returns a checksum folding every queried value,
 * so the two can be compared and the work cannot be
 * dead-code-eliminated.
 */
template <class DB>
double
queryPass(const DB &db, uint64_t n)
{
    double checksum = 0.0;

    // Interval division under all three schemes (prefix queries).
    std::vector<core::Interval> kept;
    for (core::IntervalScheme scheme :
         {core::IntervalScheme::SyncBounded,
          core::IntervalScheme::ApproxInstructions,
          core::IntervalScheme::SingleKernel}) {
        std::vector<core::Interval> intervals = divide(db, n, scheme);
        checksum += (double)intervals.size();
        for (const core::Interval &iv : intervals) {
            checksum += iv.seconds + (double)(iv.instrs % 1021);
        }
        if (scheme == core::IntervalScheme::ApproxInstructions)
            kept = std::move(intervals);
    }

    checksum += lowerAndExtract(db, n, kept);

    // The validators' sequential per-dispatch profile walk.
    for (uint64_t d = 0; d < n; ++d)
        checksum += (double)(db.profileAt(d).instrs % 4093);

    // Random range queries (fig6/fig8-style replay accounting).
    Rng rng(0x5eed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t first = rng.next() % n;
        uint64_t last =
            std::min(n - 1, first + rng.next() % 2048);
        checksum += (double)(db.rangeInstrs(first, last) % 8191) +
                    db.rangeSeconds(first, last);
    }
    checksum += db.totalSeconds() / (double)db.totalInstrs() +
                db.totalSeconds() + (double)(db.totalInstrs() % 65521);
    return checksum;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const bool smoke = bench::stripSmokeFlag(argc, argv);
    const uint64_t n = smoke ? 40000 : 250000;

    Inputs in = makeInputs(n);
    std::cout << "synthetic suite: " << n << " dispatches, "
              << in.calls.size() << " api calls\n";

    // "mem": the joined rows held resident; "columnar": build(), i.e.
    // the same join sealed into the spill.
    auto profiles = in.profiles;
    auto t0 = std::chrono::steady_clock::now();
    reference::ResidentTrace mem;
    for (core::DispatchRecord &row : TraceDatabase::join(
             std::move(profiles), in.timings, in.calls))
        mem.append(std::move(row));
    double mem_build_s = secondsSince(t0);
    profiles = in.profiles;
    t0 = std::chrono::steady_clock::now();
    TraceDatabase col = TraceDatabase::build(std::move(profiles),
                                             in.timings, in.calls);
    double col_build_s = secondsSince(t0);

    const uint64_t mem_resident = mem.memoryBytes();
    const core::TraceDbFootprint fc = col.memoryFootprint();
    const double shrink =
        (double)mem_resident / (double)fc.residentBytes;
    std::cout << "resident: mem " << humanBytes(mem_resident)
              << " -> columnar " << humanBytes(fc.residentBytes)
              << "  (" << fixed(shrink, 1) << "x smaller; spill "
              << humanBytes(fc.fileBytes) << " on disk)\n";

    // Alternating (mem, columnar) timed passes, keeping each side's
    // fastest: interleaving exposes both sides to the same host noise.
    // Every pass must reproduce its side's first checksum bitwise, and
    // the two sides must agree.
    constexpr int queryReps = 5;
    auto time_query = [&](const auto &db, int rep, double &best,
                          double &checksum) {
        auto t0 = std::chrono::steady_clock::now();
        double sum = queryPass(db, n);
        best = std::min(best, secondsSince(t0));
        if (rep == 0)
            checksum = sum;
        GT_ASSERT(sum == checksum, "query pass not deterministic");
    };

    double mem_sum = 0.0, col_sum = 0.0;
    double mem_query_s = 1e30, col_query_s = 1e30;
    for (int rep = 0; rep < queryReps; ++rep) {
        time_query(mem, rep, mem_query_s, mem_sum);
        time_query(col, rep, col_query_s, col_sum);
    }
    GT_ASSERT(mem_sum == col_sum,
              "columnar query results diverge from the mem oracle");

    const double ratio = col_query_s / mem_query_s;
    std::cout << "query pass: mem " << fixed(mem_query_s, 3)
              << " s, columnar " << fixed(col_query_s, 3) << " s  ("
              << fixed(ratio, 2) << "x; bitwise-equal checksums)\n"
              << "build: mem " << fixed(mem_build_s, 3)
              << " s, columnar " << fixed(col_build_s, 3) << " s\n";

    bench::BenchReport report("BENCH_tracedb.json", smoke);
    report.scalar("dispatches", n);
    report.scalar("mem_resident_bytes", mem_resident);
    report.scalar("columnar_resident_bytes", fc.residentBytes);
    report.scalar("columnar_file_bytes", fc.fileBytes);
    report.scalar("resident_shrink", shrink);
    report.scalar("mem_query_s", mem_query_s);
    report.scalar("columnar_query_s", col_query_s);
    report.scalar("query_ratio", ratio);
    report.scalar("mem_build_s", mem_build_s);
    report.scalar("columnar_build_s", col_build_s);
    report.gate("shrink_gate", shrink >= 5.0,
                "columnar resident-memory reduction regressed below "
                "5x: " + std::to_string(shrink));
    report.gate("query_gate", ratio <= 1.5,
                "columnar query throughput regressed beyond 1.5x of "
                "the mem oracle: " + std::to_string(ratio));
    return report.finish();
}
