/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: run options,
 * output checks, content digests, benchmark-side spans and the
 * per-workload interface.
 *
 * The benchmark measures the libraries from outside: every number comes
 * from timing calls into the public functions of src/core, src/serve,
 * src/cfl and src/gpu, from their public stats accessors, and from
 * getrusage(). Spans are recorded here, around those calls, never
 * inside the libraries.
 *
 * The binary prints machine-readable lines; perfbench/run.py turns
 * them into the report and the final JSON line:
 *
 *     M <name> <value>                      one metric
 *     S <span> <count> <total_s> <self_s>   per-pass span time
 *     I <key> <value>                       run stamp / info
 *     C <attempted> <failed>                output-check totals
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfl/recorder.hh"
#include "core/detailed_validator.hh"
#include "core/pipeline.hh"
#include "core/selection.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny configuration for the benchmark's own test: a few small
     * apps, one pass, results kept apart from full runs. */
    bool tiny = false;
    /** Replace one serialized recording with a truncated copy (the
     * benchmark's own test checks it counts once as a failure). */
    bool injectMalformed = false;
    /** Directory for scratch files (service archives). */
    std::string workDir = ".";
    /** Chrome trace-event output (trace mode; empty = none). */
    std::string tracePath;
    /** Cross-process digest ledger (empty = none). */
    std::string digestPath;
};

double nowSeconds();

/** Counts checked operations and the ones that failed. */
class Checks
{
  public:
    /** One attempted operation; @p ok false counts it failed and
     * logs @p what to stderr. */
    void expect(bool ok, const std::string &what);

    uint64_t attempted() const { return tried; }
    uint64_t failed() const { return bad; }

  private:
    uint64_t tried = 0;
    uint64_t bad = 0;
};

/** FNV-1a over the bit patterns of the values fed in. */
class Digest
{
  public:
    Digest &
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
        return *this;
    }

    template <typename T>
    Digest &
    add(const T &value)
    {
        return bytes(&value, sizeof(T));
    }

    Digest &add(const std::string &s) { return bytes(s.data(), s.size()); }

    Digest &add(const gt::core::SubsetSelection &sel);
    Digest &add(const gt::core::DetailedValidator::Report &report);

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/**
 * Digests keyed by what produced them. Within a process a key must
 * always map to the same digest (passes, tenants and set-ups repeat
 * work); across processes the ledger file carries the keys over, so
 * a later run with the same inputs must reproduce them exactly.
 */
class DigestBook
{
  public:
    /** Load the ledger at @p path (missing file = empty). */
    explicit DigestBook(std::string path);

    /** Record @p digest under @p key; counts one check that it
     * equals every earlier digest of that key. */
    void check(const std::string &key, uint64_t digest, Checks &checks);

    /** Append keys first seen in this process to the ledger. */
    void save() const;

  private:
    std::string file;
    std::map<std::string, uint64_t> known;
    std::map<std::string, uint64_t> fresh;
};

/**
 * Benchmark-side spans. While enabled, Scope records (name, start,
 * end, parent, pass) for the calls it brackets; all spans are taken
 * on the single client thread, so children nest strictly inside
 * their parent and a span's self time is its duration minus its
 * direct children's.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start, end;
        int parent; //!< index into spans(), -1 = root
        unsigned pass;
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t;
        int index;
    };

    void setPass(unsigned pass, bool enabled);
    bool enabled() const { return on; }

    const std::vector<Span> &spans() const { return all; }

    /** Per span name: count, total and self seconds of @p pass. */
    struct Totals
    {
        uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Totals> totals(unsigned pass) const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;

  private:
    std::vector<Span> all;
    int open = -1;
    unsigned passId = 0;
    bool on = false;
    double origin = nowSeconds();
};

/** Wall clock, getrusage() and peak resident set of one pass. */
class PassClock
{
  public:
    /** Starts the clock and resets the kernel's resident-set
     * high-water mark (VmHWM), so peakRssMb() covers this pass. */
    PassClock();

    /** End the timed part (idempotent). */
    void stop();

    double seconds() const { return wall; }
    double userSeconds() const { return user; }
    double sysSeconds() const { return sys; }
    double minorFaults() const { return faults; }
    double peakRssMb() const { return peakMb; }
    /** Resident set when the pass started. */
    double baseRssMb() const { return baseMb; }
    /** Share of all CPUs' time the hypervisor gave to other guests
     * during the pass (/proc/stat steal); host noise, not our work. */
    double stealShare() const { return steal; }

  private:
    double start;
    double user0, sys0, faults0, steal0, ticks0;
    double wall = 0.0, user = 0.0, sys = 0.0, faults = 0.0;
    double baseMb = 0.0, peakMb = 0.0, steal = 0.0;
    bool done = false;
};

/** Everything a pass reports back to main(). */
struct PassOut
{
    /** Seconds of each step of the pass (a stage of an app, a
     * validator call, a wave), in the same order every pass; together they take the
     * whole pass. wall_s sums each step's fastest time over the run's
     * passes. */
    std::vector<double> stepSeconds;
    /** Named values of this pass (per-layer and workload-specific
     * end-to-end metrics); main() reports their median over
     * passes. */
    std::map<std::string, double> values;
};

/** One benchmark workload. */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Build the inputs from the seed (called several times; each
     * call replaces the previous inputs). Digests of what set-up
     * produced go to @p book so repeated set-ups are checked. */
    virtual void setup(const Options &opts, DigestBook &book,
                       Checks &checks) = 0;

    /** One measured pass, timed from the call until
     * @p clock.stop(); output checks that need extra work run after
     * stop(), outside the pass time. */
    virtual PassOut pass(unsigned pass_id, PassClock &clock,
                         Tracer &tracer, DigestBook &book,
                         Checks &checks) = 0;
};

std::unique_ptr<Workload> makeSuiteSelect();
std::unique_ptr<Workload> makeDetailSweep();
std::unique_ptr<Workload> makeServeTenants();

/** The 25 applications in a fixed order. */
std::vector<std::string> suiteNames();

/** Profile the named apps concurrently (core::profileSuite). */
std::vector<gt::core::ProfiledApp>
profileApps(const std::vector<std::string> &names);

/** Serialize a recording to the v1 text format. */
std::string serialize(const gt::cfl::Recording &recording);

/**
 * Parse one serialized recording (the tenant-facing input path).
 * A malformed text counts one failed operation and yields nothing.
 */
std::optional<gt::cfl::Recording>
loadSerialized(const std::string &text, const std::string &what,
               Checks &checks);

/** A truncated copy of @p text that loadSerialized() must reject. */
std::string malformed(const std::string &text);

/** Median / linear-interpolated quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
