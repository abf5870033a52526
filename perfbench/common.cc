#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hh"
#include "cfl/serialize.hh"
#include "common/logging.hh"
#include "workloads/workload.hh"

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++tried;
    if (!ok) {
        ++bad;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

Digest &
Digest::add(const gt::core::SubsetSelection &sel)
{
    add((int)sel.scheme).add((int)sel.feature);
    for (const gt::core::Interval &iv : sel.intervals) {
        add(iv.firstDispatch).add(iv.lastDispatch).add(iv.instrs);
        add(iv.seconds);
    }
    for (uint64_t s : sel.selected)
        add(s);
    for (double r : sel.ratios)
        add(r);
    return add(sel.selectedInstrs).add(sel.totalInstrs);
}

Digest &
Digest::add(const gt::core::DetailedValidator::Report &report)
{
    return add(report.fullSpi)
        .add(report.projectedSpi)
        .add(report.errorPct)
        .add(report.fullWalked)
        .add(report.subsetWalked);
}

DigestBook::DigestBook(std::string path) : file(std::move(path))
{
    if (file.empty())
        return;
    std::ifstream in(file);
    std::string key;
    uint64_t digest;
    while (in >> key >> std::hex >> digest)
        known[key] = digest;
}

void
DigestBook::check(const std::string &key, uint64_t digest,
                  Checks &checks)
{
    auto it = known.find(key);
    if (it == known.end()) {
        known.emplace(key, digest);
        fresh.emplace(key, digest);
        checks.expect(true, key);
        return;
    }
    std::ostringstream what;
    what << "digest of " << key << " is " << std::hex << digest
         << ", earlier " << it->second;
    checks.expect(it->second == digest, what.str());
}

void
DigestBook::save() const
{
    if (file.empty() || fresh.empty())
        return;
    std::ofstream out(file, std::ios::app);
    for (const auto &[key, digest] : fresh)
        out << key << ' ' << std::hex << digest << '\n';
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : t(tracer), index(-1)
{
    if (!t.on)
        return;
    index = (int)t.all.size();
    t.all.push_back({name, nowSeconds(), 0.0, t.open, t.passId});
    t.open = index;
}

Tracer::Scope::~Scope()
{
    if (index < 0)
        return;
    t.all[index].end = nowSeconds();
    t.open = t.all[index].parent;
}

void
Tracer::setPass(unsigned pass, bool enabled)
{
    passId = pass;
    on = enabled;
}

std::map<std::string, Tracer::Totals>
Tracer::totals(unsigned pass) const
{
    std::vector<double> child(all.size(), 0.0);
    for (const Span &s : all) {
        if (s.pass == pass && s.parent >= 0)
            child[s.parent] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (s.pass != pass)
            continue;
        Totals &t = out[s.name];
        ++t.count;
        t.total += s.end - s.start;
        t.self += s.end - s.start - child[i];
    }
    return out;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out << std::fixed << std::setprecision(3);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.start - origin) * 1e6
            << ",\"dur\":" << (s.end - s.start) * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"pass\":" << s.pass << "}}";
    }
    out << "\n]}\n";
}

namespace
{

void
readUsage(double &user, double &sys, double &faults)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    user = (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    sys = (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    faults = (double)ru.ru_minflt;
}

/** A "Vm...:" field of /proc/self/status in MB (0 if absent). */
double
statusMb(const char *field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field, 0) == 0)
            return std::stod(line.substr(std::strlen(field))) / 1024.0;
    }
    return 0.0;
}

/** All CPUs' steal and total ticks from /proc/stat (0 if absent). */
void
readCpuTicks(double &steal, double &total)
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    steal = total = 0.0;
    double v;
    for (int field = 0; field < 8 && stat >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
}

} // anonymous namespace

PassClock::PassClock()
{
    // Hand memory freed by set-up and earlier passes back to the
    // kernel, so every pass starts from the same resident set; then
    // reset VmHWM to it ("5", Linux >= 4.0).
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    baseMb = statusMb("VmRSS:");
    readUsage(user0, sys0, faults0);
    readCpuTicks(steal0, ticks0);
    start = nowSeconds();
}

void
PassClock::stop()
{
    if (done)
        return;
    wall = nowSeconds() - start;
    readUsage(user, sys, faults);
    user -= user0;
    sys -= sys0;
    faults -= faults0;
    peakMb = statusMb("VmHWM:");
    double steal1, ticks1;
    readCpuTicks(steal1, ticks1);
    if (ticks1 > ticks0)
        steal = (steal1 - steal0) / (ticks1 - ticks0);
    done = true;
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const gt::workloads::Workload *w :
         gt::workloads::workloadSuite())
        names.push_back(w->info().name);
    return names;
}

std::vector<gt::core::ProfiledApp>
profileApps(const std::vector<std::string> &names)
{
    std::vector<const gt::workloads::Workload *> apps;
    for (const std::string &n : names)
        apps.push_back(gt::workloads::findWorkload(n));
    return gt::core::profileSuite(apps);
}

std::string
serialize(const gt::cfl::Recording &recording)
{
    std::ostringstream os;
    gt::cfl::saveRecording(recording, os);
    return os.str();
}

std::optional<gt::cfl::Recording>
loadSerialized(const std::string &text, const std::string &what,
               Checks &checks)
{
    std::istringstream is(text);
    try {
        gt::cfl::Recording recording = gt::cfl::loadRecording(is);
        checks.expect(true, what);
        return recording;
    } catch (const gt::FatalError &e) {
        checks.expect(false, "rejected recording " + what + ": " +
                                 e.what());
        return std::nullopt;
    }
}

std::string
malformed(const std::string &text)
{
    return text.substr(0, text.size() / 2);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (double)(v.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - (double)lo);
}

} // namespace perfbench
