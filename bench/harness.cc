#include "bench/harness.hh"

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/logging.hh"

namespace gt::bench
{

namespace
{

std::mutex cacheMutex;
std::map<std::string, core::ProfiledApp> profileCache;
std::map<std::string, core::Exploration> explorationCache;

} // anonymous namespace

const std::vector<std::string> &
paperOrder()
{
    static const std::vector<std::string> order = [] {
        std::vector<std::string> names;
        for (const workloads::Workload *w :
             workloads::workloadSuite()) {
            names.push_back(w->info().name);
        }
        return names;
    }();
    return order;
}

const core::ProfiledApp &
profiledApp(const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = profileCache.find(name);
        if (it != profileCache.end())
            return it->second;
    }
    // Profile outside the lock: profileApp is self-contained, and
    // holding the mutex across it would serialize concurrent
    // callers. A racing duplicate profile is discarded by emplace.
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload ", name);
    core::ProfiledApp app = core::profileApp(*w);
    std::lock_guard<std::mutex> lock(cacheMutex);
    return profileCache.emplace(name, std::move(app)).first->second;
}

const core::Exploration &
exploration(const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = explorationCache.find(name);
        if (it != explorationCache.end())
            return it->second;
    }
    const core::ProfiledApp &app = profiledApp(name);
    core::Exploration ex = core::exploreConfigs(app.db);
    std::lock_guard<std::mutex> lock(cacheMutex);
    return explorationCache.emplace(name, std::move(ex))
        .first->second;
}

void
prefetchProfiles()
{
    std::vector<const workloads::Workload *> missing;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        for (const std::string &name : paperOrder()) {
            if (!profileCache.count(name))
                missing.push_back(workloads::findWorkload(name));
        }
    }
    if (missing.empty())
        return;
    std::vector<core::ProfiledApp> profiled =
        core::profileSuite(missing);
    std::lock_guard<std::mutex> lock(cacheMutex);
    for (core::ProfiledApp &app : profiled) {
        std::string name = app.name;
        profileCache.emplace(std::move(name), std::move(app));
    }
}

void
prefetchExplorations()
{
    prefetchProfiles();
    // exploreConfigs already fans its 30 configurations out on the
    // global pool; iterating apps serially here still keeps the pool
    // saturated while preserving the cache-fill order.
    for (const std::string &name : paperOrder())
        exploration(name);
}

bool
stripSmokeFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

namespace
{

/** Default-ostream number rendering (6 significant digits), shared
 * by rows and scalars so migrated BENCH files keep their format. */
template <typename T>
std::string
render(T value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

} // anonymous namespace

BenchReport::BenchReport(std::string file_name, bool smoke)
    : file(std::move(file_name))
{
    const std::string ext = ".json";
    if (smoke && file.ends_with(ext))
        file.insert(file.size() - ext.size(), ".smoke");
}

void
BenchReport::Row::key(const std::string &name)
{
    if (!body.empty())
        body += ", ";
    body += "\"" + name + "\": ";
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name,
                        const std::string &value)
{
    key(name);
    body += "\"" + value + "\"";
    return *this;
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name, const char *value)
{
    return field(name, std::string(value));
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name, double value)
{
    key(name);
    body += render(value);
    return *this;
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name, uint64_t value)
{
    key(name);
    body += render(value);
    return *this;
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name, int value)
{
    key(name);
    body += render(value);
    return *this;
}

BenchReport::Row &
BenchReport::Row::field(const std::string &name, bool value)
{
    key(name);
    body += value ? "true" : "false";
    return *this;
}

BenchReport::Row &
BenchReport::addRow(const std::string &array)
{
    for (auto &[name, rows] : arrays) {
        if (name == array) {
            rows.emplace_back();
            return rows.back();
        }
    }
    arrays.emplace_back(array, std::deque<Row>());
    arrays.back().second.emplace_back();
    return arrays.back().second.back();
}

void
BenchReport::scalar(const std::string &name, double value)
{
    scalars.emplace_back(name, render(value));
}

void
BenchReport::scalar(const std::string &name, uint64_t value)
{
    scalars.emplace_back(name, render(value));
}

void
BenchReport::scalar(const std::string &name, int value)
{
    scalars.emplace_back(name, render(value));
}

void
BenchReport::gate(const std::string &name, bool pass,
                  const std::string &fail_message)
{
    scalars.emplace_back(name,
                         pass ? "\"pass\"" : "\"fail\"");
    if (!pass) {
        std::cerr << "FAIL: " << fail_message << "\n";
        rc = 1;
    }
}

int
BenchReport::finish()
{
    std::ofstream json(file);
    json << "{\n";
    bool need_comma = false;
    for (const auto &[name, rows] : arrays) {
        if (need_comma)
            json << ",\n";
        json << "  \"" << name << "\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            json << "    {" << rows[i].body << "}"
                 << (i + 1 < rows.size() ? ",\n" : "\n");
        }
        json << "  ]";
        need_comma = true;
    }
    for (const auto &[name, value] : scalars) {
        if (need_comma)
            json << ",\n";
        json << "  \"" << name << "\": " << value;
        need_comma = true;
    }
    json << "\n}\n";
    std::cout << "wrote " << file << "\n";
    return rc;
}

} // namespace gt::bench
