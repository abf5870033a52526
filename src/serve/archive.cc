#include "serve/archive.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <sys/stat.h>
#include <sys/types.h>

#include "common/logging.hh"

namespace gt::serve
{

namespace
{

void
makeDirs(const std::string &path)
{
    std::string prefix;
    prefix.reserve(path.size());
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            prefix.push_back(path[i]);
            continue;
        }
        if (!prefix.empty() &&
            ::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
            fatal("cannot create archive directory '", prefix,
                  "': ", std::strerror(errno));
        }
        if (i < path.size())
            prefix.push_back('/');
    }
}

/** File-name-safe form of a workload name. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        out.push_back(ok ? c : '_');
    }
    return out.empty() ? std::string("session") : out;
}

std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

SessionArchive::SessionArchive(std::string directory)
    : dir(std::move(directory))
{
    makeDirs(dir);
    rows = readCatalog(dir);
}

std::string
SessionArchive::pathFor(uint64_t recording,
                        const std::string &workload) const
{
    std::ostringstream path;
    path << dir << "/r" << std::hex << std::setw(16)
         << std::setfill('0') << recording << "-"
         << sanitize(workload) << ".gtar";
    return path.str();
}

void
SessionArchive::record(const std::string &workload,
                       const std::string &path, uint64_t dispatches)
{
    std::string file = baseName(path);
    std::lock_guard<std::mutex> lock(mu);
    for (Entry &row : rows) {
        if (row.file == file) {
            row.workload = workload;
            row.dispatches = dispatches;
            writeCatalogLocked();
            return;
        }
    }
    rows.push_back(Entry{workload, file, dispatches});
    writeCatalogLocked();
}

std::vector<SessionArchive::Entry>
SessionArchive::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return rows;
}

std::string
SessionArchive::catalogPath() const
{
    return dir + "/catalog.tsv";
}

void
SessionArchive::writeCatalogLocked() const
{
    std::string tmp = catalogPath() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            fatal("cannot write archive catalog '", tmp, "'");
        for (const Entry &row : rows) {
            out << row.file << '\t' << row.dispatches << '\t'
                << row.workload << '\n';
        }
    }
    if (std::rename(tmp.c_str(), catalogPath().c_str()) != 0) {
        fatal("cannot publish archive catalog '", catalogPath(),
              "': ", std::strerror(errno));
    }
}

std::vector<SessionArchive::Entry>
SessionArchive::readCatalog(const std::string &directory)
{
    std::vector<Entry> entries;
    std::ifstream in(directory + "/catalog.tsv");
    if (!in)
        return entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        size_t tab1 = line.find('\t');
        size_t tab2 =
            tab1 == std::string::npos ? tab1 : line.find('\t', tab1 + 1);
        if (tab1 == std::string::npos || tab2 == std::string::npos) {
            fatal("malformed archive catalog line '", line, "' in '",
                  directory, "'");
        }
        Entry entry;
        entry.file = line.substr(0, tab1);
        entry.dispatches = (uint64_t)std::stoull(
            line.substr(tab1 + 1, tab2 - tab1 - 1));
        entry.workload = line.substr(tab2 + 1);
        entries.push_back(std::move(entry));
    }
    return entries;
}

} // namespace gt::serve
