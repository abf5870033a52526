/**
 * @file
 * Named on-disk archives for evicted workload sessions.
 *
 * When the profiling service evicts a session (see service.hh), its
 * sealed database must stay reachable — sealDatabase() on the
 * evicted session, or a later service pointed at the same directory,
 * has to find it again. The database's own spill file is unlinked as
 * soon as it is mapped, so evictions write *named* archive files
 * through this catalog:
 *
 *  - each archived session gets a stable file name derived from its
 *    recording's content hash and workload name inside one archive
 *    directory;
 *  - a small text catalog (catalog.tsv: file, dispatch count,
 *    workload name) is rewritten atomically (temp file + rename) on
 *    every change, so the directory is self-describing;
 *  - an existing catalog is loaded on construction, so a new service
 *    pointed at an old directory can enumerate what a previous run
 *    archived.
 *
 * The archive files themselves are ordinary GTCOLDB columnar trace
 * files, the sealed database's bytes as they were
 * (TraceDatabase::writeArchive / TraceDatabase::openColumnarFile) —
 * the catalog never parses them, it only names them.
 *
 * Thread safety: all methods are internally locked; concurrent
 * evictions from different service threads may record entries at
 * once.
 */

#ifndef GT_SERVE_ARCHIVE_HH
#define GT_SERVE_ARCHIVE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gt::serve
{

/** Catalog of archived sessions in one directory (see file
 * comment). */
class SessionArchive
{
  public:
    /** One catalog row. */
    struct Entry
    {
        std::string workload; //!< session name (informational)
        std::string file;     //!< archive file name inside dir
        uint64_t dispatches = 0;
    };

    /** Create (mkdir -p) @p directory and load any existing
     * catalog. */
    explicit SessionArchive(std::string directory);

    SessionArchive(const SessionArchive &) = delete;
    SessionArchive &operator=(const SessionArchive &) = delete;

    const std::string &directory() const { return dir; }

    /** Full path the archive of the session of recording hash
     * @p recording, named @p workload, is written to. A pure
     * function of the two, so the same session always maps to the
     * same file. */
    std::string pathFor(uint64_t recording,
                        const std::string &workload) const;

    /** Record (or update) the catalog row for @p path and rewrite
     * the catalog file atomically. */
    void record(const std::string &workload, const std::string &path,
                uint64_t dispatches);

    /** Snapshot of the catalog rows. */
    std::vector<Entry> entries() const;

    /** Catalog rows of @p directory without constructing an archive
     * (empty when no catalog exists). */
    static std::vector<Entry> readCatalog(const std::string &directory);

  private:
    std::string catalogPath() const;
    void writeCatalogLocked() const;

    std::string dir;
    mutable std::mutex mu;
    std::vector<Entry> rows;
};

} // namespace gt::serve

#endif // GT_SERVE_ARCHIVE_HH
