/**
 * @file
 * Quickstart: profile an OpenCL application with GT-Pin.
 *
 * Runs one of the bundled workloads natively on the modeled Intel
 * HD 4000, with GT-Pin's built-in tools attached, and prints the
 * kind of report the paper's Section IV derives from such runs:
 * API-call breakdown, program structure, dynamic work, instruction
 * mixes, and memory activity.
 *
 * Usage: quickstart [workload-name|all]
 *        (default cb-throughput-juliaset; "all" profiles the whole
 *        25-app suite concurrently via profileSuite() — thread count
 *        honors GT_THREADS)
 *
 * With GT_SERVE=N set, the workload is instead recorded once and
 * submitted to N tenants of the profiling service; the report shows
 * the shared-cache and session statistics.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/table.hh"
#include "core/pipeline.hh"
#include "serve/service.hh"

using namespace gt;

namespace
{

/** "all": profile the entire registry concurrently and summarize. */
int
profileWholeSuite()
{
    const std::vector<const workloads::Workload *> &apps =
        workloads::workloadSuite();
    std::cout << "Profiling all " << apps.size()
              << " applications concurrently on "
              << sched::ThreadPool::global().threadCount()
              << " threads (set GT_THREADS to change)...\n\n";

    std::vector<core::ProfiledApp> profiled =
        core::profileSuite(apps);

    TextTable table({"application", "invocations", "instructions",
                     "kernel time"});
    for (const core::ProfiledApp &app : profiled) {
        table.addRow({app.name,
                      std::to_string(app.db.numDispatches()),
                      humanCount((double)app.db.totalInstrs()),
                      fixed(app.db.totalSeconds(), 4) + " s"});
    }
    table.print(std::cout, "Suite profile (one native run per app)");
    return 0;
}

/** GT_SERVE=N: submit @p app's recording to N tenants of the
 * profiling service and report the shared-cache and selection
 * statistics. */
int
serveDemo(unsigned tenants, const workloads::Workload &app)
{
    std::cout << "Recording " << app.info().name
              << " and submitting it to " << tenants << " tenant"
              << (tenants == 1 ? "" : "s")
              << " of the profiling service...\n\n";
    core::ProfiledApp profiled = core::profileApp(app);

    serve::ProfilingService service;
    std::vector<serve::ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < tenants; ++t) {
        ids.push_back(
            service.openTenant("tenant-" + std::to_string(t)));
        service.submit(ids.back(), profiled.name,
                       profiled.recording);
    }
    service.drain();
    service.refreshAll();

    serve::ServiceStats st = service.stats();
    TextTable sharing({"metric", "value"});
    sharing.addRow({"tenants", std::to_string(st.tenants)});
    sharing.addRow({"workloads", std::to_string(st.workloads)});
    sharing.addRow({"recordings replayed",
                    std::to_string(st.replays)});
    sharing.addRow({"shared-session hits",
                    std::to_string(st.artifactHits)});
    sharing.addRow({"kernel plans built",
                    std::to_string(st.planCache.builds)});
    sharing.addRow({"kernel plan hits",
                    std::to_string(st.planCache.hits)});
    sharing.addRow({"dispatches sealed",
                    std::to_string(st.sessions.dispatches)});
    sharing.addRow({"configs clustered",
                    std::to_string(st.sessions.reclustered)});
    sharing.addRow({"selections from memo",
                    std::to_string(st.sessions.reusedSelections)});
    sharing.print(std::cout,
                  "Cross-tenant sharing (content-addressed)");
    std::cout << "\n";

    // Every tenant shares one session; show its selections.
    serve::WorkloadSession &session = service.session(ids[0], 0);
    const serve::ServiceConfig &cfg = service.config();
    TextTable sel({"scheme", "intervals", "selected", "sim fraction",
                   "speedup"});
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const core::SubsetSelection &s = session.selection(c);
        sel.addRow({core::intervalSchemeName(s.scheme),
                    std::to_string(s.intervals.size()),
                    std::to_string(s.selected.size()),
                    pct(s.selectionFraction()),
                    fixed(s.speedup(), 1) + "x"});
    }
    sel.print(std::cout, "Session selections (feature BB)");
    return 0;
}

void
printUsage(std::ostream &os)
{
    os << "Usage: quickstart [workload-name|all]\n"
          "\n"
          "Profiles one bundled OpenCL workload (default\n"
          "cb-throughput-juliaset) on the modeled Intel HD 4000 with\n"
          "GT-Pin attached, or the whole suite with \"all\".\n"
          "\n"
          "Environment:\n"
          "  GT_SERVE=N             Instead of one batch profile,\n"
          "                         record the workload and submit it\n"
          "                         to N tenants of the profiling\n"
          "                         service: identical recordings\n"
          "                         share one session by content\n"
          "                         hash, replayed and clustered once,\n"
          "                         whose selections are bitwise\n"
          "                         identical to a one-shot batch\n"
          "                         selection.\n"
          "  GT_THREADS=N           Worker threads for \"all\" and for\n"
          "                         service replays (default:\n"
          "                         hardware concurrency).\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        printUsage(std::cout);
        return 0;
    }
    std::string name =
        argc > 1 ? argv[1] : "cb-throughput-juliaset";
    if (name == "all")
        return profileWholeSuite();
    const workloads::Workload *app = workloads::findWorkload(name);
    if (!app) {
        std::cerr << "unknown workload '" << name << "'; available:\n";
        for (const auto *w : workloads::workloadSuite())
            std::cerr << "  " << w->info().name << "\n";
        return 1;
    }

    if (const char *serve_env = std::getenv("GT_SERVE")) {
        int tenants = std::atoi(serve_env);
        if (tenants <= 0) {
            std::cerr << "GT_SERVE must be a positive tenant "
                         "count, got '" << serve_env << "'\n";
            return 1;
        }
        return serveDemo((unsigned)tenants, *app);
    }

    std::cout << "Profiling " << name << " ("
              << app->info().suite << ", " << app->info().domain
              << ") on the modeled Intel HD 4000...\n\n";

    core::ProfiledApp profiled = core::profileApp(*app);
    const core::AppCharacterization &st = profiled.stats;

    TextTable calls({"metric", "value"});
    calls.addRow({"total API calls",
                  std::to_string(st.totalApiCalls)});
    calls.addRow({"kernel calls", pct(st.fracKernel)});
    calls.addRow({"synchronization calls", pct(st.fracSync)});
    calls.addRow({"other calls", pct(st.fracOther)});
    calls.print(std::cout, "OpenCL API calls (host, CoFluent)");
    std::cout << "\n";

    TextTable work({"metric", "value"});
    work.addRow({"unique kernels",
                 std::to_string(st.uniqueKernels)});
    work.addRow({"unique basic blocks",
                 std::to_string(st.uniqueBlocks)});
    work.addRow({"kernel invocations",
                 std::to_string(st.kernelInvocations)});
    work.addRow({"basic block executions",
                 humanCount((double)st.blockExecs)});
    work.addRow({"dynamic instructions",
                 humanCount((double)st.dynInstrs)});
    work.addRow({"bytes read", humanBytes((double)st.bytesRead)});
    work.addRow({"bytes written",
                 humanBytes((double)st.bytesWritten)});
    work.addRow({"kernel time",
                 fixed(profiled.db.totalSeconds(), 4) + " s"});
    work.print(std::cout, "GPU work (device, GT-Pin)");
    std::cout << "\n";

    TextTable mix({"class", "share"});
    uint64_t total = 0;
    for (uint64_t c : st.classCounts)
        total += c;
    for (int c = 0; c < isa::numOpClasses; ++c) {
        if ((isa::OpClass)c == isa::OpClass::Instrumentation)
            continue;
        mix.addRow({isa::opClassName((isa::OpClass)c),
                    pct((double)st.classCounts[c] /
                        (double)total)});
    }
    mix.print(std::cout, "Instruction mix");
    std::cout << "\n";

    TextTable simd({"SIMD width", "share"});
    uint64_t stotal = 0;
    for (uint64_t c : st.simdCounts)
        stotal += c;
    for (int b = 0; b < 5; ++b) {
        simd.addRow({std::to_string(1 << b),
                     pct((double)st.simdCounts[b] /
                         (double)stotal)});
    }
    simd.print(std::cout, "SIMD widths");

    return 0;
}
