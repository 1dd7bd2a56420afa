/**
 * @file
 * dmt-node — the multi-tenant host-density scenario: sweep tenants
 * per core over one node and report what register-file contention,
 * flush policy, and HATRIC coherence cost do to translation.
 *
 *   dmt-node [--threads N] [--out FILE] [--sweep 1,4,16,...]
 *            [--cores N] [--workloads A,B,...] [--env E]
 *            [--design D] [--thp] [--slice N] [--policy tagged|full]
 *            [--weighted] [--migrate N] [--pinned N] [--scale N]
 *            [--accesses N] [--warmup N] [--seed N]
 *            [--events-dir DIR] [--host-events FILE] [--quiet]
 *
 * Every sweep point is a shared-nothing HostNode whose tenant seeds
 * depend only on (base seed, tenant identity), so the JSON report is
 * byte-identical for any --threads value. --events-dir/--host-events
 * apply to a single-point sweep only (the event logs of different
 * points would collide on tenant names).
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "driver/cli.hh"
#include "host/sweep.hh"

using namespace dmt;
using namespace dmt::driver;
using namespace dmt::host;

namespace
{

struct Options
{
    unsigned threads = std::thread::hardware_concurrency();
    std::string out = "BENCH_node.json";
    NodeSweepConfig sweep;
    std::string eventsDir;
    std::string hostEvents;
    bool quiet = false;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    // Benchmark-scale defaults; tests use the struct defaults.
    opt.sweep.sim.warmupAccesses = 2'000;
    opt.sweep.sim.measureAccesses = 20'000;
    bool weighted = false;
    const Flags flags = {
        count("--threads", opt.threads),
        text("--out", "FILE", opt.out),
        list<unsigned>("--sweep", "N,...", opt.sweep.tenantsPerCore,
                       [](const std::string &n) {
                           return parseCount(n, 1, UINT_MAX);
                       }),
        // A host event record holds the core id in a byte.
        count("--cores", opt.sweep.cores, 1, 256),
        choices("--workloads", workloadNames(), opt.sweep.workloads),
        choice("--env", envNames(), opt.sweep.env),
        choice("--design", designNames(), opt.sweep.design),
        flag("--thp", opt.sweep.thp),
        count("--slice", opt.sweep.sliceAccesses),  // 0: run to completion
        choice("--policy",
               names<FlushPolicy>({FlushPolicy::Tagged, FlushPolicy::Full},
                                  flushPolicyId),
               opt.sweep.flush),
        flag("--weighted", weighted),
        count("--migrate", opt.sweep.migrateEveryRounds),
        count("--pinned", opt.sweep.pinnedRegisters),
        scale(opt.sweep.scale),
        count("--accesses", opt.sweep.sim.measureAccesses),
        count("--warmup", opt.sweep.sim.warmupAccesses),
        count("--seed", opt.sweep.baseSeed),
        text("--events-dir", "DIR", opt.eventsDir),
        text("--host-events", "FILE", opt.hostEvents),
        flag("--quiet", opt.quiet),
    };
    parseFlags(argc, argv, flags);
    opt.threads = std::max(opt.threads, 1u);
    if (weighted)
        opt.sweep.slice = SlicePolicy::Weighted;
    if ((!opt.eventsDir.empty() || !opt.hostEvents.empty()) &&
        opt.sweep.tenantsPerCore.size() != 1)
        usageError(argv[0], flags,
                   "--events-dir/--host-events need a single-point "
                   "--sweep (tenant event files would collide)");
    checkWritable(opt.out);

    if (!opt.quiet) {
        std::string grid;
        for (unsigned t : opt.sweep.tenantsPerCore) {
            if (!grid.empty())
                grid.append(",");
            grid.append(std::to_string(t));
        }
        std::printf("dmt-node: sweep {%s} tenants/core x %u core(s) "
                    "on %u thread(s), policy %s, slice %llu\n",
                    grid.c_str(), opt.sweep.cores, opt.threads,
                    flushPolicyId(opt.sweep.flush).c_str(),
                    static_cast<unsigned long long>(
                        opt.sweep.sliceAccesses));
    }

    if (!opt.eventsDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.eventsDir, ec);
        if (ec)
            fatal("cannot create events dir '%s': %s",
                  opt.eventsDir.c_str(), ec.message().c_str());
    }

    std::vector<NodePointResult> results;
    if (!opt.eventsDir.empty() || !opt.hostEvents.empty()) {
        // Single point with event logging: run the node directly so
        // the sink paths can be threaded through.
        HostNodeConfig node = nodeConfig(opt.sweep);
        node.eventsDir = opt.eventsDir;
        node.hostEventsPath = opt.hostEvents;
        const unsigned density = opt.sweep.tenantsPerCore.front();
        HostNode host(node, sweepTenants(opt.sweep, density));
        auto tenants = host.run();
        results.push_back(foldNodePoint(density, host.rounds(),
                                        std::move(tenants)));
    } else {
        auto progress = [&](const NodePointResult &point,
                            std::size_t done, std::size_t total) {
            if (opt.quiet)
                return;
            std::printf("[%zu/%zu] %3u tenants/core: %llu accesses, "
                        "%.3f walk cyc, hit rate %.3f, "
                        "%.3f host cyc/access\n",
                        done, total, point.tenantsPerCore,
                        static_cast<unsigned long long>(
                            point.accesses),
                        point.meanWalkLatency(),
                        point.registerHitRate(),
                        point.hostCyclesPerAccess());
            std::fflush(stdout);
        };
        results = runNodeSweep(opt.sweep, opt.threads, progress);
    }

    writeFile(opt.out, [&](std::ostream &os) {
        emitNodeJson(os, opt.sweep, results);
    });
    if (!opt.quiet)
        std::printf("node sweep done: %zu point(s) -> %s\n",
                    results.size(), opt.out.c_str());
    return 0;
}
