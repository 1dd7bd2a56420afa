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

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "driver/cli.hh"
#include "host/sweep.hh"

using namespace dmt;
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

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--threads N] [--out FILE] [--sweep 1,4,16,...]\n"
        "          [--cores N] [--workloads A,B,...]\n"
        "          [--env native|virt|nested] [--design D] [--thp]\n"
        "          [--slice N (accesses; 0 = run-to-completion)]\n"
        "          [--policy tagged|full] [--weighted] [--migrate N]\n"
        "          [--pinned N] [--scale N] [--accesses N]\n"
        "          [--warmup N] [--seed N]\n"
        "          [--events-dir DIR] [--host-events FILE] [--quiet]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    // Benchmark-scale defaults; tests use the struct defaults.
    opt.sweep.sim.warmupAccesses = 2'000;
    opt.sweep.sim.measureAccesses = 20'000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto countOf = [&](const std::string &text,
                           std::uint64_t max = UINT64_MAX) {
            const auto v = driver::parseCount(text, max);
            if (!v)
                usage(argv[0]);
            return *v;
        };
        auto count = [&](std::uint64_t max = UINT64_MAX) {
            return countOf(value(), max);
        };
        if (arg == "--threads")
            opt.threads = static_cast<unsigned>(count(UINT_MAX));
        else if (arg == "--out") opt.out = value();
        else if (arg == "--sweep") {
            opt.sweep.tenantsPerCore.clear();
            for (const auto &t : driver::splitList(value()))
                opt.sweep.tenantsPerCore.push_back(
                    static_cast<unsigned>(countOf(t, UINT_MAX)));
        } else if (arg == "--cores")
            opt.sweep.cores = static_cast<unsigned>(count(UINT_MAX));
        else if (arg == "--workloads")
            opt.sweep.workloads = driver::splitList(value());
        else if (arg == "--env")
            opt.sweep.env = driver::parseEnv(value());
        else if (arg == "--design")
            opt.sweep.design = driver::parseDesign(value());
        else if (arg == "--thp") opt.sweep.thp = true;
        else if (arg == "--slice")
            opt.sweep.sliceAccesses = count();
        else if (arg == "--policy")
            opt.sweep.flush = parseFlushPolicy(value());
        else if (arg == "--weighted")
            opt.sweep.slice = SlicePolicy::Weighted;
        else if (arg == "--migrate")
            opt.sweep.migrateEveryRounds =
                static_cast<unsigned>(count(UINT_MAX));
        else if (arg == "--pinned")
            opt.sweep.pinnedRegisters = static_cast<int>(count(INT_MAX));
        else if (arg == "--scale") {
            const auto scale = driver::parseScale(value());
            if (!scale)
                usage(argv[0]);
            opt.sweep.scale = *scale;
        }
        else if (arg == "--accesses")
            opt.sweep.sim.measureAccesses = count();
        else if (arg == "--warmup")
            opt.sweep.sim.warmupAccesses = count();
        else if (arg == "--seed")
            opt.sweep.baseSeed = count();
        else if (arg == "--events-dir") opt.eventsDir = value();
        else if (arg == "--host-events") opt.hostEvents = value();
        else if (arg == "--quiet") opt.quiet = true;
        else usage(argv[0]);
    }
    if (opt.threads == 0)
        opt.threads = 1;
    if (opt.sweep.tenantsPerCore.empty())
        fatal("empty --sweep list");
    if ((!opt.eventsDir.empty() || !opt.hostEvents.empty()) &&
        opt.sweep.tenantsPerCore.size() != 1)
        fatal("--events-dir/--host-events need a single-point "
              "--sweep (tenant event files would collide)");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

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

    std::ofstream os(opt.out, std::ios::binary);
    if (!os)
        fatal("cannot open '%s' for writing", opt.out.c_str());
    emitNodeJson(os, opt.sweep, results);
    if (!os.good())
        fatal("error writing '%s'", opt.out.c_str());
    if (!opt.quiet)
        std::printf("node sweep done: %zu point(s) -> %s\n",
                    results.size(), opt.out.c_str());
    return 0;
}
