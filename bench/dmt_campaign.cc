/**
 * @file
 * dmt-campaign — run the full workload x mechanism x environment
 * evaluation grid in parallel and merge the results into one
 * deterministic BENCH_campaign.json.
 *
 *   dmt-campaign [--threads N] [--out FILE] [--timing-json FILE]
 *                [--workloads A,B,...] [--envs native,virt,nested]
 *                [--designs vanilla,dmt,...] [--thp]
 *                [--scale N] [--accesses N] [--warmup N] [--seed N]
 *                [--events-dir DIR] [--list] [--quiet]
 *
 * Every cell runs on its own shared-nothing testbed with an RNG seed
 * derived from (base seed, cell identity), so the merged JSON is
 * byte-identical for any --threads value. Wall-clock measurements go
 * to the optional --timing-json sidecar (and the console summary),
 * never into the deterministic report.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "driver/campaign.hh"
#include "driver/cli.hh"
#include "obs/event_log.hh"
#include "obs/export.hh"

using namespace dmt;
using namespace dmt::driver;

namespace
{

struct Options
{
    unsigned threads = std::thread::hardware_concurrency();
    std::string out = "BENCH_campaign.json";
    std::string timingJson;
    CampaignConfig campaign;
    bool list = false;
    bool quiet = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--threads N] [--out FILE] [--timing-json FILE]\n"
        "          [--workloads A,B,...] [--envs native,virt,nested]\n"
        "          [--designs vanilla,shadow,fpt,ecpt,agile,asap,"
        "dmt,pvdmt]\n"
        "          [--thp] [--scale N] [--accesses N] [--warmup N]\n"
        "          [--seed N] [--events-dir DIR] [--list] [--quiet]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    if (opt.threads == 0)
        opt.threads = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto count = [&](std::uint64_t max = UINT64_MAX) {
            const auto v = parseCount(value(), max);
            if (!v)
                usage(argv[0]);
            return *v;
        };
        if (arg == "--threads")
            opt.threads = static_cast<unsigned>(count(UINT_MAX));
        else if (arg == "--out") opt.out = value();
        else if (arg == "--timing-json") opt.timingJson = value();
        else if (arg == "--workloads")
            opt.campaign.workloads = splitList(value());
        else if (arg == "--envs") {
            opt.campaign.envs.clear();
            for (const auto &e : splitList(value()))
                opt.campaign.envs.push_back(parseEnv(e));
        } else if (arg == "--designs") {
            for (const auto &d : splitList(value()))
                opt.campaign.designs.push_back(parseDesign(d));
        } else if (arg == "--thp") opt.campaign.includeThp = true;
        else if (arg == "--scale") {
            const auto scale = parseScale(value());
            if (!scale)
                usage(argv[0]);
            opt.campaign.scale = *scale;
        }
        else if (arg == "--accesses")
            opt.campaign.sim.measureAccesses = count();
        else if (arg == "--warmup")
            opt.campaign.sim.warmupAccesses = count();
        else if (arg == "--seed")
            opt.campaign.baseSeed = count();
        else if (arg == "--events-dir")
            opt.campaign.eventsDir = value();
        else if (arg == "--list") opt.list = true;
        else if (arg == "--quiet") opt.quiet = true;
        else usage(argv[0]);
    }
    if (opt.threads == 0)
        opt.threads = 1;
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const auto cells = enumerateCells(opt.campaign);
    if (cells.empty())
        fatal("campaign grid is empty; check --workloads/--envs/"
              "--designs");

    if (opt.list) {
        for (const auto &cell : cells) {
            std::printf("%-8s %-12s %-8s %s  seed=%llu\n",
                        envId(cell.env).c_str(),
                        cell.workload.c_str(),
                        designId(cell.design).c_str(),
                        cell.thp ? "thp" : "4k",
                        static_cast<unsigned long long>(cellSeed(
                            opt.campaign.baseSeed, cell)));
        }
        std::printf("%zu cells\n", cells.size());
        return 0;
    }

    if (!opt.quiet) {
        std::printf("dmt-campaign: %zu cells on %u thread(s), "
                    "scale 1/%.0f, %llu+%llu accesses/cell\n",
                    cells.size(), opt.threads,
                    1.0 / opt.campaign.scale,
                    static_cast<unsigned long long>(
                        opt.campaign.sim.warmupAccesses),
                    static_cast<unsigned long long>(
                        opt.campaign.sim.measureAccesses));
    }

    if (!opt.campaign.eventsDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.campaign.eventsDir,
                                            ec);
        if (ec)
            fatal("cannot create events dir '%s': %s",
                  opt.campaign.eventsDir.c_str(),
                  ec.message().c_str());
    }

    const auto start = std::chrono::steady_clock::now();
    auto progress = [&](const CellResult &res, std::size_t done,
                        std::size_t total) {
        if (opt.quiet)
            return;
        std::printf("[%3zu/%zu] %-8s %-12s %-8s %s  "
                    "%.3f cyc/access  %.1fs\n",
                    done, total, envId(res.spec.env).c_str(),
                    res.spec.workload.c_str(),
                    designId(res.spec.design).c_str(),
                    res.spec.thp ? "thp" : "4k",
                    res.outcome.sim.overheadPerAccess(),
                    res.outcome.wallSeconds);
        std::fflush(stdout);
    };
    const auto results =
        runCampaign(opt.campaign, opt.threads, progress);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    {
        std::ofstream os(opt.out, std::ios::binary);
        if (!os)
            fatal("cannot open '%s' for writing", opt.out.c_str());
        emitCampaignJson(os, opt.campaign, results);
        if (!os.good())
            fatal("error writing '%s'", opt.out.c_str());
    }
    if (!opt.campaign.eventsDir.empty()) {
        // One digest per cell file: the cross-thread determinism
        // witness (indexes from --threads 1 and --threads 4 runs must
        // be byte-identical).
        std::vector<obs::EventsIndexEntry> entries;
        for (const auto &res : results) {
            const std::string file = cellEventsFileName(res.spec);
            entries.push_back({file,
                               obs::fileDigest(opt.campaign.eventsDir +
                                               "/" + file)});
        }
        const std::string indexPath =
            opt.campaign.eventsDir + "/events_index.json";
        std::ofstream os(indexPath, std::ios::binary);
        if (!os)
            fatal("cannot open '%s' for writing", indexPath.c_str());
        obs::writeEventsIndexJson(os, entries);
        if (!os.good())
            fatal("error writing '%s'", indexPath.c_str());
        if (!opt.quiet)
            std::printf("wrote %zu event logs + %s\n", entries.size(),
                        indexPath.c_str());
    }
    if (!opt.timingJson.empty()) {
        std::ofstream os(opt.timingJson, std::ios::binary);
        if (!os)
            fatal("cannot open '%s' for writing",
                  opt.timingJson.c_str());
        emitTimingJson(os, opt.campaign, results, opt.threads,
                       wall.count());
        if (!os.good())
            fatal("error writing '%s'", opt.timingJson.c_str());
    }

    if (!opt.quiet) {
        std::uint64_t accesses = 0;
        for (const auto &res : results)
            accesses += res.outcome.sim.accesses;
        std::printf("campaign done: %zu cells in %.1fs "
                    "(%.0f simulated accesses/sec) -> %s\n",
                    results.size(), wall.count(),
                    static_cast<double>(accesses) / wall.count(),
                    opt.out.c_str());
    }
    return 0;
}
