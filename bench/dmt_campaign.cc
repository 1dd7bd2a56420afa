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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
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

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const Flags flags = {
        count("--threads", opt.threads),
        text("--out", "FILE", opt.out),
        text("--timing-json", "FILE", opt.timingJson),
        choices("--workloads", workloadNames(), opt.campaign.workloads),
        choices("--envs", envNames(), opt.campaign.envs),
        choices("--designs", designNames(), opt.campaign.designs),
        flag("--thp", opt.campaign.includeThp),
        scale(opt.campaign.scale),
        count("--accesses", opt.campaign.sim.measureAccesses),
        count("--warmup", opt.campaign.sim.warmupAccesses),
        count("--seed", opt.campaign.baseSeed),
        text("--events-dir", "DIR", opt.campaign.eventsDir),
        flag("--list", opt.list),
        flag("--quiet", opt.quiet),
    };
    parseFlags(argc, argv, flags);
    opt.threads = std::max(opt.threads, 1u);
    const auto cells = enumerateCells(opt.campaign);
    if (cells.empty())
        usageError(argv[0], flags,
                   "no design of --designs is modelled in --envs");

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
    checkWritable(opt.out);
    if (!opt.timingJson.empty())
        checkWritable(opt.timingJson);

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

    writeFile(opt.out, [&](std::ostream &os) {
        emitCampaignJson(os, opt.campaign, results);
    });
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
        writeFile(indexPath, [&](std::ostream &os) {
            obs::writeEventsIndexJson(os, entries);
        });
        if (!opt.quiet)
            std::printf("wrote %zu event logs + %s\n", entries.size(),
                        indexPath.c_str());
    }
    if (!opt.timingJson.empty()) {
        writeFile(opt.timingJson, [&](std::ostream &os) {
            emitTimingJson(os, opt.campaign, results, opt.threads,
                           wall.count());
        });
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
