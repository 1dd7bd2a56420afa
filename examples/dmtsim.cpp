/**
 * @file
 * dmtsim — the command-line driver: run any (workload, design,
 * environment, page mode) cell and print the full report.
 *
 *   dmtsim [--workload NAME] [--design NAME] [--env native|virt|
 *          nested] [--thp] [--scale N] [--accesses N] [--warmup N]
 *          [--seed N] [--audit[=N]] [--json FILE] [--events FILE]
 *          [--record-trace FILE | --trace FILE]
 *
 * The cell is a driver::Cell, as in dmt-campaign: at a cell's seed
 * from `dmt-campaign --list`, both write the same --events bytes.
 * --json writes schema dmtsim-cell-v1: identity, seed, the SimResult
 * counters and means, and coverage for DMT designs; unlike a campaign
 * entry it has no hit ratios, mpki, mechanism, shadow_exits or
 * hypercall fields.
 *
 * Examples:
 *   dmtsim --workload Redis --design pvdmt --env virt
 *   dmtsim --workload GUPS --design vanilla --env nested --thp
 *   dmtsim --workload BTree --record-trace btree.trc
 *   dmtsim --trace btree.trc --design dmt
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "driver/cell.hh"
#include "driver/cli.hh"
#include "driver/json.hh"

#include "check/invariant_auditor.hh"
#include "common/log.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/trace_file.hh"
#include "workloads/workloads.hh"

using namespace dmt;

namespace
{

struct Options
{
    std::string workload = "GUPS";
    std::string design = "vanilla";
    std::string env = "native";
    bool thp = false;
    double scale = 1.0 / 16.0;
    std::uint64_t accesses = 1'000'000;
    std::uint64_t warmup = 200'000;
    std::uint64_t seed = 42;
    std::string recordTrace;
    std::string traceFile;
    std::string jsonOut;
    std::string eventsOut;
    bool audit = false;
    std::uint64_t auditInterval = 0;  //!< 0 = final sweep only
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--workload Redis|Memcached|GUPS|BTree|Canneal|"
        "XSBench|Graph500]\n"
        "          [--design vanilla|shadow|fpt|ecpt|agile|asap|dmt|"
        "pvdmt]\n"
        "          [--env native|virt|nested] [--thp] [--scale N]\n"
        "          [--accesses N] [--warmup N] [--seed N]\n"
        "          [--audit[=N]] [--json FILE] [--events FILE]\n"
        "          [--record-trace FILE] [--trace FILE]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto count = [&](const std::string &text) {
            const auto v = driver::parseCount(text);
            if (!v)
                usage(argv[0]);
            return *v;
        };
        if (arg == "--workload") opt.workload = value();
        else if (arg == "--design") opt.design = value();
        else if (arg == "--env") opt.env = value();
        else if (arg == "--thp") opt.thp = true;
        else if (arg == "--scale") {
            const auto scale = driver::parseScale(value());
            if (!scale)
                usage(argv[0]);
            opt.scale = *scale;
        }
        else if (arg == "--accesses") opt.accesses = count(value());
        else if (arg == "--warmup") opt.warmup = count(value());
        else if (arg == "--seed") opt.seed = count(value());
        else if (arg == "--json") opt.jsonOut = value();
        else if (arg == "--events") opt.eventsOut = value();
        else if (arg.rfind("--events=", 0) == 0)
            opt.eventsOut = arg.substr(std::strlen("--events="));
        else if (arg == "--record-trace") opt.recordTrace = value();
        else if (arg == "--trace") opt.traceFile = value();
        else if (arg == "--audit") opt.audit = true;
        else if (arg.rfind("--audit=", 0) == 0) {
            opt.audit = true;
            opt.auditInterval =
                count(arg.substr(std::strlen("--audit=")));
        }
        else usage(argv[0]);
    }
    return opt;
}

void
report(const SimResult &res, double coverage)
{
    std::printf("\naccesses            %llu\n",
                static_cast<unsigned long long>(res.accesses));
    std::printf("L1 TLB hits         %llu (%.2f%%)\n",
                static_cast<unsigned long long>(res.l1TlbHits),
                100.0 * static_cast<double>(res.l1TlbHits) /
                    static_cast<double>(res.accesses));
    std::printf("STLB hits           %llu (%.2f%%)\n",
                static_cast<unsigned long long>(res.l2TlbHits),
                100.0 * static_cast<double>(res.l2TlbHits) /
                    static_cast<double>(res.accesses));
    std::printf("page walks          %llu\n",
                static_cast<unsigned long long>(res.walks));
    std::printf("mean walk latency   %.2f cycles\n",
                res.meanWalkLatency());
    std::printf("dependent refs/walk %.2f\n", res.meanSeqRefs());
    std::printf("parallel refs/walk  %.2f\n",
                res.walks ? static_cast<double>(res.parallelRefs) /
                                static_cast<double>(res.walks)
                          : 0.0);
    std::printf("walk overhead       %.3f cycles/access\n",
                res.overheadPerAccess());
    std::printf("fallback walks      %llu\n",
                static_cast<unsigned long long>(res.fallbacks));
    if (coverage >= 0.0)
        std::printf("register coverage   %.2f%%\n", coverage * 100);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    auto wl = makeWorkload(opt.workload, opt.scale);
    const Design design = driver::parseDesign(opt.design);

    if (!opt.recordTrace.empty()) {
        // Record mode: lay out the workload, dump its trace, done.
        NativeTestbed tb(wl->footprintBytes(),
                         scaledTestbedConfig(opt.scale));
        wl->setup(tb.proc());
        auto trace = wl->trace(opt.seed);
        recordTrace(*trace, opt.warmup + opt.accesses,
                    opt.recordTrace);
        std::printf("recorded %llu accesses of %s to %s\n",
                    static_cast<unsigned long long>(opt.warmup +
                                                    opt.accesses),
                    opt.workload.c_str(), opt.recordTrace.c_str());
        return 0;
    }

    if (opt.env != "native" && opt.env != "virt" && opt.env != "nested")
        usage(argv[0]);

    std::printf("%s / %s / %s%s, working set %.2f GB (1/%.0f of the "
                "paper)\n",
                opt.workload.c_str(), opt.design.c_str(),
                opt.env.c_str(), opt.thp ? " +THP" : "",
                static_cast<double>(wl->footprintBytes()) /
                    (1ull << 30),
                1.0 / opt.scale);

    // Declared before the cell: subsystems unregister their audit
    // hooks on destruction, so the auditor must outlive them.
    InvariantAuditor auditor;
    if (opt.audit && opt.auditInterval) {
#ifndef DMT_ENABLE_AUDIT
        warn("--audit=%llu requested but interval sweeps are compiled "
             "out; configure with -DDMT_ENABLE_AUDIT=ON (a final "
             "sweep still runs)",
             static_cast<unsigned long long>(opt.auditInterval));
#endif
        auditor.setInterval(opt.auditInterval);
    }

    driver::CellOutcome out;
    {
        SimConfig simCfg;
        simCfg.warmupAccesses = opt.warmup;
        simCfg.measureAccesses = opt.accesses;
        std::unique_ptr<TraceSource> trace;
        if (!opt.traceFile.empty())
            trace = std::make_unique<FileTrace>(opt.traceFile);
        driver::Cell cell(*wl, driver::parseEnv(opt.env), design,
                          scaledTestbedConfig(opt.scale,
                                              opt.thp ? ThpMode::Always
                                                      : ThpMode::Never),
                          simCfg, opt.seed, opt.eventsOut,
                          std::move(trace));
        // Interval sweeps are meaningful only once the machine is in
        // a steady state: attach after set-up.
        if (opt.audit)
            cell.attachAuditor(auditor);
        cell.session().advance();
        // With --events, every access went to the file, whose footer
        // holds the run's counters: it verifies itself via
        // tools/events_check.
        out = cell.finish();
        if (!opt.eventsOut.empty()) {
            std::printf("wrote %llu events to %s\n",
                        static_cast<unsigned long long>(
                            cell.session().total()),
                        opt.eventsOut.c_str());
        }
        if (opt.audit) {
            auditor.sweep();
            // Teardown transients (freed VMAs, stale TLB entries)
            // are not violations; stop sweeping before destructors.
            auditor.setInterval(0);
        }
    }
    const SimResult &res = out.sim;
    // Only the DMT designs have register coverage to report.
    const double coverage =
        design == Design::Dmt || design == Design::PvDmt ? out.coverage
                                                          : -1.0;
    report(res, coverage);
    if (!opt.jsonOut.empty()) {
        std::ofstream os(opt.jsonOut, std::ios::binary);
        if (!os)
            fatal("cannot open '%s' for writing",
                  opt.jsonOut.c_str());
        JsonWriter json(os);
        json.beginObject();
        json.field("schema", "dmtsim-cell-v1");
        json.field("env", opt.env);
        json.field("workload", opt.workload);
        json.field("design", opt.design);
        json.field("thp", opt.thp);
        json.field("seed", opt.seed);
        json.field("accesses", res.accesses);
        json.field("l1_tlb_hits", res.l1TlbHits);
        json.field("stlb_hits", res.l2TlbHits);
        json.field("walks", res.walks);
        json.field("walk_cycles", res.walkCycles);
        json.field("mean_walk_latency", res.meanWalkLatency());
        json.field("overhead_per_access", res.overheadPerAccess());
        json.field("seq_refs", res.seqRefs);
        json.field("parallel_refs", res.parallelRefs);
        json.field("mean_seq_refs", res.meanSeqRefs());
        json.field("fallbacks", res.fallbacks);
        if (coverage >= 0.0)
            json.field("coverage", coverage);
        json.endObject();
        std::printf("wrote %s\n", opt.jsonOut.c_str());
    }
    if (opt.audit) {
        auditor.report();
        std::printf("audit               %llu sweeps, %llu hook runs, "
                    "%llu violations\n",
                    static_cast<unsigned long long>(
                        auditor.stats().sweeps),
                    static_cast<unsigned long long>(
                        auditor.stats().hooksRun),
                    static_cast<unsigned long long>(
                        auditor.stats().violations));
        if (!auditor.clean())
            return 3;
    }
    return 0;
}
