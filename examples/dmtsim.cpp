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
    Design design = Design::Vanilla;
    driver::CampaignEnv env = driver::CampaignEnv::Native;
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
    Options opt;
    driver::parseFlags(
        argc, argv,
        {driver::choice("--workload", driver::workloadNames(),
                        opt.workload),
         driver::choice("--design", driver::designNames(), opt.design),
         driver::choice("--env", driver::envNames(), opt.env),
         driver::flag("--thp", opt.thp), driver::scale(opt.scale),
         driver::count("--accesses", opt.accesses),
         driver::count("--warmup", opt.warmup),
         driver::count("--seed", opt.seed),
         driver::optional(opt.audit,
                          driver::count("--audit", opt.auditInterval)),
         driver::text("--json", "FILE", opt.jsonOut),
         driver::text("--events", "FILE", opt.eventsOut),
         driver::text("--record-trace", "FILE", opt.recordTrace),
         driver::text("--trace", "FILE", opt.traceFile)});
    if (!opt.jsonOut.empty())
        driver::checkWritable(opt.jsonOut);
    auto wl = makeWorkload(opt.workload, opt.scale);

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

    std::printf("%s / %s / %s%s, working set %.2f GB (1/%.0f of the "
                "paper)\n",
                opt.workload.c_str(), driver::designId(opt.design).c_str(),
                driver::envId(opt.env).c_str(), opt.thp ? " +THP" : "",
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
        driver::Cell cell(*wl, opt.env, opt.design,
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
        opt.design == Design::Dmt || opt.design == Design::PvDmt
            ? out.coverage
            : -1.0;
    report(res, coverage);
    if (!opt.jsonOut.empty()) {
        driver::writeFile(opt.jsonOut, [&](std::ostream &os) {
            JsonWriter json(os);
            json.beginObject();
            json.field("schema", "dmtsim-cell-v1");
            json.field("env", driver::envId(opt.env));
            json.field("workload", opt.workload);
            json.field("design", driver::designId(opt.design));
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
        });
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
