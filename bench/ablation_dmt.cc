/**
 * @file
 * Ablations of DMT's design choices (DESIGN.md §5):
 *
 *  (a) number of DMT registers vs translation coverage — why 16 is
 *      the sweet spot (§2.3 / §4.1);
 *  (b) the merge bubble threshold t vs cluster count and eager-TEA
 *      waste on Memcached's 778-slab layout (§4.2.1);
 *  (c) page-walk-cache size sensitivity of the *baseline*, i.e. how
 *      much of DMT's advantage survives bigger MMU caches (§6.2);
 *  (d) eager TEA allocation waste per workload (§7).
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/mapping_manager.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

void
registerSweep(JsonReport &json)
{
    std::printf("\n(a) Register-count sweep (native, 4KB):\n");
    Table table({"Workload", "Registers", "Coverage", "Walk overhead "
                 "(cyc/access)"});
    const double scale = scaleFromEnv();
    for (const char *name : {"Memcached", "Redis"}) {
        for (int regs : {2, 4, 8, 16}) {
            auto wl = makeWorkload(name, scale);
            TestbedConfig cfg = testbedConfig(false);
            cfg.mapping.maxRegisters = regs;
            const Outcome out = driver::runCell(
                *wl, driver::CampaignEnv::Native, Design::Dmt, cfg,
                simConfigFromEnv(), 42);
            table.addRow({name, std::to_string(regs),
                          Table::num(out.coverage * 100.0, 2) + "%",
                          Table::num(out.sim.overheadPerAccess(), 1)});
        }
    }
    table.print();
    json.addTable("ablation_registers", table);
}

void
bubbleSweep(JsonReport &json)
{
    std::printf("\n(b) Merge bubble-threshold sweep (Memcached's "
                "1065 VMAs):\n");
    Table table({"Threshold", "Clusters", "TEAs", "Coverage",
                 "TEA pages (eager)"});
    const double scale = scaleFromEnv();
    for (double t : {0.0, 0.005, 0.02, 0.08}) {
        auto wl = makeWorkload("Memcached", scale);
        TestbedConfig cfg = testbedConfig(false);
        cfg.mapping.bubbleThreshold = t;
        NativeTestbed tb(wl->footprintBytes(), cfg);
        tb.attachDmt();
        wl->setup(tb.proc());
        auto &mech = tb.build(Design::Dmt);
        auto trace = wl->trace(42);
        TranslationSimulator sim(mech, tb.tlbs(), tb.caches());
        SimConfig simCfg = simConfigFromEnv();
        simCfg.measureAccesses /= 4;
        sim.run(*trace, simCfg);
        table.addRow(
            {Table::num(t * 100.0, 1) + "%",
             std::to_string(tb.mappingManager()->clusters().size()),
             std::to_string(tb.teaManager()->all().size()),
             Table::num(tb.dmtFetcher()->stats().coverage() * 100.0,
                        2) +
                 "%",
             std::to_string(tb.teaManager()->reservedPages())});
    }
    table.print();
    json.addTable("ablation_bubble_threshold", table);
    std::printf("Cluster counts include the ~290 isolated small VMAs; the "
                "slab groups collapse from 778 mappings to 2 once "
                "the threshold admits their sub-16 KB bubbles. TEA "
                "counts stay low because span-aligned coverages "
                "union.\n");
}

void
pwcSweep(JsonReport &json)
{
    std::printf("\n(c) Baseline PWC-size sensitivity (virtualized "
                "GUPS, 4KB): does a bigger MMU cache close the "
                "gap?\n");
    Table table({"PWC entries", "Vanilla KVM (cyc/walk)",
                 "pvDMT (cyc/walk)", "Speedup"});
    const double scale = scaleFromEnv();
    for (int mult : {1, 4, 16}) {
        TestbedConfig cfg = testbedConfig(false);
        cfg.pwc.entriesForL3Table *= mult;
        cfg.pwc.entriesForL2Table *= mult;
        cfg.pwc.entriesForL1Table *= mult;
        auto walkLatency = [&](Design d) {
            auto wl = makeWorkload("GUPS", scale);
            return driver::runCell(*wl, driver::CampaignEnv::Virt, d,
                                   cfg, simConfigFromEnv(), 42)
                .sim.meanWalkLatency();
        };
        const double base = walkLatency(Design::Vanilla);
        const double pv = walkLatency(Design::PvDmt);
        char label[32];
        std::snprintf(label, sizeof(label), "%d-%d-%d",
                      cfg.pwc.entriesForL3Table,
                      cfg.pwc.entriesForL2Table,
                      cfg.pwc.entriesForL1Table);
        table.addRow({label, Table::num(base, 1), Table::num(pv, 1),
                      Table::num(base / pv, 2) + "x"});
    }
    table.print();
    json.addTable("ablation_pwc_sensitivity", table);
    std::printf("Even a 16x PWC cannot remove the leaf fetches that "
                "DMT eliminates structurally.\n");
}

void
eagerWaste(JsonReport &json)
{
    std::printf("\n(d) Eager TEA allocation waste (4KB):\n");
    Table table({"Workload", "TEA pages reserved", "Tables in use",
                 "Waste"});
    const double scale = scaleFromEnv();
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        NativeTestbed tb(wl->footprintBytes(), testbedConfig(false));
        tb.attachDmt();
        wl->setup(tb.proc());
        const auto reserved = tb.teaManager()->reservedPages();
        std::uint64_t used = 0;
        for (const Tea *tea : tb.teaManager()->all())
            used += tb.teaManager()->tablesInUse(tea->coverBase,
                                                 tea->leafSize);
        table.addRow({name, std::to_string(reserved),
                      std::to_string(used),
                      Table::num((reserved > used
                                      ? static_cast<double>(
                                            reserved - used)
                                      : 0.0) /
                                     static_cast<double>(reserved) *
                                     100.0,
                                 1) +
                          "%"});
    }
    table.print();
    json.addTable("ablation_eager_tea_waste", table);
    std::printf("Paper §6.3: eager allocation costs <2.5%% extra "
                "page-table memory for populated working sets.\n");
}

void
fiveLevelSweep(JsonReport &json)
{
    std::printf("\n(e) 4-level vs 5-level paging (native GUPS, "
                "4KB): radix walks lengthen, DMT stays at one "
                "reference (§1/§2.1.1):\n");
    Table table({"Levels", "Design", "refs/walk", "cyc/walk"});
    const double scale = scaleFromEnv();
    for (int levels : {4, 5}) {
        for (Design d : {Design::Vanilla, Design::Dmt}) {
            auto wl = makeWorkload("GUPS", scale);
            TestbedConfig cfg = testbedConfig(false);
            cfg.ptLevels = levels;
            const SimResult res =
                driver::runCell(*wl, driver::CampaignEnv::Native, d,
                                cfg, simConfigFromEnv(), 42)
                    .sim;
            table.addRow({std::to_string(levels),
                          designName(d, false),
                          Table::num(res.meanSeqRefs(), 2),
                          Table::num(res.meanWalkLatency(), 1)});
        }
    }
    table.print();
    json.addTable("ablation_five_level", table);
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "ablation");
    printConfigBanner("Ablations: registers, bubble threshold, PWC "
                      "sensitivity, eager TEAs, 5-level paging");
    registerSweep(json);
    bubbleSweep(json);
    pwcSweep(json);
    eagerWaste(json);
    fiveLevelSweep(json);
    return 0;
}
