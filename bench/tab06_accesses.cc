/**
 * @file
 * Table 6 — the number of sequential memory accesses each design
 * needs per translation, cross-checked against the simulator's
 * observed dependent-reference chains (page-walk caches enabled, so
 * radix chains show their cached common case).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace dmt;
using namespace dmt::bench;
using driver::CampaignEnv;

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "tab06");
    printConfigBanner("Table 6: sequential memory accesses per "
                      "translation design");

    std::printf("Analytic (paper Table 6):\n");
    Table analytic({"Design", "Native", "Virtualization",
                    "Nested Virt."});
    analytic.addRow({"pvDMT", "1", "2", "3"});
    analytic.addRow({"DMT", "1", "3", "3"});
    analytic.addRow({"ECPT", "1", "3", "N/A"});
    analytic.addRow({"FPT", "2", "8", "N/A"});
    analytic.addRow({"Agile Paging", "N/A", "4-24", "N/A"});
    analytic.addRow({"ASAP", "4", "24", "N/A"});
    analytic.addRow({"Radix (vanilla)", "4", "24", "24 (via sPT)"});
    analytic.print();
    json.addTable("tab06_analytic", analytic);

    std::printf("\nSimulator cross-check (mean dependent refs per "
                "walk on GUPS; PWCs enabled, so radix chains show "
                "their cached common case):\n");
    // Mean dependent references per walk of one GUPS cell.
    auto refs = [](CampaignEnv env, Design design) {
        auto wl = makeWorkload("GUPS", scaleFromEnv());
        return runCell(*wl, env, design, false).sim.meanSeqRefs();
    };

    Table observed({"Design", "Native", "Virtualized"});
    struct Row
    {
        Design design;
        bool native;
        bool virt;
    };
    const Row rows[] = {
        {Design::Vanilla, true, true}, {Design::Fpt, true, true},
        {Design::Ecpt, true, true},    {Design::Asap, true, true},
        {Design::Dmt, true, true},     {Design::PvDmt, false, true},
        {Design::Agile, false, true},
    };
    for (const auto &row : rows) {
        std::string nat = "N/A", virt = "N/A";
        if (row.native)
            nat = Table::num(refs(CampaignEnv::Native, row.design), 2);
        if (row.virt)
            virt = Table::num(refs(CampaignEnv::Virt, row.design), 2);
        observed.addRow({designName(row.design, true), nat, virt});
    }
    observed.print();
    json.addTable("tab06_observed_gups", observed);
    const double base = refs(CampaignEnv::Nested, Design::Vanilla);
    const double pv = refs(CampaignEnv::Nested, Design::PvDmt);
    std::printf("\nNested virtualization: baseline (2-D over sPT) "
                "%.2f refs/walk; pvDMT %.2f refs/walk.\n",
                base, pv);
    return 0;
}
