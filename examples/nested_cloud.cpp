/**
 * @file
 * Nested virtualization (the cloud-on-cloud scenario of §2.1.3): an
 * L2 guest workload running inside an L1 hypervisor inside the L0
 * host. The baseline compresses L1/L0 into a shadow table and pays
 * VM exits for every synchronisation; nested pvDMT translates with
 * three direct PTE fetches and no shadow paging at all.
 *
 *   $ ./build/examples/nested_cloud
 */

#include <cstdio>

#include "driver/campaign.hh"
#include "sim/exec_model.hh"
#include "virt/costs.hh"

using namespace dmt;

int
main()
{
    const double scale = 1.0 / 32.0;
    auto proto = makeWorkload("GUPS", scale);
    std::printf("GUPS inside an L2 VM (L2 on L1 on L0), %.1f GB "
                "working set\n\n",
                static_cast<double>(proto->footprintBytes()) /
                    (1ull << 30));

    SimConfig simCfg;
    simCfg.warmupAccesses = 100'000;
    simCfg.measureAccesses = 400'000;
    SimResult results[2];
    Counter shadowExits = 0;
    Cycles hypercallCost = 0;
    int idx = 0;
    for (Design d : {Design::Vanilla, Design::PvDmt}) {
        auto wl = makeWorkload("GUPS", scale);
        const driver::CellOutcome out =
            driver::runCell(*wl, driver::CampaignEnv::Nested, d,
                            scaledTestbedConfig(scale), simCfg, 7);
        results[idx] = out.sim;
        std::printf("%-20s %.1f cycles/walk, %.2f refs/walk\n",
                    out.design.c_str(),
                    results[idx].meanWalkLatency(),
                    results[idx].meanSeqRefs());
        if (d == Design::Vanilla) {
            shadowExits = out.shadowExits;
        } else {
            hypercallCost = out.hypercallCycles;
            std::printf("  L2 register coverage: %.2f%%\n",
                        out.coverage * 100);
        }
        ++idx;
    }

    std::printf("\nshadow paging kept %llu VM exits in sync during "
                "setup (~%.1f ms of exit time at %.0f cycles each); "
                "pvDMT replaced them with cascaded hypercalls "
                "costing %.2f ms total\n",
                static_cast<unsigned long long>(shadowExits),
                static_cast<double>(shadowExits) * vmExitCycles /
                    cyclesPerSecond * 1e3 * nestedExitMultiplier,
                static_cast<double>(vmExitCycles),
                static_cast<double>(hypercallCost) /
                    cyclesPerSecond * 1e3);

    const Calibration &cal = proto->calibration();
    const double tPv = modelExecTime(
        cal, Environment::NestedVirt,
        results[0].overheadPerAccess(),
        results[1].overheadPerAccess(), /*removes_shadow=*/true,
        /*shadow_exit_scale=*/0.0);
    std::printf("\nmodeled application speedup: %.2fx "
                "(paper Fig. 17a: ~1.5x on average; GUPS is the "
                "extreme case)\n",
                baselineTotal(cal, Environment::NestedVirt) / tPv);
    return 0;
}
