/**
 * @file
 * A virtualized in-memory key-value store (the paper's Redis
 * scenario): run the same Zipf-skewed lookup trace under vanilla
 * KVM nested paging and under pvDMT, and compare page-walk latency,
 * reference counts, and modeled application time.
 *
 *   $ ./build/examples/virtualized_kv_store
 */

#include <cstdio>

#include "driver/campaign.hh"
#include "sim/exec_model.hh"

using namespace dmt;

namespace
{

SimResult
runOne(Design design, const Workload &proto, double scale)
{
    auto wl = makeWorkload(proto.name(), scale);
    SimConfig simCfg;
    simCfg.warmupAccesses = 100'000;
    simCfg.measureAccesses = 400'000;
    const driver::CellOutcome out =
        driver::runCell(*wl, driver::CampaignEnv::Virt, design,
                        scaledTestbedConfig(scale), simCfg, 2024);
    const SimResult &res = out.sim;
    std::printf("  %-12s mean walk %.1f cycles, %.2f dependent "
                "refs/walk, %llu TLB misses\n",
                out.design.c_str(), res.meanWalkLatency(),
                res.meanSeqRefs(),
                static_cast<unsigned long long>(res.walks));
    return res;
}

} // namespace

int
main()
{
    const double scale = 1.0 / 32.0;
    auto proto = makeWorkload("Redis", scale);
    std::printf("Redis-like key-value store, %.1f GB working set "
                "(paper: 155 GB), Zipf(0.99) lookups, virtualized\n\n",
                static_cast<double>(proto->footprintBytes()) /
                    (1ull << 30));

    const SimResult base = runOne(Design::Vanilla, *proto, scale);
    const SimResult pv = runOne(Design::PvDmt, *proto, scale);

    const double walkSpeedup =
        base.overheadPerAccess() / pv.overheadPerAccess();
    const Calibration &cal = proto->calibration();
    const double tPv =
        modelExecTime(cal, Environment::VirtNested,
                      base.overheadPerAccess(),
                      pv.overheadPerAccess());
    const double appSpeedup =
        baselineTotal(cal, Environment::VirtNested) / tPv;

    std::printf("\npvDMT speedup over Vanilla KVM:\n");
    std::printf("  page walks : %.2fx  (paper Fig. 15a: ~1.5-1.6x)\n",
                walkSpeedup);
    std::printf("  application: %.2fx  (paper: ~1.2x)\n", appSpeedup);
    return 0;
}
