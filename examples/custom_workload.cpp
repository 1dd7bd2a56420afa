/**
 * @file
 * Extending the harness: define your own workload (VMA layout +
 * access trace + calibration) and evaluate every translation design
 * on it, natively and virtualized.
 *
 * The example models a streaming analytics job: a large column store
 * scanned mostly sequentially with occasional random index probes —
 * a pattern that is kind to TLBs and PWCs, so the gap between the
 * designs narrows compared to GUPS.
 *
 *   $ ./build/examples/custom_workload
 */

#include <cstdio>
#include <memory>

#include "driver/campaign.hh"

using namespace dmt;

namespace
{

constexpr Addr columnBase = 0x20000000ull;
constexpr Addr indexBase = 0x7a0000000000ull;

/** 7 sequential column reads : 1 random index probe. */
class ScanTrace : public TraceSource
{
  public:
    ScanTrace(std::uint64_t seed, Addr column_bytes,
              Addr index_bytes)
        : rng_(seed), columnBytes_(column_bytes),
          indexBytes_(index_bytes)
    {
    }

    Addr
    next() override
    {
        if (++step_ % 8 == 0)
            return indexBase + rng_.below(indexBytes_ / 8) * 8;
        cursor_ = (cursor_ + 64) % columnBytes_;
        return columnBase + cursor_;
    }

  private:
    Rng rng_;
    Addr columnBytes_, indexBytes_;
    Addr cursor_ = 0;
    std::uint64_t step_ = 0;
};

class ColumnScanWorkload : public Workload
{
  public:
    std::string name() const override { return "ColumnScan"; }

    Addr footprintBytes() const override { return Addr{2} << 30; }

    void
    setup(AddressSpace &proc) override
    {
        proc.mmapAt(0x400000, Addr{1} << 20, VmaKind::Code);
        proc.mmapAt(columnBase, footprintBytes(), VmaKind::Heap);
        proc.mmapAt(indexBase, Addr{128} << 20, VmaKind::MappedFile);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        return std::make_unique<ScanTrace>(seed, footprintBytes(),
                                           Addr{128} << 20);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Calibration cal_;  //!< defaults: the paper's averages
};

} // namespace

int
main()
{
    ColumnScanWorkload proto;
    std::printf("custom workload '%s': %.1f GB column + 128 MB "
                "index, 7:1 sequential:random\n\n",
                proto.name().c_str(),
                static_cast<double>(proto.footprintBytes()) /
                    (1ull << 30));

    const TestbedConfig cfg = scaledTestbedConfig(1.0 / 16.0);
    SimConfig simCfg;
    simCfg.measureAccesses = 400'000;
    // A custom workload runs through the same cell builder as the
    // paper's seven: driver::runCell takes any Workload.
    auto walkLatency = [&](driver::CampaignEnv env, Design d) {
        ColumnScanWorkload wl;
        return driver::runCell(wl, env, d, cfg, simCfg, 1)
            .sim.meanWalkLatency();
    };
    std::printf("%-14s %12s %12s\n", "design", "native", "virt");
    for (Design d : {Design::Vanilla, Design::Ecpt, Design::Dmt,
                     Design::PvDmt}) {
        const double native =
            d == Design::PvDmt
                ? -1.0
                : walkLatency(driver::CampaignEnv::Native, d);
        const double virt = walkLatency(driver::CampaignEnv::Virt, d);
        if (native >= 0.0) {
            std::printf("%-14s %9.1f cyc %9.1f cyc\n",
                        designName(d, false).c_str(), native, virt);
        } else {
            std::printf("%-14s %13s %9.1f cyc\n",
                        designName(d, false).c_str(), "n/a", virt);
        }
    }
    std::printf("\n(mean page-walk latency; sequential scans keep "
                "PTEs cache-resident, so every design is far from "
                "the GUPS worst case)\n");
    return 0;
}
