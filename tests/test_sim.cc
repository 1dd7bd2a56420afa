/**
 * @file
 * Tests for the simulation layer: the translation simulator (including
 * the address every TLB hit charges), the §5 execution-time model,
 * structure scaling, and workload properties (footprints, VMA
 * geometry, trace containment, determinism).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "driver/campaign.hh"
#include "mem/physical_memory.hh"
#include "obs/event.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "sim/exec_model.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "virt/nested_walker.hh"
#include "virt/virtual_machine.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(ExecModel, BaselineReproducesItself)
{
    Calibration cal;
    // Target == vanilla -> modeled time == measured total.
    for (Environment env :
         {Environment::Native, Environment::VirtNested,
          Environment::VirtShadow, Environment::NestedVirt}) {
        const double t = modelExecTime(cal, env, 100.0, 100.0);
        EXPECT_DOUBLE_EQ(t, baselineTotal(cal, env));
    }
}

TEST(ExecModel, HalvingWalkOverheadShrinksOnlyTheWalkPart)
{
    Calibration cal;
    const double t =
        modelExecTime(cal, Environment::VirtNested, 100.0, 50.0);
    const double walk =
        baselineWalkOverhead(cal, Environment::VirtNested);
    EXPECT_NEAR(t, baselineTotal(cal, Environment::VirtNested) -
                       walk / 2.0,
                1e-12);
}

TEST(ExecModel, RemovingShadowShedsExitOverhead)
{
    Calibration cal;
    const double keep = modelExecTime(
        cal, Environment::NestedVirt, 100.0, 100.0, false);
    const double shed = modelExecTime(
        cal, Environment::NestedVirt, 100.0, 100.0, true, 0.0);
    EXPECT_LT(shed, keep);
    EXPECT_NEAR(keep - shed,
                cal.nestedTotal * cal.nestedShadowFraction, 1e-12);
    // Agile-style partial retention sheds less.
    const double partial = modelExecTime(
        cal, Environment::NestedVirt, 100.0, 100.0, true, 0.5);
    EXPECT_GT(partial, shed);
    EXPECT_LT(partial, keep);
}

TEST(ExecModel, ZeroVanillaOverheadDegradesGracefully)
{
    Calibration cal;
    const double t =
        modelExecTime(cal, Environment::Native, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(StructureScaling, PreservesGeometryAndClampsAtMinimum)
{
    const TestbedConfig full = scaledTestbedConfig(1.0);
    EXPECT_EQ(full.stlb.entries, 1536);
    EXPECT_EQ(full.hierarchy.llc.sizeBytes, 22u * 1024 * 1024);

    const TestbedConfig s16 = scaledTestbedConfig(1.0 / 16.0);
    EXPECT_EQ(s16.stlb.entries, 96);
    EXPECT_EQ(s16.stlb.associativity, 12);
    EXPECT_EQ(s16.hierarchy.l1d.associativity, 8);
    EXPECT_EQ(s16.hierarchy.llc.sizeBytes,
              22u * 1024 * 1024 / 16);
    EXPECT_EQ(s16.pwc.entriesForL1Table, 2);

    // Extreme scaling clamps but never reaches zero.
    const TestbedConfig tiny = scaledTestbedConfig(1.0 / 4096.0);
    EXPECT_GE(tiny.l1dTlb.entries, tiny.l1dTlb.associativity);
    EXPECT_GE(tiny.pwc.entriesForL3Table, 1);
    EXPECT_GT(tiny.hierarchy.l1d.sizeBytes, 0u);
}

TEST(Simulator, CountsAreConsistent)
{
    auto wl = makeWorkload("GUPS", 1.0 / 1024.0);
    NativeTestbed tb(wl->footprintBytes(), {});
    wl->setup(tb.proc());
    auto &mech = tb.build(Design::Vanilla);
    auto trace = wl->trace(1);
    TranslationSimulator sim(mech, tb.tlbs(), tb.caches());
    SimConfig cfg;
    cfg.warmupAccesses = 1000;
    cfg.measureAccesses = 20000;
    const SimResult res = sim.run(*trace, cfg);
    EXPECT_EQ(res.accesses, 20000u);
    EXPECT_EQ(res.accesses, res.l1TlbHits + res.l2TlbHits + res.walks);
    EXPECT_GE(res.walkCycles, static_cast<double>(res.walks));
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto run = [] {
        auto wl = makeWorkload("BTree", 1.0 / 1024.0);
        NativeTestbed tb(wl->footprintBytes(), {});
        wl->setup(tb.proc());
        auto &mech = tb.build(Design::Vanilla);
        auto trace = wl->trace(5);
        TranslationSimulator sim(mech, tb.tlbs(), tb.caches());
        SimConfig cfg;
        cfg.warmupAccesses = 1000;
        cfg.measureAccesses = 10000;
        return sim.run(*trace, cfg);
    };
    const SimResult a = run();
    const SimResult b = run();
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_DOUBLE_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.seqRefs, b.seqRefs);
}

// ------------------------- TLB hits charge the translated address

/** Keeps the (va, pa) of every TLB-hit event of a traced session. */
class TlbHitRecorder : public obs::EventSink
{
  public:
    void
    emit(const obs::TranslationEvent &event,
         const std::vector<WalkStepCost> &) override
    {
        if (event.path ==
            static_cast<std::uint8_t>(obs::EventPath::TlbHit)) {
            hits.emplace_back(event.va, event.pa);
            hugeHits += event.pageSize != 0 ? 1 : 0;
        }
    }

    std::vector<std::pair<Addr, Addr>> hits;
    std::uint64_t hugeHits = 0;
};

/**
 * Trace a session and require every TLB hit to have charged its data
 * access at mech.resolve(va) — the address the page tables give,
 * whether the hit took the entry's carried frame or resolved.
 * @return the recorder, for callers asserting what was exercised.
 */
TlbHitRecorder
expectHitsAtResolvedPa(TranslationMechanism &mech, TlbHierarchy &tlbs,
                       MemoryHierarchy &caches, TraceSource &trace,
                       const std::string &what)
{
    TlbHitRecorder recorder;
    TranslationSimulator sim(mech, tlbs, caches);
    sim.setEventSink(&recorder);
    SimConfig cfg;
    cfg.warmupAccesses = 2'000;
    cfg.measureAccesses = 10'000;
    sim.run(trace, cfg);
    sim.setEventSink(nullptr);
    EXPECT_FALSE(recorder.hits.empty()) << what;
    for (const auto &[va, pa] : recorder.hits) {
        const Addr truth = mech.resolve(va);
        if (pa != truth) {
            ADD_FAILURE() << what << ": TLB hit on va 0x" << std::hex
                          << va << " charged pa 0x" << pa
                          << ", page tables give 0x" << truth;
            break;
        }
    }
    return recorder;
}

/** Set up, build and check one cell on an attached testbed. */
template <class Testbed>
void
expectCellHitsAtResolvedPa(Testbed &tb, Design design, Workload &wl,
                           const std::string &what)
{
    wl.setup(tb.proc());
    TranslationMechanism &mech = tb.build(design);
    auto trace = wl.trace(77);
    expectHitsAtResolvedPa(mech, tb.tlbs(), tb.caches(), *trace, what);
}

class TlbHitTranslation
    : public ::testing::TestWithParam<
          std::tuple<driver::CampaignEnv, ThpMode>>
{
};

TEST_P(TlbHitTranslation, EveryDesignChargesTheResolvedAddress)
{
    const auto [env, thp] = GetParam();
    constexpr double kScale = 1.0 / 256.0;
    for (const Design design : driver::validDesigns(env)) {
        auto wl = makeWorkload("GUPS", kScale);
        const TestbedConfig cfg = scaledTestbedConfig(kScale, thp);
        const std::string what =
            driver::envId(env) + "/" + driver::designId(design) +
            (thp == ThpMode::Always ? "/thp" : "/4k");
        switch (env) {
          case driver::CampaignEnv::Native: {
            NativeTestbed tb(wl->footprintBytes(), cfg);
            if (design == Design::Dmt)
                tb.attachDmt();
            expectCellHitsAtResolvedPa(tb, design, *wl, what);
            break;
          }
          case driver::CampaignEnv::Virt: {
            VirtTestbed tb(wl->footprintBytes(), cfg);
            if (design == Design::Dmt || design == Design::PvDmt)
                tb.attachDmt(design == Design::PvDmt);
            expectCellHitsAtResolvedPa(tb, design, *wl, what);
            break;
          }
          case driver::CampaignEnv::Nested: {
            NestedTestbed tb(wl->footprintBytes(), cfg);
            if (design == Design::PvDmt)
                tb.attachPvDmt();
            expectCellHitsAtResolvedPa(tb, design, *wl, what);
            break;
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EnvsAndPageModes, TlbHitTranslation,
    ::testing::Combine(::testing::Values(driver::CampaignEnv::Native,
                                         driver::CampaignEnv::Virt,
                                         driver::CampaignEnv::Nested),
                       ::testing::Values(ThpMode::Never,
                                         ThpMode::Always)),
    [](const auto &param) {
        return driver::envId(std::get<0>(param.param)) +
               (std::get<1>(param.param) == ThpMode::Always ? "_thp"
                                                            : "_4k");
    });

/** Uniform line-granular accesses over [base, base + bytes). */
class UniformTrace : public TraceSource
{
  public:
    UniformTrace(Addr base, Addr bytes, std::uint64_t seed)
        : base_(base), lines_(bytes / 64), rng_(seed)
    {
    }

    Addr next() override { return base_ + rng_.below(lines_) * 64; }

  private:
    Addr base_;
    Addr lines_;
    Rng rng_;
};

TEST(TlbHitTranslation, GuestHugePagesOnHostSmallFramesResolve)
{
    // Guest 2 MB pages on host 4 KB frames scattered by a fragmented
    // host allocator: the TLB caches 2 MB entries whose backing is
    // not one physical run, so a hit must not offset the walked
    // frame across the entry.
    PhysicalMemory hostMem(Addr{1} << 30);
    BuddyAllocator hostAlloc((Addr{1} << 30) >> pageShift);
    Fragmenter fragmenter(hostAlloc);
    fragmenter.fragment(0.5);
    VmConfig vmCfg;
    vmCfg.vmBytes = Addr{64} << 20;
    vmCfg.guestThp = ThpMode::Always;
    vmCfg.hostThp = ThpMode::Never;
    VirtualMachine vm(hostMem, hostAlloc, vmCfg);
    const Addr base = Addr{1} << 30;
    const Addr bytes = 8 * hugePageSize;
    vm.guestSpace().mmapAt(base, bytes, VmaKind::Heap);
    ASSERT_EQ(vm.guestSpace().pageTable().translate(base)->size,
              PageSize::Size2M);
    MemoryHierarchy caches;
    TlbHierarchy tlbs;
    NestedWalker walker(vm.guestSpace().pageTable(),
                        vm.containerSpace().pageTable(),
                        NestedWalker::GpaToHostVa{vm.gpaToHva(0)},
                        caches);
    // The fixture really is non-linear: some 4 KB step inside a
    // guest 2 MB page is not a 4 KB step in host-physical space.
    bool scattered = false;
    for (Addr va = base; va + pageSize < base + bytes; va += pageSize)
        scattered |= walker.resolve(va + pageSize) !=
                     walker.resolve(va) + pageSize;
    ASSERT_TRUE(scattered);

    UniformTrace trace(base, bytes, 5);
    const TlbHitRecorder recorder = expectHitsAtResolvedPa(
        walker, tlbs, caches, trace, "virt/nested guest-2M host-4K");
    EXPECT_GT(recorder.hugeHits, 0u);
}

TEST(Workloads, FootprintsScaleWithTheirPaperSizes)
{
    // Paper: Redis 155 GB (heap ~148), GUPS 128 GB, Canneal 62 GB.
    auto redis = makeWorkload("Redis", 1.0 / 16.0);
    auto gups = makeWorkload("GUPS", 1.0 / 16.0);
    auto canneal = makeWorkload("Canneal", 1.0 / 16.0);
    EXPECT_GT(redis->footprintBytes(), gups->footprintBytes());
    EXPECT_GT(gups->footprintBytes(), canneal->footprintBytes());
    EXPECT_NEAR(static_cast<double>(gups->footprintBytes()),
                128.0 / 16.0 * 1073741824.0, 64.0 * 1024 * 1024);
}

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSweep, TracesStayInsideMappedVmas)
{
    auto wl = makeWorkload(GetParam(), 1.0 / 256.0);
    NativeTestbed tb(wl->footprintBytes(), {});
    wl->setup(tb.proc());
    auto trace = wl->trace(11);
    for (int i = 0; i < 30000; ++i) {
        const Addr va = trace->next();
        ASSERT_NE(tb.proc().vmas().find(va), nullptr)
            << GetParam() << " emitted unmapped va 0x" << std::hex
            << va;
    }
}

TEST_P(WorkloadSweep, TracesAreDeterministicPerSeed)
{
    auto wl = makeWorkload(GetParam(), 1.0 / 256.0);
    NativeTestbed tb(wl->footprintBytes(), {});
    wl->setup(tb.proc());
    auto t1 = wl->trace(3);
    auto t2 = wl->trace(3);
    auto t3 = wl->trace(4);
    bool anyDiff = false;
    for (int i = 0; i < 1000; ++i) {
        const Addr a = t1->next();
        EXPECT_EQ(a, t2->next());
        anyDiff |= (a != t3->next());
    }
    EXPECT_TRUE(anyDiff) << "different seeds gave identical traces";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSweep,
    ::testing::Values("Redis", "Memcached", "GUPS", "BTree",
                      "Canneal", "XSBench", "Graph500"));

TEST(Workloads, Table1GeometryMatchesPaper)
{
    struct Expect
    {
        const char *name;
        std::size_t total;
    };
    const Expect expected[] = {
        {"Redis", 182},  {"Memcached", 1065}, {"GUPS", 103},
        {"BTree", 109},  {"Canneal", 116},    {"XSBench", 111},
        {"Graph500", 105},
    };
    for (const auto &[name, total] : expected) {
        auto wl = makeWorkload(name, 1.0 / 256.0);
        NativeTestbed tb(wl->footprintBytes(), {});
        wl->setup(tb.proc());
        EXPECT_EQ(tb.proc().vmas().count(), total) << name;
    }
}

TEST(Workloads, SpecProfilesMatchPaperRanges)
{
    for (const auto &profile : makeSpecProfiles2006()) {
        EXPECT_GE(profile.vmas.size(), 18u);
        EXPECT_LE(profile.vmas.size(), 39u);
    }
    for (const auto &profile : makeSpecProfiles2017()) {
        EXPECT_GE(profile.vmas.size(), 24u);
        EXPECT_LE(profile.vmas.size(), 70u);
    }
    EXPECT_EQ(makeSpecProfiles2006().size(), 30u);
    EXPECT_EQ(makeSpecProfiles2017().size(), 47u);
}

} // namespace
} // namespace dmt
