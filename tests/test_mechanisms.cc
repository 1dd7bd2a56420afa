/**
 * @file
 * Cross-design property tests: for every mechanism in every
 * environment, walk() and resolve() must agree with each other and
 * with the ground-truth page tables, across workloads and page
 * sizes (parameterized sweep); DMT-specific properties (fallbacks,
 * isolation, probe counts) are exercised explicitly.
 */

#include <gtest/gtest.h>

#include "sim/testbed.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

constexpr double sweepScale = 1.0 / 1024.0;

struct Case
{
    std::string workload;
    bool thp;
};

// gtest names each case by printing its parameter; without this it
// would print the struct's bytes, the string's data pointer included,
// so the name would change from one build and run to the next.
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.workload << (c.thp ? "_thp" : "_4k");
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return ::testing::PrintToString(info.param);
}

class VirtDesignSweep : public ::testing::TestWithParam<Case>
{
};

TEST_P(VirtDesignSweep, WalkMatchesResolveMatchesGroundTruth)
{
    const auto &[name, thp] = GetParam();
    auto wl = makeWorkload(name, sweepScale);
    for (Design d : {Design::Vanilla, Design::Shadow, Design::Fpt,
                     Design::Ecpt, Design::Agile, Design::Asap,
                     Design::Dmt, Design::PvDmt}) {
        TestbedConfig cfg;
        cfg.thp = thp ? ThpMode::Always : ThpMode::Never;
        VirtTestbed tb(wl->footprintBytes(), cfg);
        if (d == Design::Dmt || d == Design::PvDmt)
            tb.attachDmt(d == Design::PvDmt);
        wl->setup(tb.proc());
        auto &mech = tb.build(d);
        const auto &gpt = tb.proc().pageTable();
        auto trace = wl->trace(17);
        for (int i = 0; i < 400; ++i) {
            const Addr gva = trace->next();
            const auto gtr = gpt.translate(gva);
            ASSERT_TRUE(gtr.has_value());
            const Addr want = tb.vm().gpaToHostPa(gtr->pa);
            EXPECT_EQ(mech.resolve(gva), want)
                << mech.name() << " resolve " << name;
            const WalkRecord rec = mech.walk(gva);
            EXPECT_EQ(rec.pa, want)
                << mech.name() << " walk " << name;
            EXPECT_GT(rec.seqRefs, 0) << mech.name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, VirtDesignSweep,
    ::testing::Values(Case{"GUPS", false}, Case{"Redis", false},
                      Case{"Memcached", false},
                      Case{"Canneal", false}, Case{"GUPS", true},
                      Case{"Redis", true}),
    caseName);

TEST(DmtProperties, FallbackServesUncoveredAddresses)
{
    // With a 1-register file, only the largest TEA is covered; the
    // rest must fall back to the radix walker and still translate
    // correctly.
    auto wl = makeWorkload("Redis", sweepScale);
    TestbedConfig cfg;
    cfg.mapping.maxRegisters = 1;
    NativeTestbed tb(wl->footprintBytes(), cfg);
    tb.attachDmt();
    wl->setup(tb.proc());
    auto &mech = tb.build(Design::Dmt);
    auto trace = wl->trace(3);
    for (int i = 0; i < 5000; ++i) {
        const Addr va = trace->next();
        const auto want = tb.proc().pageTable().translate(va);
        EXPECT_EQ(mech.walk(va).pa, want->pa);
    }
    const auto &stats = tb.dmtFetcher()->stats();
    EXPECT_GT(stats.fallbacks, 0u);
    EXPECT_GT(stats.direct, 0u);
    EXPECT_LT(stats.coverage(), 1.0);
}

TEST(DmtProperties, SixteenRegistersCoverPaperWorkloads)
{
    // §6.1: the registers cover 99+% of walk requests — even for
    // Memcached's 1065 VMAs, thanks to clustering.
    for (const char *name : {"Memcached", "Redis", "GUPS"}) {
        auto wl = makeWorkload(name, sweepScale);
        NativeTestbed tb(wl->footprintBytes(), {});
        tb.attachDmt();
        wl->setup(tb.proc());
        auto &mech = tb.build(Design::Dmt);
        auto trace = wl->trace(3);
        for (int i = 0; i < 20000; ++i)
            mech.walk(trace->next());
        EXPECT_GT(tb.dmtFetcher()->stats().coverage(), 0.99)
            << name;
    }
}

TEST(DmtProperties, PvIsolationFaultFallsBackSafely)
{
    auto wl = makeWorkload("GUPS", sweepScale);
    VirtTestbed tb(wl->footprintBytes(), {});
    tb.attachDmt(true);
    wl->setup(tb.proc());
    auto &mech = tb.build(Design::PvDmt);
    // Sabotage: invalidate every gTEA table entry, simulating a
    // malicious/buggy guest register pointing at a revoked ID.
    while (tb.gteaTable().liveEntries() > 0) {
        for (int id = 0; id < 64; ++id) {
            if (tb.gteaTable().entry(id)) {
                tb.gteaTable().remove(id);
                break;
            }
        }
    }
    auto trace = wl->trace(3);
    const auto faultsBefore = tb.gteaTable().faults();
    for (int i = 0; i < 100; ++i) {
        const Addr gva = trace->next();
        // The fetcher must detect the fault and fall back — never
        // consume an arbitrary host physical address.
        const WalkRecord rec = mech.walk(gva);
        EXPECT_EQ(rec.pa, mech.resolve(gva));
    }
    EXPECT_GT(tb.gteaTable().faults(), faultsBefore);
    EXPECT_GT(tb.dmtFetcher()->stats().isolationFaults, 0u);
    EXPECT_GT(tb.dmtFetcher()->stats().fallbacks, 0u);
}

TEST(DmtProperties, NativeProbesAtMostOnePerSizeClass)
{
    auto wl = makeWorkload("GUPS", sweepScale);
    TestbedConfig cfg;
    cfg.thp = ThpMode::Always;
    NativeTestbed tb(wl->footprintBytes(), cfg);
    tb.attachDmt();
    wl->setup(tb.proc());
    auto &mech = tb.build(Design::Dmt);
    auto trace = wl->trace(3);
    for (int i = 0; i < 2000; ++i) {
        const WalkRecord rec = mech.walk(trace->next());
        if (rec.fellBack)
            continue;
        EXPECT_EQ(rec.seqRefs, 1);
        EXPECT_LE(rec.parallelRefs, 2);
    }
}

TEST(ShadowProperties, ExitsScaleWithGuestPtUpdates)
{
    auto wl = makeWorkload("GUPS", sweepScale);
    VirtTestbed tb(wl->footprintBytes(), {});
    wl->setup(tb.proc());
    tb.build(Design::Shadow);
    // One sync per mapped leaf during the bulk build.
    EXPECT_GE(tb.shadowPager()->exits(),
              tb.proc().pageTable().mappedLeaves());
}

} // namespace
} // namespace dmt
