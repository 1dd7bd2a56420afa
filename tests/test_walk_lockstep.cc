/**
 * @file
 * Lockstep differential suite for the PWC-started walkers
 * (`ctest -L perf`).
 *
 * RadixWalker and NestedWalker start each walk (and each host walk of
 * a 2-D walk) at the table pointer their page walk cache holds, and
 * read only the PTEs from there down; the 2-D walker reads each guest
 * PTE at the host address it charges. The algorithm they replaced is
 * kept here as a test-local reference: walk from the root reading
 * every level (the guest levels through the guest's translated
 * memory view), then charge only the levels at or below the PWC's
 * start level. The two run side by side over native, virt and nested
 * sessions at 4 KB and THP, through the vanilla walkers, the shadow
 * walker and the DMT fetchers' fallback walkers. Each side owns its
 * PWCs, caches and TLBs and sees the same trace; every WalkRecord
 * field and step, and every PWC, TLB and cache counter, must agree.
 * The walker side fills its TLBs with fillData() and the reference
 * side with insertData(), so the search-free fill is held to the
 * same agreement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "core/dmt_fetcher.hh"
#include "sim/radix_walker.hh"
#include "sim/testbed.hh"
#include "virt/nested_walker.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

constexpr double kScale = 1.0 / 256.0;
constexpr std::uint64_t kSeed = 2024;
constexpr std::uint64_t kAccesses = 30'000;

PageSize
leafSizeAt(int level)
{
    return level == 1   ? PageSize::Size4K
           : level == 2 ? PageSize::Size2M
                        : PageSize::Size1G;
}

/** The radix walk from the root: the reference for RadixWalker. */
class RootRadixWalker final : public TranslationMechanism
{
  public:
    RootRadixWalker(const RadixPageTable &pt, MemoryHierarchy &caches,
                    const PwcConfig &pwc)
        : pt_(pt), caches_(caches), pwc_(pwc)
    {
    }

    std::string name() const override { return "root radix"; }

    WalkRecord
    walk(Addr va) override
    {
        WalkRecord rec;
        rec.path = TranslationPath::Radix;
        const auto path = pt_.walkPath(va);
        const auto hit = pwc_.lookup(
            va, pt_.levels(),
            static_cast<Pfn>(pt_.rootPa() >> pageShift));
        rec.latency += pwc_.latency();
        rec.pwcStartLevel = static_cast<std::int8_t>(hit.startLevel);
        if (hit.hit)
            ++rec.pwcHits;
        else
            ++rec.pwcMisses;
        for (const auto &step : path) {
            if (step.level > hit.startLevel)
                continue;  // skipped thanks to the PWC
            const Cycles cost = caches_.access(step.pteAddr);
            rec.latency += cost;
            ++rec.seqRefs;
            if (recordSteps_)
                rec.steps.push_back(
                    {'n', static_cast<std::int8_t>(step.level), cost,
                     -1, step.pteAddr});
            if (step.level > 1 && !pteIsHuge(step.pte))
                pwc_.fill(va, step.level - 1, ptePfn(step.pte));
        }
        const auto &leaf = path.back();
        rec.size = leafSizeAt(leaf.level);
        rec.linearSize = rec.size;
        rec.pa = (ptePfn(leaf.pte) << pageShift) +
                 (va & (pageBytesOf(rec.size) - 1));
        return rec;
    }

    Addr resolve(Addr va) override { return pt_.translate(va)->pa; }

    void flush() override { pwc_.flush(); }

    PageWalkCache &pwc() { return pwc_; }

  private:
    const RadixPageTable &pt_;
    MemoryHierarchy &caches_;
    PageWalkCache pwc_;
};

/** The 2-D walk from both roots: the reference for NestedWalker. */
class RootNestedWalker final : public TranslationMechanism
{
  public:
    RootNestedWalker(const RadixPageTable &guest_pt,
                     const RadixPageTable &host_pt,
                     NestedWalker::GpaToHostVa gpa_to_hva,
                     MemoryHierarchy &caches, const PwcConfig &pwc)
        : guestPt_(guest_pt), hostPt_(host_pt), gpaToHva_(gpa_to_hva),
          caches_(caches), guestPwc_(pwc), nestedPwc_(pwc)
    {
    }

    std::string name() const override { return "root 2-D"; }

    WalkRecord
    walk(Addr gva) override
    {
        WalkRecord rec;
        rec.path = TranslationPath::Nested;
        // Guest PTEs come from the guest's translated memory view.
        const auto gpath = guestPt_.walkPath(gva);
        const auto ghit =
            guestPwc_.lookup(gva, guestPt_.levels(), /*root_pfn=*/0);
        rec.latency += guestPwc_.latency();
        rec.pwcStartLevel = static_cast<std::int8_t>(ghit.startLevel);
        if (ghit.hit)
            ++rec.pwcHits;
        else
            ++rec.pwcMisses;
        for (const auto &step : gpath) {
            if (step.level > ghit.startLevel)
                continue;
            Pfn tableHostFrame;
            slotBase_ = 5 * (4 - step.level);
            if (ghit.hit && step.level == ghit.startLevel) {
                tableHostFrame = ghit.tablePfn;
            } else {
                tableHostFrame = hostWalk(step.pteAddr, rec) >> pageShift;
                if (step.level <= 3)
                    guestPwc_.fill(gva, step.level, tableHostFrame);
            }
            const Addr pteHpa = (tableHostFrame << pageShift) |
                                (step.pteAddr & pageMask);
            const Cycles cost = caches_.access(pteHpa);
            rec.latency += cost;
            ++rec.seqRefs;
            if (recordSteps_)
                rec.steps.push_back(
                    {'g', static_cast<std::int8_t>(step.level), cost,
                     static_cast<std::int8_t>(5 * (4 - step.level) + 5),
                     pteHpa});
        }
        const auto &gleaf = gpath.back();
        const PageSize gsize = leafSizeAt(gleaf.level);
        const Addr dataGpa = (ptePfn(gleaf.pte) << pageShift) +
                             (gva & (pageBytesOf(gsize) - 1));
        slotBase_ = 20;
        PageSize hsize = PageSize::Size4K;
        rec.pa = hostWalk(dataGpa, rec, &hsize);
        slotBase_ = -1;
        rec.size = gsize;
        rec.linearSize = std::min(gsize, hsize);
        return rec;
    }

    Addr
    resolve(Addr gva) override
    {
        const auto gtr = guestPt_.translate(gva);
        return hostPt_.translate(gpaToHva_(gtr->pa))->pa;
    }

    void
    flush() override
    {
        guestPwc_.flush();
        nestedPwc_.flush();
    }

    PageWalkCache &guestPwc() { return guestPwc_; }
    PageWalkCache &nestedPwc() { return nestedPwc_; }

  private:
    Addr
    hostWalk(Addr gpa, WalkRecord &rec, PageSize *leaf_size = nullptr)
    {
        const Addr hva = gpaToHva_(gpa);
        const auto path = hostPt_.walkPath(hva);
        const auto hit = nestedPwc_.lookup(
            hva, hostPt_.levels(),
            static_cast<Pfn>(hostPt_.rootPa() >> pageShift));
        rec.latency += nestedPwc_.latency();
        ++rec.nestedWalks;
        if (hit.hit)
            ++rec.nestedPwcHits;
        else
            ++rec.nestedPwcMisses;
        for (const auto &step : path) {
            if (step.level > hit.startLevel)
                continue;
            const Cycles cost = caches_.access(step.pteAddr);
            rec.latency += cost;
            ++rec.seqRefs;
            if (recordSteps_) {
                const int slot = slotBase_ >= 0
                                     ? slotBase_ + (4 - step.level) + 1
                                     : -1;
                rec.steps.push_back(
                    {'h', static_cast<std::int8_t>(step.level), cost,
                     static_cast<std::int8_t>(slot), step.pteAddr});
            }
            if (step.level > 1 && !pteIsHuge(step.pte))
                nestedPwc_.fill(hva, step.level - 1, ptePfn(step.pte));
        }
        const auto &leaf = path.back();
        const PageSize size = leafSizeAt(leaf.level);
        if (leaf_size)
            *leaf_size = size;
        return (ptePfn(leaf.pte) << pageShift) +
               (hva & (pageBytesOf(size) - 1));
    }

    const RadixPageTable &guestPt_;
    const RadixPageTable &hostPt_;
    NestedWalker::GpaToHostVa gpaToHva_;
    MemoryHierarchy &caches_;
    PageWalkCache guestPwc_;
    PageWalkCache nestedPwc_;
    int slotBase_ = -1;
};

/** One side of the lockstep: its own caches and TLBs. */
struct Side
{
    explicit Side(const TestbedConfig &cfg)
        : caches(cfg.hierarchy), tlbs(cfg.l1dTlb, cfg.l1iTlb, cfg.stlb)
    {
    }

    MemoryHierarchy caches;
    TlbHierarchy tlbs;
};

void
expectSameRecord(const WalkRecord &a, const WalkRecord &b,
                 std::uint64_t access)
{
    SCOPED_TRACE("access " + std::to_string(access));
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.seqRefs, b.seqRefs);
    EXPECT_EQ(a.parallelRefs, b.parallelRefs);
    EXPECT_EQ(a.pa, b.pa);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.linearSize, b.linearSize);
    EXPECT_EQ(a.fellBack, b.fellBack);
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(a.pwcStartLevel, b.pwcStartLevel);
    EXPECT_EQ(a.pwcHits, b.pwcHits);
    EXPECT_EQ(a.pwcMisses, b.pwcMisses);
    EXPECT_EQ(a.nestedPwcHits, b.nestedPwcHits);
    EXPECT_EQ(a.nestedPwcMisses, b.nestedPwcMisses);
    EXPECT_EQ(a.nestedWalks, b.nestedWalks);
    EXPECT_EQ(a.dmtProbes, b.dmtProbes);
    EXPECT_EQ(a.dmtFaults, b.dmtFaults);
    EXPECT_EQ(a.gteaPath, b.gteaPath);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        EXPECT_EQ(a.steps[i].dim, b.steps[i].dim);
        EXPECT_EQ(a.steps[i].level, b.steps[i].level);
        EXPECT_EQ(a.steps[i].cycles, b.steps[i].cycles);
        EXPECT_EQ(a.steps[i].slot, b.steps[i].slot);
        EXPECT_EQ(a.steps[i].pa, b.steps[i].pa);
    }
}

void
expectSameCounters(const Side &a, const Side &b)
{
    EXPECT_EQ(a.caches.accesses(), b.caches.accesses());
    EXPECT_EQ(a.caches.memoryAccesses(), b.caches.memoryAccesses());
    for (const auto &[ca, cb] :
         {std::pair{&a.caches.l1d(), &b.caches.l1d()},
          std::pair{&a.caches.l2(), &b.caches.l2()},
          std::pair{&a.caches.llc(), &b.caches.llc()}}) {
        EXPECT_EQ(ca->hits(), cb->hits());
        EXPECT_EQ(ca->misses(), cb->misses());
    }
    EXPECT_EQ(a.tlbs.l1d().hits(), b.tlbs.l1d().hits());
    EXPECT_EQ(a.tlbs.l1d().misses(), b.tlbs.l1d().misses());
    EXPECT_EQ(a.tlbs.stlb().hits(), b.tlbs.stlb().hits());
    EXPECT_EQ(a.tlbs.stlb().misses(), b.tlbs.stlb().misses());
}

void
expectSamePwc(const PageWalkCache &a, const PageWalkCache &b)
{
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
}

/**
 * The simulator's loop, on both sides at once: a TLB lookup, a walk
 * after a miss (fillData on the walker side, insertData on the
 * reference side), then the data access.
 * @return the number of walks
 */
std::uint64_t
runLockstep(Side &a, TranslationMechanism &walker, Side &b,
            TranslationMechanism &reference, const Workload &workload)
{
    walker.recordSteps(true);
    reference.recordSteps(true);
    auto trace = workload.trace(kSeed);
    std::uint64_t walks = 0;
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        const Addr va = trace->next();
        const auto la = a.tlbs.lookupData(va);
        const auto lb = b.tlbs.lookupData(va);
        EXPECT_EQ(la.level, lb.level) << "access " << i;
        if (la.level != lb.level)
            return walks;
        if (la.level == TlbHierarchy::Result::Miss) {
            const WalkRecord ra = walker.walk(va);
            const WalkRecord rb = reference.walk(va);
            expectSameRecord(ra, rb, i);
            if (::testing::Test::HasFailure())
                return walks;
            a.tlbs.fillData(va, ra.size, ra.pa, ra.linear());
            b.tlbs.insertData(va, rb.size, rb.pa, rb.linear());
            a.caches.access(ra.pa);
            b.caches.access(rb.pa);
            ++walks;
        } else {
            const Addr pa = la.linear ? la.pa : walker.resolve(va);
            EXPECT_EQ(pa, lb.linear ? lb.pa : reference.resolve(va));
            a.caches.access(pa);
            b.caches.access(pa);
        }
    }
    expectSameCounters(a, b);
    return walks;
}

/** A copy of `regs` with its even slots cleared: VAs they covered
 *  fall back to the walker. */
DmtRegisterFile
withEvenSlotsCleared(const DmtRegisterFile &regs)
{
    DmtRegisterFile out = regs;
    for (int i = 0; i < DmtRegisterFile::capacity; i += 2)
        out.clear(i);
    return out;
}

class WalkLockstep : public ::testing::TestWithParam<ThpMode>
{
  protected:
    TestbedConfig
    cfg() const
    {
        return scaledTestbedConfig(kScale, GetParam());
    }
};

TEST_P(WalkLockstep, NativeRadixAndDmtFallback)
{
    const TestbedConfig config = cfg();
    for (Design design : {Design::Vanilla, Design::Dmt}) {
        SCOPED_TRACE(designName(design, false));
        auto workload = makeWorkload("GUPS", kScale);
        NativeTestbed tb(workload->footprintBytes(), config);
        if (design == Design::Dmt)
            tb.attachDmt();
        workload->setup(tb.proc());
        const RadixPageTable &pt = tb.proc().pageTable();
        {
            Side a(config), b(config);
            RadixWalker walker(pt, a.caches, config.pwc);
            RootRadixWalker reference(pt, b.caches, config.pwc);
            EXPECT_GT(runLockstep(a, walker, b, reference, *workload),
                      0u);
            expectSamePwc(walker.pwc(), reference.pwc());
        }
        if (design != Design::Dmt)
            continue;
        const DmtRegisterFile regs =
            withEvenSlotsCleared(tb.registers());
        Side a(config), b(config);
        RadixWalker walker(pt, a.caches, config.pwc);
        RootRadixWalker reference(pt, b.caches, config.pwc);
        DmtNativeFetcher fa(regs, pt, tb.mem(), a.caches, walker);
        DmtNativeFetcher fb(regs, pt, tb.mem(), b.caches, reference);
        runLockstep(a, fa, b, fb, *workload);
        expectSamePwc(walker.pwc(), reference.pwc());
        EXPECT_GT(fa.stats().fallbacks, 0u);
        EXPECT_EQ(fa.stats().fallbacks, fb.stats().fallbacks);
        EXPECT_EQ(fa.stats().direct, fb.stats().direct);
    }
}

TEST_P(WalkLockstep, VirtNestedShadowAndDmtFallback)
{
    const TestbedConfig config = cfg();
    for (Design design :
         {Design::Vanilla, Design::Shadow, Design::Dmt, Design::PvDmt}) {
        SCOPED_TRACE(designName(design, true));
        auto workload = makeWorkload("Redis", kScale);
        VirtTestbed tb(workload->footprintBytes(), config);
        const bool dmt = design == Design::Dmt || design == Design::PvDmt;
        if (dmt)
            tb.attachDmt(design == Design::PvDmt);
        workload->setup(tb.proc());
        const RadixPageTable &gpt = tb.vm().guestSpace().pageTable();
        const RadixPageTable &hpt = tb.vm().containerSpace().pageTable();
        const NestedWalker::GpaToHostVa gpaToHva{tb.vm().gpaToHva(0)};
        if (design == Design::Shadow) {
            tb.build(design);
            const RadixPageTable &spt = tb.shadowPager()->table();
            Side a(config), b(config);
            RadixWalker walker(spt, a.caches, config.pwc);
            RootRadixWalker reference(spt, b.caches, config.pwc);
            EXPECT_GT(runLockstep(a, walker, b, reference, *workload),
                      0u);
            expectSamePwc(walker.pwc(), reference.pwc());
            continue;
        }
        {
            Side a(config), b(config);
            NestedWalker walker(gpt, hpt, gpaToHva, a.caches,
                                config.pwc);
            RootNestedWalker reference(gpt, hpt, gpaToHva, b.caches,
                                       config.pwc);
            EXPECT_GT(runLockstep(a, walker, b, reference, *workload),
                      0u);
            expectSamePwc(walker.guestPwc(), reference.guestPwc());
            expectSamePwc(walker.nestedPwc(), reference.nestedPwc());
        }
        if (!dmt)
            continue;
        const DmtRegisterFile guestRegs =
            withEvenSlotsCleared(tb.guestRegisters());
        const GteaTable *gtea =
            design == Design::PvDmt ? &tb.gteaTable() : nullptr;
        Side a(config), b(config);
        NestedWalker walker(gpt, hpt, gpaToHva, a.caches, config.pwc);
        RootNestedWalker reference(gpt, hpt, gpaToHva, b.caches,
                                   config.pwc);
        DmtVirtFetcher fa(guestRegs, tb.hostRegisters(), tb.vm(),
                          tb.hostMem(), a.caches, walker, gtea);
        DmtVirtFetcher fb(guestRegs, tb.hostRegisters(), tb.vm(),
                          tb.hostMem(), b.caches, reference, gtea);
        runLockstep(a, fa, b, fb, *workload);
        expectSamePwc(walker.guestPwc(), reference.guestPwc());
        expectSamePwc(walker.nestedPwc(), reference.nestedPwc());
        EXPECT_GT(fa.stats().fallbacks, 0u);
        EXPECT_EQ(fa.stats().fallbacks, fb.stats().fallbacks);
        EXPECT_EQ(fa.stats().direct, fb.stats().direct);
    }
}

TEST_P(WalkLockstep, NestedShadowOnNestedAndPvDmtFallback)
{
    const TestbedConfig config = cfg();
    for (Design design : {Design::Vanilla, Design::PvDmt}) {
        SCOPED_TRACE(designName(design, true));
        auto workload = makeWorkload("XSBench", kScale);
        NestedTestbed tb(workload->footprintBytes(), config);
        if (design == Design::PvDmt)
            tb.attachPvDmt();
        workload->setup(tb.proc());
        tb.build(design);
        const RadixPageTable &l2pt = tb.stack().l2Space().pageTable();
        const RadixPageTable &spt = tb.shadowPager()->table();
        const NestedWalker::GpaToHostVa l2paToL1va{
            tb.stack().l2paToL1va(0)};
        {
            Side a(config), b(config);
            NestedWalker walker(l2pt, spt, l2paToL1va, a.caches,
                                config.pwc);
            RootNestedWalker reference(l2pt, spt, l2paToL1va, b.caches,
                                       config.pwc);
            EXPECT_GT(runLockstep(a, walker, b, reference, *workload),
                      0u);
            expectSamePwc(walker.guestPwc(), reference.guestPwc());
            expectSamePwc(walker.nestedPwc(), reference.nestedPwc());
        }
        if (design != Design::PvDmt)
            continue;
        // Empty register files: every translation is the fetcher's
        // fallback walk.
        const DmtRegisterFile none;
        const GteaTable noGtea;
        Side a(config), b(config);
        NestedWalker walker(l2pt, spt, l2paToL1va, a.caches, config.pwc);
        RootNestedWalker reference(l2pt, spt, l2paToL1va, b.caches,
                                   config.pwc);
        DmtNestedFetcher fa(none, none, none, tb.stack(), tb.l0Mem(),
                            a.caches, walker, noGtea, noGtea);
        DmtNestedFetcher fb(none, none, none, tb.stack(), tb.l0Mem(),
                            b.caches, reference, noGtea, noGtea);
        EXPECT_GT(runLockstep(a, fa, b, fb, *workload), 0u);
        expectSamePwc(walker.guestPwc(), reference.guestPwc());
        expectSamePwc(walker.nestedPwc(), reference.nestedPwc());
        EXPECT_EQ(fa.stats().fallbacks, fa.stats().requests);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, WalkLockstep,
    ::testing::Values(ThpMode::Never, ThpMode::Always),
    [](const ::testing::TestParamInfo<ThpMode> &p) {
        return std::string(p.param == ThpMode::Never ? "Size4K"
                                                      : "Thp");
    });

} // namespace
} // namespace dmt
