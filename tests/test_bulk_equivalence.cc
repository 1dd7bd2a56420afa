/**
 * @file
 * The leaf-table-at-a-time paths against their per-leaf references.
 * An address space's teardown frees merged frame runs; its reference
 * frees every leaf frame on its own and then the table pages one by
 * one. ShadowPager::syncAll() shadows a 2 MB span of 4 KB guest
 * leaves at a time; its reference is syncPage() on every guest leaf.
 * A TEA grant's replaceBacking() splices its run a span at a time;
 * its reference splices one page per call. Each pair must leave the
 * same allocators, memory and tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "buddy_drain.hh"
#include "check/invariant_auditor.hh"
#include "mem/physical_memory.hh"
#include "os/address_space.hh"
#include "virt/guest_memory_view.hh"
#include "virt/shadow_pager.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{
namespace
{

using LeafList = std::vector<std::tuple<Addr, Pfn, PageSize>>;

LeafList
leavesOf(const RadixPageTable &pt)
{
    LeafList out;
    pt.forEachLeaf([&](Addr va, Pfn pfn, PageSize size) {
        out.emplace_back(va, pfn, size);
    });
    return out;
}

/** VMAs with aligned, unaligned and span-straddling heads and tails. */
const std::vector<std::pair<Addr, Addr>> layoutVmas = {
    {0x40000000, 4 * hugePageSize},
    {0x50003000, 5 * hugePageSize / 2 + 5 * pageSize},
    {0x601ff000, 3 * pageSize},
};

// ------------------------------------------------------------- teardown

/**
 * Places the level-1 tables of every other 2 MB span in one
 * contiguous run, as a TEA does, and records each release. Its run
 * stays allocated: the allocator's state is compared while both
 * twins still hold it.
 */
class RunProvider : public TableFrameProvider
{
  public:
    RunProvider(BuddyAllocator &alloc, std::uint64_t pages)
        : pages_(pages),
          base_(*alloc.allocContig(pages, FrameKind::PageTable))
    {
    }

    std::optional<Pfn>
    provideTableFrame(int level, Addr span_base) override
    {
        if (level != 1 || (span_base / hugePageSize) % 2 != 0 ||
            used_ == pages_) {
            return std::nullopt;
        }
        return base_ + used_++;
    }

    void
    releaseTableFrame(int level, Addr span_base, Pfn pfn) override
    {
        released.emplace_back(level, span_base, pfn);
    }

    /** (level, span, frame) of every release, in call order. */
    std::vector<std::tuple<int, Addr, Pfn>> released;

  private:
    std::uint64_t pages_;
    Pfn base_;
    std::uint64_t used_ = 0;
};

struct TeardownCase
{
    const char *name;
    ThpMode thp;
    bool guest;     //!< a guest space over a GuestMemoryView
    bool provider;  //!< TEA-resident level-1 tables (a RunProvider)
};

/** Print a case by name: the test IDs must not carry pointer bytes. */
void
PrintTo(const TeardownCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Take the free frame `want` out of the allocator. */
Pfn
claimFrame(BuddyAllocator &alloc, Pfn want)
{
    // Single frames come lowest first from the smallest order, and
    // `want` is a lone free frame: the frames below it are few.
    std::vector<Pfn> held;
    Pfn got = *alloc.allocPages(0, FrameKind::PageTable);
    while (got != want && held.size() < 4096) {
        held.push_back(got);
        got = *alloc.allocPages(0, FrameKind::PageTable);
    }
    for (const Pfn pfn : held)
        alloc.freePages(pfn, 0);
    EXPECT_EQ(got, want);
    return got;
}

/**
 * A guest machine built the way VirtualMachine builds one (container
 * space, guest allocator, view, guest space), with each part owned
 * separately so each space can be torn down on its own; or a native
 * space alone. Frames are spliced into the space under test alone, in
 * runs and at run edges, and a guest's container also holds a
 * TeaHypercall-style grant.
 */
class TeardownMachine
{
  public:
    static constexpr Addr gpaBaseHva = Addr{1} << 39;
    static constexpr Addr guestBytes = Addr{64} << 20;

    explicit TeardownMachine(const TeardownCase &c)
        : mem_(Addr{256} << 20), hostAlloc_(mem_.size() >> pageShift)
    {
        AddressSpaceConfig cfg;
        cfg.thp = c.thp;
        host_ = std::make_unique<AddressSpace>(mem_, hostAlloc_, cfg);
        if (c.guest) {
            host_->mmapAt(gpaBaseHva, guestBytes, VmaKind::MappedFile);
            guestAlloc_ =
                std::make_unique<BuddyAllocator>(guestBytes >> pageShift);
            view_ = std::make_unique<GuestMemoryView>(
                mem_, host_->pageTable(), gpaBaseHva, guestBytes);
            guest_ = std::make_unique<AddressSpace>(*view_, *guestAlloc_,
                                                    cfg);
        }
        if (c.provider) {
            provider_ = std::make_unique<RunProvider>(alloc(), 32);
            space().pageTable().setFrameProvider(provider_.get());
        }
        for (const auto &[base, size] : layoutVmas)
            space().mmapAt(base, size, VmaKind::Heap);
        spliceIntoRuns(space(), alloc(), spliced_);
        if (c.guest)
            grant();
    }

    AddressSpace &space() { return guest_ ? *guest_ : *host_; }
    BuddyAllocator &alloc() { return guest_ ? *guestAlloc_ : hostAlloc_; }
    AddressSpace &container() { return *host_; }
    BuddyAllocator &hostAlloc() { return hostAlloc_; }
    BuddyAllocator *guestAlloc() { return guestAlloc_.get(); }
    PhysicalMemory &mem() { return mem_; }
    RunProvider *provider() { return provider_.get(); }
    const std::set<Pfn> &spliced() const { return spliced_; }
    const std::set<Pfn> &hostSpliced() const { return hostSpliced_; }

    /** Destroy the space under test. */
    void
    dropSpace()
    {
        if (guest_)
            guest_.reset();
        else
            host_.reset();
    }

    /** Destroy a guest's container after its guest space. */
    void
    dropContainer()
    {
        view_.reset();
        host_.reset();
    }

  private:
    /** Re-point va at the frame it maps now, leaving it spliced. */
    static void
    spliceInPlace(AddressSpace &space, BuddyAllocator &alloc, Addr va,
                  std::set<Pfn> &spliced)
    {
        const Pfn old = space.pageTable().translate(va)->pa >> pageShift;
        const Pfn temp = *alloc.allocPages(0, FrameKind::PageTable);
        space.replaceBacking(va, temp, 1);  // frees `old`
        space.replaceBacking(va, claimFrame(alloc, old), 1);
        spliced.insert(temp);  // displaced, still the caller's
        spliced.insert(old);
    }

    /**
     * Splice frames into a space's 4 KB runs of consecutive frames:
     * one at the start of a run, one inside a run, one at the end of
     * a run, and one far from every frame the space owns.
     */
    static void
    spliceIntoRuns(AddressSpace &space, BuddyAllocator &alloc,
                   std::set<Pfn> &spliced)
    {
        const LeafList leaves = leavesOf(space.pageTable());
        std::optional<Addr> start, inside, end;
        for (std::size_t i = 1; i + 1 < leaves.size(); ++i) {
            const auto &[va, pfn, size] = leaves[i];
            if (size != PageSize::Size4K)
                continue;
            const auto follows = [](const auto &a, const auto &b) {
                return std::get<2>(a) == PageSize::Size4K &&
                       std::get<2>(b) == PageSize::Size4K &&
                       std::get<1>(b) == std::get<1>(a) + 1;
            };
            const bool afterPrev = follows(leaves[i - 1], leaves[i]);
            const bool beforeNext = follows(leaves[i], leaves[i + 1]);
            if (!afterPrev && beforeNext && !start)
                start = va;
            else if (afterPrev && beforeNext && !inside)
                inside = va;
            else if (afterPrev && !beforeNext && !end)
                end = va;
        }
        ASSERT_TRUE(start && inside && end);
        for (const Addr va : {*start, *inside, *end})
            spliceInPlace(space, alloc, va, spliced);
        const Pfn far = *alloc.allocPages(4, FrameKind::PageTable);
        space.replaceBacking(std::get<0>(leaves[leaves.size() / 2]),
                             far + 5, 1);
        spliced.insert(far + 5);
    }

    /**
     * What TeaHypercall::allocTea does: a host run spliced behind a
     * run of guest frames, in one call on the container.
     */
    void
    grant()
    {
        constexpr std::uint64_t pages = 37;
        const Pfn host = *hostAlloc_.allocContig(pages,
                                                 FrameKind::PageTable);
        const Pfn gpa = *guestAlloc_->allocContig(pages,
                                                  FrameKind::PageTable);
        host_->replaceBacking(gpaBaseHva + (gpa << pageShift), host,
                              pages);
        for (std::uint64_t i = 0; i < pages; ++i)
            hostSpliced_.insert(host + i);
        // And one spliced in place behind a free guest frame.
        const Pfn lone = *guestAlloc_->allocPages(0, FrameKind::PageTable);
        spliceInPlace(*host_, hostAlloc_,
                      gpaBaseHva + (lone << pageShift), hostSpliced_);
    }

    PhysicalMemory mem_;
    BuddyAllocator hostAlloc_;
    std::unique_ptr<RunProvider> provider_;  // outlives both spaces
    std::unique_ptr<AddressSpace> host_;
    std::unique_ptr<BuddyAllocator> guestAlloc_;
    std::unique_ptr<GuestMemoryView> view_;
    std::unique_ptr<AddressSpace> guest_;
    std::set<Pfn> spliced_;
    std::set<Pfn> hostSpliced_;
};

/**
 * The reference teardown: free every owned leaf frame on its own in
 * ascending VA order, then unmap every leaf, which frees each table
 * page on its own as it empties (a TEA-resident one goes back to the
 * provider). Only the root is left for the destructor.
 */
void
referenceTeardown(AddressSpace &space, BuddyAllocator &alloc,
                  const std::set<Pfn> &spliced)
{
    RadixPageTable &pt = space.pageTable();
    std::vector<Addr> vas;
    pt.forEachLeaf([&](Addr va, Pfn pfn, PageSize size) {
        vas.push_back(va);
        if (size == PageSize::Size4K && spliced.count(pfn))
            return;
        alloc.freePages(pfn, size == PageSize::Size4K ? 0 : 9);
    });
    for (const Addr va : vas)
        pt.unmap(va);
    EXPECT_EQ(pt.tablePages(), 1u);
}

/** Allocators, memory and provider releases must all agree. */
void
expectSameAfterTeardown(TeardownMachine &a, TeardownMachine &b)
{
    expectSameAllocator(a.hostAlloc(), b.hostAlloc());
    if (a.guestAlloc())
        expectSameAllocator(*a.guestAlloc(), *b.guestAlloc());
    EXPECT_EQ(a.mem().framesInUse(), b.mem().framesInUse());
    EXPECT_EQ(a.mem().wordsInUse(), b.mem().wordsInUse());
    if (a.provider()) {
        auto want = b.provider()->released;
        auto got = a.provider()->released;
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
    }
}

class TeardownEquivalence : public ::testing::TestWithParam<TeardownCase>
{
};

TEST_P(TeardownEquivalence, MergedRunsMatchLeafByLeafRelease)
{
    const TeardownCase &c = GetParam();
    TeardownMachine merged(c);
    TeardownMachine reference(c);
    ASSERT_EQ(leavesOf(merged.space().pageTable()),
              leavesOf(reference.space().pageTable()));
    ASSERT_EQ(merged.spliced().size(), 7u);
    if (c.provider) {
        ASSERT_GT(merged.space().pageTable().tablePages(), 1u);
        EXPECT_TRUE(merged.provider()->released.empty());
    }

    merged.dropSpace();
    referenceTeardown(reference.space(), reference.alloc(),
                      reference.spliced());
    reference.dropSpace();
    expectSameAfterTeardown(merged, reference);
    if (c.provider) {
        EXPECT_FALSE(merged.provider()->released.empty());
    }
    // Spliced frames stay the caller's: allocated, never freed.
    BuddyAllocator &alloc = c.guest ? *merged.guestAlloc()
                                    : merged.hostAlloc();
    for (const Pfn pfn : merged.spliced())
        EXPECT_EQ(alloc.kindOf(pfn), FrameKind::PageTable) << pfn;

    if (c.guest) {
        merged.dropContainer();
        referenceTeardown(reference.container(), reference.hostAlloc(),
                          reference.hostSpliced());
        reference.dropContainer();
        expectSameAfterTeardown(merged, reference);
        for (const Pfn pfn : merged.hostSpliced()) {
            EXPECT_EQ(merged.hostAlloc().kindOf(pfn),
                      FrameKind::PageTable)
                << pfn;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TeardownEquivalence,
    ::testing::Values(
        TeardownCase{"native_4k", ThpMode::Never, false, false},
        TeardownCase{"native_thp", ThpMode::Always, false, false},
        TeardownCase{"native_4k_teas", ThpMode::Never, false, true},
        TeardownCase{"native_thp_teas", ThpMode::Always, false, true},
        TeardownCase{"guest_4k", ThpMode::Never, true, false},
        TeardownCase{"guest_thp", ThpMode::Always, true, false},
        TeardownCase{"guest_4k_teas", ThpMode::Never, true, true}),
    [](const ::testing::TestParamInfo<TeardownCase> &param) {
        return std::string(param.param.name);
    });

// Two runs that share a frame are a double release: the merge
// panics before any frame goes back.
TEST(FreeRunsDeathTest, OverlappingRunsPanic)
{
    BuddyAllocator alloc(1024);
    const Pfn base = *alloc.allocContig(16, FrameKind::Movable);
    std::vector<FrameRun> runs = {{base + 8, 8}, {base, 9}};
    EXPECT_DEATH(alloc.freeRuns(runs), "released twice");
}

TEST(FreeRuns, TouchingRunsFreeAsOneInAnyOrder)
{
    BuddyAllocator merged(1024);
    BuddyAllocator single(1024);
    const Pfn base = *merged.allocContig(40, FrameKind::Movable);
    ASSERT_EQ(single.allocContig(40, FrameKind::Movable), base);
    std::vector<FrameRun> runs = {{base + 30, 10}, {base, 1},
                                  {base + 1, 29}};
    merged.freeRuns(runs);
    for (Pfn pfn = base; pfn < base + 40; ++pfn)
        single.freePages(pfn, 0);
    expectSameAllocator(merged, single);
}

// ---------------------------------------------------------- shadow sync

struct ShadowCase
{
    const char *name;
    ThpMode hostThp;
    ThpMode guestThp;
};

void
PrintTo(const ShadowCase &c, std::ostream *os)
{
    *os << c.name;
}

/**
 * A VM whose guest has holes, 4 KB runs broken by 2 MB leaves and
 * runs across span boundaries, over a container with spliced frames,
 * plus an empty shadow pager whose table and host allocator are
 * swept at every mutation event.
 */
class ShadowMachine
{
  public:
    explicit ShadowMachine(const ShadowCase &c)
        : mem_(Addr{64} << 20), hostAlloc_(mem_.size() >> pageShift)
    {
        VmConfig vc;
        vc.vmBytes = Addr{24} << 20;
        vc.hostThp = c.hostThp;
        vc.guestThp = c.guestThp;
        vm_ = std::make_unique<VirtualMachine>(mem_, hostAlloc_, vc);
        AddressSpace &guest = vm_->guestSpace();
        for (const auto &[base, size] : layoutVmas) {
            guest.mmapAt(base, size, VmaKind::Heap, /*populate=*/false);
            // Leave every seventh page of the first half-span a hole.
            for (Addr va = base; va < base + size; va += pageSize) {
                const Addr page = (va - base) >> pageShift;
                if (page >= 256 || page % 7 != 3)
                    guest.touch(va);
            }
        }
        // Splice host frames behind a few guest data pages: under 4 KB
        // guest leaves and, with guest THP, inside a 2 MB one.
        const LeafList leaves = leavesOf(guest.pageTable());
        for (const std::size_t i :
             {std::size_t{0}, leaves.size() / 3, leaves.size() / 2}) {
            const auto &[va, pfn, size] = leaves[i];
            const Pfn gpfn = pfn + (size == PageSize::Size4K ? 0 : 1);
            const Pfn host = *hostAlloc_.allocPages(0,
                                                    FrameKind::PageTable);
            vm_->containerSpace().replaceBacking(
                vm_->gpaToHva(gpfn << pageShift), host, 1);
        }
        shadow_ = std::make_unique<ShadowPager>(mem_, hostAlloc_, guest,
                                                vm_->guestMem());
        hostAlloc_.attachAuditor(auditor_, "host-buddy");
        shadow_->table().attachAuditor(auditor_, "spt");
        auditor_.setInterval(1);
    }

    // Teardown is not under test.
    ~ShadowMachine() { auditor_.setInterval(0); }

    ShadowMachine(const ShadowMachine &) = delete;
    ShadowMachine &operator=(const ShadowMachine &) = delete;

    VirtualMachine &vm() { return *vm_; }
    ShadowPager &shadow() { return *shadow_; }
    BuddyAllocator &hostAlloc() { return hostAlloc_; }
    PhysicalMemory &mem() { return mem_; }
    InvariantAuditor &auditor() { return auditor_; }

  private:
    InvariantAuditor auditor_;  // outlives everything it audits
    PhysicalMemory mem_;
    BuddyAllocator hostAlloc_;
    std::unique_ptr<VirtualMachine> vm_;
    std::unique_ptr<ShadowPager> shadow_;
};

class ShadowSyncEquivalence : public ::testing::TestWithParam<ShadowCase>
{
};

TEST_P(ShadowSyncEquivalence, SpanSyncAllMatchesPerLeafSyncPage)
{
    const ShadowCase &c = GetParam();
    ShadowMachine spans(c);
    ShadowMachine perLeaf(c);
    spans.shadow().syncAll();
    const LeafList guestLeaves =
        leavesOf(perLeaf.vm().guestSpace().pageTable());
    for (const auto &[va, pfn, size] : guestLeaves)
        perLeaf.shadow().syncPage(va);

    const RadixPageTable &want = perLeaf.shadow().table();
    const RadixPageTable &got = spans.shadow().table();
    EXPECT_EQ(leavesOf(got), leavesOf(want));
    EXPECT_EQ(spans.shadow().exits(), perLeaf.shadow().exits());
    EXPECT_EQ(spans.shadow().exits(), guestLeaves.size());
    EXPECT_EQ(got.mappedLeaves(), want.mappedLeaves());
    EXPECT_EQ(got.tablePages(), want.tablePages());
    EXPECT_EQ(got.leafEpoch(), want.leafEpoch());
    EXPECT_EQ(spans.mem().framesInUse(), perLeaf.mem().framesInUse());
    EXPECT_EQ(spans.mem().wordsInUse(), perLeaf.mem().wordsInUse());
    if (c.guestThp == ThpMode::Always) {
        // 4 KB runs on both sides of 2 MB leaves, and one 2 MB leaf
        // shattered by its spliced backing.
        EXPECT_LT(guestLeaves.size(), got.mappedLeaves());
    }
    for (ShadowMachine *m : {&spans, &perLeaf}) {
        EXPECT_TRUE(m->auditor().clean());
        m->auditor().setInterval(0);  // the drains below tick a lot
    }
    EXPECT_EQ(spans.auditor().stats().sweeps,
              perLeaf.auditor().stats().sweeps);
    EXPECT_GE(spans.auditor().stats().sweeps, guestLeaves.size());
    expectSameAllocator(spans.hostAlloc(), perLeaf.hostAlloc());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ShadowSyncEquivalence,
    ::testing::Values(
        ShadowCase{"host_4k_guest_4k", ThpMode::Never, ThpMode::Never},
        ShadowCase{"host_4k_guest_thp", ThpMode::Never, ThpMode::Always},
        ShadowCase{"host_thp_guest_4k", ThpMode::Always, ThpMode::Never},
        ShadowCase{"host_thp_guest_thp", ThpMode::Always,
                   ThpMode::Always}),
    [](const ::testing::TestParamInfo<ShadowCase> &param) {
        return std::string(param.param.name);
    });

// --------------------------------------------------------------- splice

struct SpliceCase
{
    const char *name;
    ThpMode hostThp;
};

void
PrintTo(const SpliceCase &c, std::ostream *os)
{
    *os << c.name;
}

/** A grant: fresh host frames behind `pages` guest frames from gpfn. */
struct Grant
{
    Pfn gpfn;
    std::uint64_t pages;
};

/**
 * Grants that start and end mid-span, cover a whole span or several,
 * land in spans a 2 MB container leaf maps, and re-splice over the
 * frames of earlier grants, in whole or in part. With THP, the first
 * grant frees a lone frame in its first span that the demotion of its
 * second span takes for its table page, if the frees come first.
 */
const std::vector<Grant> spliceGrants = {
    {301, 400},    // mid-span to mid-span, across one span edge
    {1000, 1100},  // mid-span, over two whole spans, into a fourth
    {350, 100},    // inside the first grant's frames
    {3072, 512},   // exactly one aligned span
    {4000, 1},     // one page
    {2050, 60},    // half over the second grant, half fresh
    {250, 600},    // around the first and third grants
};

/**
 * A VM whose container gets spliceGrants, each a fresh host run
 * spliced as one replaceBacking() run or as `pages` one-page runs,
 * with the host allocator and the container table swept at every
 * mutation event.
 */
class SpliceMachine
{
  public:
    SpliceMachine(const SpliceCase &c, bool as_run)
        : mem_(Addr{48} << 20), hostAlloc_(mem_.size() >> pageShift)
    {
        VmConfig vc;
        vc.vmBytes = Addr{24} << 20;
        vc.hostThp = c.hostThp;
        vm_ = std::make_unique<VirtualMachine>(mem_, hostAlloc_, vc);
        AddressSpace &container = vm_->containerSpace();
        hostAlloc_.attachAuditor(auditor_, "host-buddy");
        container.pageTable().attachAuditor(auditor_, "container-pt");
        auditor_.setInterval(1);
        for (const Grant &g : spliceGrants) {
            const Pfn host =
                *hostAlloc_.allocContig(g.pages, FrameKind::PageTable);
            const Addr hva = vm_->gpaToHva(g.gpfn << pageShift);
            if (as_run) {
                container.replaceBacking(hva, host, g.pages);
            } else {
                for (std::uint64_t i = 0; i < g.pages; ++i) {
                    container.replaceBacking(hva + (i << pageShift),
                                             host + i, 1);
                }
            }
            granted.push_back({host, g.pages});
        }
        auditor_.setInterval(0);
    }

    VirtualMachine &vm() { return *vm_; }
    BuddyAllocator &hostAlloc() { return hostAlloc_; }
    PhysicalMemory &mem() { return mem_; }
    InvariantAuditor &auditor() { return auditor_; }

    /** Tear the VM down; the granted frames stay allocated. */
    void dropVm() { vm_.reset(); }

    /** The host run of every grant, in grant order. */
    std::vector<FrameRun> granted;

  private:
    InvariantAuditor auditor_;  // outlives everything it audits
    PhysicalMemory mem_;
    BuddyAllocator hostAlloc_;
    std::unique_ptr<VirtualMachine> vm_;
};

class SpliceEquivalence : public ::testing::TestWithParam<SpliceCase>
{
};

TEST_P(SpliceEquivalence, RunSpliceMatchesOnePageAtATime)
{
    const SpliceCase &c = GetParam();
    SpliceMachine runs(c, true);
    SpliceMachine pages(c, false);
    const AddressSpace &got = runs.vm().containerSpace();
    const AddressSpace &want = pages.vm().containerSpace();
    EXPECT_EQ(leavesOf(got.pageTable()), leavesOf(want.pageTable()));
    EXPECT_EQ(got.dataFrames(), want.dataFrames());
    EXPECT_EQ(got.hugeMappings(), want.hugeMappings());
    EXPECT_EQ(got.pageTable().tablePages(), want.pageTable().tablePages());
    EXPECT_EQ(got.pageTable().leafEpoch(), want.pageTable().leafEpoch());
    EXPECT_EQ(runs.mem().framesInUse(), pages.mem().framesInUse());
    EXPECT_EQ(runs.mem().wordsInUse(), pages.mem().wordsInUse());
    EXPECT_EQ(runs.granted.size(), pages.granted.size());
    for (std::size_t i = 0; i < runs.granted.size(); ++i)
        EXPECT_EQ(runs.granted[i].base, pages.granted[i].base) << i;

    // The container gave up one frame per guest page ever spliced;
    // a re-spliced page displaced a granted frame, not its own.
    std::set<Pfn> splicedPages;
    for (const Grant &g : spliceGrants) {
        for (std::uint64_t i = 0; i < g.pages; ++i)
            splicedPages.insert(g.gpfn + i);
    }
    const std::uint64_t vmFrames = (Addr{24} << 20) >> pageShift;
    EXPECT_EQ(got.dataFrames(), vmFrames - splicedPages.size());
    if (c.hostThp == ThpMode::Always) {
        // Grants land in spans 0-4, 6 and 7 of the twelve.
        EXPECT_EQ(got.hugeMappings(), 5u);
    }
    for (SpliceMachine *m : {&runs, &pages}) {
        EXPECT_TRUE(m->auditor().clean());
        EXPECT_GT(m->auditor().stats().sweeps, splicedPages.size());
    }
    expectSameAllocator(runs.hostAlloc(), pages.hostAlloc());

    // Teardown frees every frame the container owns and no granted
    // frame, displaced or still mapped.
    runs.dropVm();
    pages.dropVm();
    expectSameAllocator(runs.hostAlloc(), pages.hostAlloc());
    std::uint64_t grantedFrames = 0;
    for (const FrameRun &run : runs.granted) {
        grantedFrames += run.pages;
        for (Pfn pfn = run.base; pfn < run.base + run.pages; ++pfn) {
            ASSERT_EQ(runs.hostAlloc().kindOf(pfn), FrameKind::PageTable)
                << pfn;
        }
    }
    EXPECT_EQ(runs.hostAlloc().freeFrames(),
              runs.hostAlloc().numFrames() - grantedFrames);
}

// A grant whose frames are spliced here already is a double splice.
TEST(SpliceDeathTest, OverlappingGrantPanics)
{
    PhysicalMemory mem(Addr{16} << 20);
    BuddyAllocator alloc(mem.size() >> pageShift);
    AddressSpace space(mem, alloc, {});
    space.mmapAt(0x40000000, 64 * pageSize, VmaKind::Heap);
    const Pfn host = *alloc.allocContig(12, FrameKind::PageTable);
    space.replaceBacking(0x40000000, host, 8);
    // Touching the run is fine; sharing a frame is not.
    space.replaceBacking(0x40000000 + 8 * pageSize, host + 8, 4);
    EXPECT_DEATH(space.replaceBacking(0x40000000 + 20 * pageSize,
                                      host + 3, 2),
                 "overlap a spliced run");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpliceEquivalence,
    ::testing::Values(SpliceCase{"container_4k", ThpMode::Never},
                      SpliceCase{"container_thp", ThpMode::Always}),
    [](const ::testing::TestParamInfo<SpliceCase> &param) {
        return std::string(param.param.name);
    });

} // namespace
} // namespace dmt
