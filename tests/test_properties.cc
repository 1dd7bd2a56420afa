/**
 * @file
 * Additional property suites: VMA-change accommodation (§4.2.3),
 * span populate against per-page touch(), directProbe
 * micro-behaviour, buddy order sweeps, TLB/cache
 * geometry sweeps, the recency-ordered cache in lockstep with a
 * stamp-LRU model, EPT huge pages in the nested walker, calibration
 * sanity against the paper's reported averages, and the search-free
 * TLB fill against insertData().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "buddy_drain.hh"
#include "check/invariant_auditor.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/dmt_fetcher.hh"
#include "core/mapping_manager.hh"
#include "host/register_file.hh"
#include "mem/cache.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"
#include "os/fragmenter.hh"
#include "sim/testbed.hh"
#include "virt/nested_walker.hh"
#include "virt/virtual_machine.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

// ------------------------------------------------- §4.2.3 VMA changes

struct GrowFixture : public ::testing::Test
{
    GrowFixture()
        : mem(Addr{1} << 31), alloc((Addr{1} << 31) >> pageShift),
          proc(mem, alloc, {}), source(alloc),
          teas(proc.pageTable(), source),
          manager(proc, teas, regs, {})
    {
    }

    PhysicalMemory mem;
    BuddyAllocator alloc;
    AddressSpace proc;
    LocalTeaSource source;
    TeaManager teas;
    DmtRegisterFile regs;
    MappingManager manager;
};

TEST_F(GrowFixture, VmaGrowthExpandsTheTea)
{
    proc.mmapAt(0x40000000, 4 * hugePageSize, VmaKind::Heap);
    const Tea *before = teas.lookup(0x40000000, PageSize::Size4K);
    ASSERT_NE(before, nullptr);
    const Addr coverBefore = before->coverBytes;

    proc.growVma(0x40000000, 12 * hugePageSize);
    const Tea *after = teas.lookup(0x40000000, PageSize::Size4K);
    ASSERT_NE(after, nullptr);
    EXPECT_GT(after->coverBytes, coverBefore);
    // Every page of the grown VMA keeps the placement invariant.
    for (Addr va = 0x40000000; va < 0x40000000 + 12 * hugePageSize;
         va += hugePageSize) {
        const auto slot =
            proc.pageTable().leafPteAddr(va, PageSize::Size4K);
        ASSERT_TRUE(slot.has_value());
        EXPECT_EQ(*slot, after->pteAddr(va));
    }
    EXPECT_GE(teas.stats().expandsInPlace + teas.stats().migrations,
              1u);
}

TEST_F(GrowFixture, VmaShrinkAndDestroyShrinkTheTeaSet)
{
    proc.mmapAt(0x40000000, 8 * hugePageSize, VmaKind::Heap);
    proc.vmas().shrink(0x40000000, 2 * hugePageSize);
    const Tea *tea = teas.lookup(0x40000000, PageSize::Size4K);
    ASSERT_NE(tea, nullptr);
    EXPECT_EQ(tea->coverBytes, 2 * hugePageSize);
    proc.munmap(0x40000000);
    EXPECT_TRUE(teas.all().empty());
    EXPECT_EQ(regs.used(), 0);
}

TEST_F(GrowFixture, SplitVmaKeepsOneCluster)
{
    proc.mmapAt(0x40000000, 8 * hugePageSize, VmaKind::Heap);
    proc.vmas().split(0x40000000, 0x40000000 + 4 * hugePageSize);
    // Two adjacent VMAs: still one cluster, one TEA.
    EXPECT_EQ(manager.clusters().size(), 1u);
    EXPECT_EQ(teas.all().size(), 1u);
}

// ------------------------------------ populate() = per-page touch()

/** One populate scenario, built twice: once per page, once per span. */
struct PopulateCase
{
    const char *name;
    ThpMode thp;
    bool guest;     //!< a guest space over a GuestMemoryView
    bool teas;      //!< a TeaManager frame provider attached
    bool fragment;  //!< only four 2 MB blocks survive fragmentation
    Addr growTo;    //!< grow the first VMA to this size; 0 = no growth
};

/** Print a case by name: the test IDs must not carry pointer bytes. */
void
PrintTo(const PopulateCase &c, std::ostream *os)
{
    *os << c.name;
}

/** VMAs with aligned, unaligned and span-straddling heads and tails. */
const std::vector<std::pair<Addr, Addr>> populateVmas = {
    {0x40000000, 16 * hugePageSize},
    {0x50003000, 5 * hugePageSize / 2 + 5 * pageSize},
    {0x601ff000, 3 * pageSize},
    {0x70000000, hugePageSize},
};

/** Memory, allocator, optional VM and TEAs, and one audited space. */
class PopulateMachine
{
  public:
    explicit PopulateMachine(const PopulateCase &c)
        : mem_(Addr{1} << 30), hostAlloc_(mem_.size() >> pageShift)
    {
        if (c.guest) {
            VmConfig vc;
            vc.vmBytes = Addr{256} << 20;
            vc.hostThp = c.thp;
            vc.guestThp = c.thp;
            vm_ = std::make_unique<VirtualMachine>(mem_, hostAlloc_, vc);
        } else {
            AddressSpaceConfig cfg;
            cfg.thp = c.thp;
            native_ =
                std::make_unique<AddressSpace>(mem_, hostAlloc_, cfg);
        }
        if (c.fragment) {
            // Set four 2 MB blocks aside, leave every other remaining
            // frame free, then give the blocks back: the first four
            // THP regions get huge frames and later ones fall back.
            std::vector<Pfn> huge;
            for (int i = 0; i < 4; ++i)
                huge.push_back(*alloc().allocPages(9, FrameKind::Movable));
            frag_ = std::make_unique<Fragmenter>(alloc());
            frag_->fragment(0.5);
            for (const Pfn pfn : huge)
                alloc().freePages(pfn, 9);
        }
        if (c.teas) {
            MappingConfig mc;
            mc.tea2m = c.thp == ThpMode::Always;
            source_ = std::make_unique<LocalTeaSource>(alloc());
            teas_ = std::make_unique<TeaManager>(space().pageTable(),
                                                 *source_);
            mapping_ = std::make_unique<MappingManager>(space(), *teas_,
                                                        regs_, mc);
            teas_->attachAuditor(auditor_, "tea");
            mapping_->attachAuditor(auditor_, "mapping");
        }
        alloc().attachAuditor(auditor_, "buddy");
        space().pageTable().attachAuditor(auditor_, "pt");
        if (vm_) {
            hostAlloc_.attachAuditor(auditor_, "host-buddy");
            vm_->containerSpace().pageTable().attachAuditor(auditor_,
                                                            "host-pt");
        }
        auditor_.setInterval(211);  // sweep in the middle of spans too
    }

    // Teardown (the fragmenter's release above all) is not under test.
    ~PopulateMachine() { auditor_.setInterval(0); }

    PopulateMachine(const PopulateMachine &) = delete;
    PopulateMachine &operator=(const PopulateMachine &) = delete;

    AddressSpace &space() { return vm_ ? vm_->guestSpace() : *native_; }
    BuddyAllocator &
    alloc()
    {
        return vm_ ? vm_->guestAllocator() : hostAlloc_;
    }
    BuddyAllocator &hostAlloc() { return hostAlloc_; }
    InvariantAuditor &auditor() { return auditor_; }

  private:
    InvariantAuditor auditor_;
    PhysicalMemory mem_;
    BuddyAllocator hostAlloc_;
    std::unique_ptr<VirtualMachine> vm_;
    std::unique_ptr<AddressSpace> native_;
    std::unique_ptr<Fragmenter> frag_;
    std::unique_ptr<LocalTeaSource> source_;
    std::unique_ptr<TeaManager> teas_;
    DmtRegisterFile regs_;
    std::unique_ptr<MappingManager> mapping_;
};

/** Lay out the case's VMAs, filling each with `fill` once it exists. */
template <typename Fill>
void
buildPopulateCase(PopulateMachine &m, const PopulateCase &c, Fill fill)
{
    for (const auto &[base, size] : populateVmas) {
        m.space().mmapAt(base, size, VmaKind::Heap, /*populate=*/false);
        fill(*m.space().vmas().findByBase(base));
    }
    if (c.growTo) {
        const Addr base = populateVmas.front().first;
        m.space().growVma(base, c.growTo, /*populate=*/false);
        fill(*m.space().vmas().findByBase(base));
    }
}

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

class PopulateEquivalence : public ::testing::TestWithParam<PopulateCase>
{
};

TEST_P(PopulateEquivalence, SpanPopulateMatchesPerPageTouch)
{
    const PopulateCase &c = GetParam();
    PopulateMachine perPage(c);
    PopulateMachine perSpan(c);
    buildPopulateCase(perPage, c, [&](const Vma &vma) {
        for (Addr va = vma.base; va < vma.end(); va += pageSize)
            perPage.space().touch(va);
    });
    buildPopulateCase(perSpan, c, [&](const Vma &vma) {
        perSpan.space().populate(vma);
    });

    const LeafList want = leavesOf(perPage.space().pageTable());
    const LeafList got = leavesOf(perSpan.space().pageTable());
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i] != got[i]) {
            ADD_FAILURE() << "leaf " << i << " at va 0x" << std::hex
                          << std::get<0>(want[i]) << " differs";
            break;
        }
    }
    const AddressSpace &a = perPage.space();
    const AddressSpace &b = perSpan.space();
    EXPECT_EQ(a.pageTable().tablePages(), b.pageTable().tablePages());
    EXPECT_EQ(a.pageTable().mappedLeaves(),
              b.pageTable().mappedLeaves());
    EXPECT_EQ(a.dataFrames(), b.dataFrames());
    EXPECT_EQ(a.hugeMappings(), b.hugeMappings());
    if (c.thp == ThpMode::Always) {
        EXPECT_GT(b.hugeMappings(), 0u);
    }
    if (c.fragment) {
        EXPECT_EQ(b.hugeMappings(), 4u);
    }

    for (PopulateMachine *m : {&perPage, &perSpan}) {
        m->auditor().sweep();
        EXPECT_TRUE(m->auditor().clean());
        EXPECT_GT(m->auditor().stats().sweeps, 1u);
        m->auditor().setInterval(0);  // the drains below tick a lot
    }
    expectSameAllocator(perPage.alloc(), perSpan.alloc());
    expectSameAllocator(perPage.hostAlloc(), perSpan.hostAlloc());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PopulateEquivalence,
    ::testing::Values(
        PopulateCase{"native_4k", ThpMode::Never, false, false, false, 0},
        PopulateCase{"native_thp", ThpMode::Always, false, false, false,
                     0},
        PopulateCase{"native_4k_grow", ThpMode::Never, false, false,
                     false, 19 * hugePageSize + 3 * pageSize},
        PopulateCase{"native_thp_grow", ThpMode::Always, false, false,
                     false, 19 * hugePageSize + 3 * pageSize},
        PopulateCase{"native_thp_fragmented", ThpMode::Always, false,
                     false, true, 0},
        PopulateCase{"native_4k_teas", ThpMode::Never, false, true,
                     false, 0},
        PopulateCase{"native_thp_teas", ThpMode::Always, false, true,
                     false, 19 * hugePageSize},
        PopulateCase{"guest_4k", ThpMode::Never, true, false, false, 0},
        PopulateCase{"guest_thp", ThpMode::Always, true, false, false,
                     19 * hugePageSize + 3 * pageSize},
        PopulateCase{"guest_thp_teas", ThpMode::Always, true, true,
                     false, 0}),
    [](const ::testing::TestParamInfo<PopulateCase> &param) {
        return std::string(param.param.name);
    });

// Every mutation event of a span populate must leave a state the
// auditor accepts: a sweep at each event sees the leaf counters agree
// with the tree and no linked table empty. That holds while tableFor()
// links a chain of new tables (the allocator ticks between links) and
// between a span's two frame draws (its first leaf comes first).
TEST(PopulateAudit, SweepAtEveryEventStaysClean)
{
    for (const bool guest : {false, true}) {
        InvariantAuditor auditor;  // outlives everything it audits
        PhysicalMemory mem(Addr{64} << 20);
        BuddyAllocator hostAlloc(mem.size() >> pageShift);
        std::unique_ptr<VirtualMachine> vm;
        std::unique_ptr<AddressSpace> native;
        if (guest) {
            VmConfig vc;
            vc.vmBytes = Addr{32} << 20;
            vm = std::make_unique<VirtualMachine>(mem, hostAlloc, vc);
        } else {
            native = std::make_unique<AddressSpace>(mem, hostAlloc);
        }
        AddressSpace &space = guest ? vm->guestSpace() : *native;
        BuddyAllocator &alloc = guest ? vm->guestAllocator() : hostAlloc;
        const Addr base = 0x40000000 + 3 * pageSize;
        const Vma &vma = space.mmapAt(base, 7 * hugePageSize + 5 * pageSize,
                                      VmaKind::Heap, /*populate=*/false);
        alloc.attachAuditor(auditor, "buddy");
        space.pageTable().attachAuditor(auditor, "pt");
        auditor.setInterval(1);
        space.populate(vma);
        EXPECT_TRUE(auditor.clean()) << (guest ? "guest" : "native");
        EXPECT_GT(auditor.stats().sweeps,
                  space.pageTable().mappedLeaves());
        auditor.setInterval(0);
    }
}

// ---------------------------------------------- directProbe behaviour

struct ProbeFixture : public ::testing::Test
{
    ProbeFixture() : mem(Addr{1} << 30) {}

    PhysicalMemory mem;
    MemoryHierarchy caches;
    DmtRegisterFile regs;
};

TEST_F(ProbeFixture, MissWithoutMatchingRegister)
{
    const DirectProbe probe =
        directProbe(regs, mem, caches, 0x1234000, nullptr);
    EXPECT_FALSE(probe.matched);
    EXPECT_FALSE(probe.present);
    EXPECT_EQ(probe.probes, 0);
}

TEST_F(ProbeFixture, FindsPresentLeafInCoveredTea)
{
    DmtRegister reg;
    reg.tea = {0x40000000, 2 * hugePageSize, PageSize::Size4K,
               0x100};
    regs.load(reg);
    // Plant a leaf PTE for page 5 of the VMA.
    const Addr va = 0x40000000 + 5 * pageSize;
    mem.write64(reg.tea.pteAddr(va), makePte(0x77, 1 /*present*/));
    const DirectProbe probe =
        directProbe(regs, mem, caches, va, nullptr);
    EXPECT_TRUE(probe.matched);
    EXPECT_TRUE(probe.present);
    EXPECT_EQ(ptePfn(probe.pte), 0x77u);
    EXPECT_EQ(probe.probes, 1);
    // A neighbouring page with no PTE: matched but not present.
    const DirectProbe miss =
        directProbe(regs, mem, caches, va + pageSize, nullptr);
    EXPECT_TRUE(miss.matched);
    EXPECT_FALSE(miss.present);
}

TEST_F(ProbeFixture, HugeTeaIgnoresNonLeafEntries)
{
    DmtRegister reg2m;
    reg2m.tea = {0x40000000, gigaPageSize, PageSize::Size2M, 0x200};
    regs.load(reg2m);
    const Addr va = 0x40000000 + 3 * hugePageSize + 0x123;
    // A present but non-huge entry at the 2M slot is a table
    // pointer, not a leaf: must not be returned.
    mem.write64(reg2m.tea.pteAddr(va), makePte(0x99, 1));
    DirectProbe probe = directProbe(regs, mem, caches, va, nullptr);
    EXPECT_TRUE(probe.matched);
    EXPECT_FALSE(probe.present);
    // With the PS bit it is a leaf.
    mem.write64(reg2m.tea.pteAddr(va),
                makePte(0x99, 1 | pte_flags::pageSize));
    probe = directProbe(regs, mem, caches, va, nullptr);
    EXPECT_TRUE(probe.present);
    EXPECT_EQ(probe.size, PageSize::Size2M);
}

TEST_F(ProbeFixture, ParallelProbeReturnsTheWinningSize)
{
    DmtRegister r4k;
    r4k.tea = {0x40000000, gigaPageSize, PageSize::Size4K, 0x300};
    DmtRegister r2m;
    r2m.tea = {0x40000000, gigaPageSize, PageSize::Size2M, 0x500};
    regs.load(r4k);
    regs.load(r2m);
    const Addr va = 0x40000000 + hugePageSize + 7 * pageSize;
    mem.write64(r4k.tea.pteAddr(va), makePte(0x11, 1));
    const DirectProbe probe =
        directProbe(regs, mem, caches, va, nullptr);
    EXPECT_EQ(probe.probes, 2);
    EXPECT_TRUE(probe.present);
    EXPECT_EQ(probe.size, PageSize::Size4K);
    EXPECT_EQ(ptePfn(probe.pte), 0x11u);
}

// ------------------------------------------------- geometry sweeps

class BuddyOrderSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BuddyOrderSweep, AlignedAllocationAndCleanFree)
{
    const int order = GetParam();
    BuddyAllocator alloc(1 << 12);
    const auto pfn = alloc.allocPages(order, FrameKind::Movable);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn % (Pfn{1} << order), 0u);
    EXPECT_EQ(alloc.freeFrames(), (Pfn{1} << 12) - (Pfn{1} << order));
    alloc.freePages(*pfn, order);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 12);
    alloc.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Orders, BuddyOrderSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 9, 11));

// Maximal coalescing makes the buddy state a function of the free set
// alone, whatever the release order. AddressSpace teardown relies on
// it to free runs of frames in VA order.
TEST(BuddyReleaseOrder, ShuffledSinglesAndCoalescedRunsAgree)
{
    // A non-power-of-two size and a low max order exercise the
    // out-of-range buddy and the coalescing ceiling.
    constexpr Pfn frames = (Pfn{1} << 13) + 37;
    constexpr int maxOrder = 8;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed);
        BuddyAllocator singles(frames, maxOrder);
        BuddyAllocator runs(frames, maxOrder);
        // Identical history: fill both with mixed-order, mixed-kind
        // blocks.
        while (singles.freeFrames() > 0) {
            const int o = static_cast<int>(rng.below(maxOrder + 1));
            const FrameKind kind = rng.below(2) ? FrameKind::Movable
                                                : FrameKind::PageTable;
            const auto pfn = singles.allocPages(o, kind);
            ASSERT_EQ(pfn, runs.allocPages(o, kind));
        }

        // Release a clustered random subset: runs of 1-600 frames
        // separated by kept gaps.
        std::vector<Pfn> released;
        for (Pfn pfn = rng.below(64); pfn < frames;) {
            const Pfn len = std::min<Pfn>(1 + rng.below(600),
                                          frames - pfn);
            for (Pfn i = 0; i < len; ++i)
                released.push_back(pfn + i);
            pfn += len + 1 + rng.below(300);
        }
        for (std::size_t i = released.size(); i > 1; --i)
            std::swap(released[i - 1], released[rng.below(i)]);
        for (const Pfn pfn : released)
            singles.freePages(pfn, 0);

        std::sort(released.begin(), released.end());
        std::size_t i = 0;
        while (i < released.size()) {
            std::size_t j = i + 1;
            while (j < released.size() &&
                   released[j] == released[j - 1] + 1) {
                ++j;
            }
            runs.freeContig(released[i], j - i);
            i = j;
        }

        singles.checkConsistency();
        runs.checkConsistency();
        EXPECT_EQ(singles.freeFrames(), runs.freeFrames());
        for (int order = 0; order <= maxOrder; ++order) {
            EXPECT_EQ(singles.freeBlocksAt(order),
                      runs.freeBlocksAt(order))
                << "seed " << seed << " order " << order;
        }
        for (Pfn pfn = 0; pfn < frames; ++pfn)
            ASSERT_EQ(singles.kindOf(pfn), runs.kindOf(pfn)) << pfn;
        // Later allocations, which every downstream counter observes,
        // see the same free lists.
        for (int n = 0; n < 200; ++n) {
            const int o = static_cast<int>(rng.below(maxOrder + 1));
            ASSERT_EQ(singles.allocPages(o, FrameKind::Movable),
                      runs.allocPages(o, FrameKind::Movable));
        }
    }
}

class TlbGeometrySweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(TlbGeometrySweep, CapacityNeverExceeded)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb({"t", entries, assoc});
    // Insert 4x capacity; at most `entries` can hit afterwards.
    const int n = entries * 4;
    for (int i = 0; i < n; ++i)
        tlb.insert(Addr(i) << pageShift, PageSize::Size4K);
    int hits = 0;
    for (int i = 0; i < n; ++i) {
        if (tlb.lookup(Addr(i) << pageShift))
            ++hits;
    }
    EXPECT_LE(hits, entries);
    EXPECT_GT(hits, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometrySweep,
    ::testing::Values(std::pair{16, 4}, std::pair{64, 4},
                      std::pair{128, 8}, std::pair{1536, 12},
                      std::pair{96, 12}));

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::pair<Addr, int>>
{
};

TEST_P(CacheGeometrySweep, LinesNeverExceedCapacity)
{
    const auto [size, assoc] = GetParam();
    Cache cache({"t", size, assoc, 64, 1});
    const Addr lines = size / 64;
    for (Addr i = 0; i < lines * 3; ++i)
        cache.insert(i * 64);
    Addr resident = 0;
    for (Addr i = 0; i < lines * 3; ++i)
        resident += cache.probe(i * 64) ? 1 : 0;
    EXPECT_LE(resident, lines);
    EXPECT_GT(resident, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::pair{Addr{2048}, 8},
                      std::pair{Addr{32 * 1024}, 8},
                      std::pair{Addr{64 * 1024}, 16},
                      std::pair{Addr{1408 * 1024}, 11}));

// ------------------------------ recency-ordered cache vs stamp LRU

/**
 * Executable restatement of the stamp-based true-LRU cache the
 * recency-ordered Cache replaced, evolved in lockstep with it under
 * random schedules: a clock ticks on every access()/insert(), a hit
 * or fill stamps its way, invalid ways sit at stamp 0, and the
 * victim is the first way holding the minimum stamp — the first
 * invalid way if any, else the least recently used line.
 */
struct StampLruCacheModel
{
    StampLruCacheModel(Addr size_bytes, int ways)
        : assoc(ways),
          sets(static_cast<std::size_t>(size_bytes / 64 / ways)),
          tags(sets * ways, invalidAddr), lastUse(sets * ways, 0)
    {
    }

    int assoc;
    std::size_t sets;
    std::vector<Addr> tags;
    std::vector<std::uint64_t> lastUse;
    std::uint64_t tick = 0;
    Counter hits = 0;
    Counter misses = 0;

    std::size_t base(Addr addr) const
    {
        return ((addr >> 6) & (sets - 1)) * assoc;
    }

    /** @return the absolute way index holding addr's line, or -1. */
    long
    find(Addr addr) const
    {
        for (int w = 0; w < assoc; ++w) {
            if (tags[base(addr) + w] == addr >> 6)
                return static_cast<long>(base(addr) + w);
        }
        return -1;
    }

    bool
    access(Addr addr)
    {
        ++tick;
        if (const long way = find(addr); way >= 0) {
            lastUse[way] = tick;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    void
    insert(Addr addr)
    {
        ++tick;
        if (const long way = find(addr); way >= 0) {
            lastUse[way] = tick;
            return;
        }
        std::size_t victim = base(addr);
        for (int w = 1; w < assoc; ++w) {
            if (lastUse[base(addr) + w] < lastUse[victim])
                victim = base(addr) + w;
        }
        tags[victim] = addr >> 6;
        lastUse[victim] = tick;
    }

    bool
    accessFill(Addr addr)
    {
        if (access(addr))
            return true;
        insert(addr);
        return false;
    }

    void
    invalidate(Addr addr)
    {
        if (const long way = find(addr); way >= 0) {
            tags[way] = invalidAddr;
            lastUse[way] = 0;
        }
    }

    bool probe(Addr addr) const { return find(addr) >= 0; }

    void
    flush()
    {
        std::fill(tags.begin(), tags.end(), invalidAddr);
        std::fill(lastUse.begin(), lastUse.end(), 0);
    }
};

class CacheLockstep : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheLockstep, RandomScheduleMatchesStampLru)
{
    const int assoc = GetParam();
    const Addr size = Addr{4} * static_cast<Addr>(assoc) * 64;  // 4 sets
    Cache cache({"t", size, assoc, 64, 1});
    StampLruCacheModel model(size, assoc);
    InvariantAuditor auditor;
    const int hookId = auditor.registerHook(
        "test:cache", [&cache](AuditSink &sink) { cache.audit(sink); });

    // Twice as many distinct lines per set as ways, so sets fill,
    // evict and re-reference.
    const Addr lines = 4 * 2 * static_cast<Addr>(assoc);
    Rng rng(0xCAC4E000u + static_cast<std::uint64_t>(assoc));
    for (int op = 0; op < 20'000; ++op) {
        const Addr addr = rng.below(lines) * 64 + rng.below(64);
        const std::uint64_t kind = rng.below(100);
        if (kind < 35) {
            ASSERT_EQ(cache.access(addr), model.access(addr))
                << "op " << op;
        } else if (kind < 70) {
            ASSERT_EQ(cache.accessFill(addr), model.accessFill(addr))
                << "op " << op;
        } else if (kind < 85) {
            cache.insert(addr);
            model.insert(addr);
        } else if (kind < 93) {
            cache.invalidate(addr);
            model.invalidate(addr);
        } else if (kind < 99) {
            ASSERT_EQ(cache.probe(addr), model.probe(addr))
                << "op " << op;
        } else {
            cache.flush();
            model.flush();
        }
        ASSERT_EQ(cache.hits(), model.hits) << "op " << op;
        ASSERT_EQ(cache.misses(), model.misses) << "op " << op;
        if (op % 997 == 0) {
            for (Addr l = 0; l < lines; ++l)
                ASSERT_EQ(cache.probe(l * 64), model.probe(l * 64))
                    << "op " << op << " line " << l;
        }
    }
    EXPECT_EQ(auditor.sweep(), 0u);
    auditor.unregisterHook(hookId);
}

// 4, 8, 11, 12 and 16 take the compile-time-bound arms; 6 and 2 the
// generic one.
INSTANTIATE_TEST_SUITE_P(Associativities, CacheLockstep,
                         ::testing::Values(4, 8, 11, 12, 16, 6, 2));

TEST(CacheLockstep, HierarchyMatchesStampLruLevels)
{
    HierarchyConfig cfg;
    cfg.l1d = {"l1d", 4 * 8 * 64, 8, 64, 4};
    cfg.l2 = {"l2", 8 * 16 * 64, 16, 64, 14};
    cfg.llc = {"llc", 16 * 11 * 64, 11, 64, 54};
    MemoryHierarchy mh(cfg);
    StampLruCacheModel l1(cfg.l1d.sizeBytes, 8);
    StampLruCacheModel l2(cfg.l2.sizeBytes, 16);
    StampLruCacheModel llc(cfg.llc.sizeBytes, 11);
    Counter memAccesses = 0;

    // The hierarchy's cascades, restated over the model levels.
    auto access = [&](Addr pa) -> Cycles {
        if (l1.accessFill(pa))
            return cfg.l1d.roundTrip;
        if (l2.accessFill(pa))
            return cfg.l2.roundTrip;
        if (llc.accessFill(pa))
            return cfg.llc.roundTrip;
        ++memAccesses;
        return cfg.memoryRoundTrip;
    };
    auto accessClean = [&](Addr pa) -> Cycles {
        if (l1.access(pa))
            return cfg.l1d.roundTrip;
        if (l2.access(pa))
            return cfg.l2.roundTrip;
        if (llc.access(pa))
            return cfg.llc.roundTrip;
        ++memAccesses;
        return cfg.memoryRoundTrip;
    };

    // Enough lines to overflow the LLC, so every level evicts.
    const Addr lines = 2 * cfg.llc.sizeBytes / 64;
    Rng rng(0x41E2A2C1u);
    for (int op = 0; op < 40'000; ++op) {
        const Addr pa = rng.below(lines) * 64;
        const std::uint64_t kind = rng.below(100);
        if (kind < 70) {
            ASSERT_EQ(mh.access(pa), access(pa)) << "op " << op;
        } else if (kind < 85) {
            ASSERT_EQ(mh.accessClean(pa), accessClean(pa))
                << "op " << op;
        } else if (kind < 95) {
            mh.prefetch(pa);
            llc.accessFill(pa);
            l2.accessFill(pa);
        } else {
            mh.invalidate(pa);
            l1.invalidate(pa);
            l2.invalidate(pa);
            llc.invalidate(pa);
        }
        ASSERT_EQ(mh.l1d().hits(), l1.hits) << "op " << op;
        ASSERT_EQ(mh.l1d().misses(), l1.misses) << "op " << op;
        ASSERT_EQ(mh.l2().hits(), l2.hits) << "op " << op;
        ASSERT_EQ(mh.l2().misses(), l2.misses) << "op " << op;
        ASSERT_EQ(mh.llc().hits(), llc.hits) << "op " << op;
        ASSERT_EQ(mh.llc().misses(), llc.misses) << "op " << op;
        ASSERT_EQ(mh.memoryAccesses(), memAccesses) << "op " << op;
    }
}

// --------------------------------------------------- EPT huge pages

TEST(NestedHuge, HostHugePagesShortenTheHostDimension)
{
    PhysicalMemory hostMem(Addr{2} << 30);
    BuddyAllocator hostAlloc((Addr{2} << 30) >> pageShift);
    VmConfig cfg;
    cfg.vmBytes = Addr{512} << 20;
    cfg.hostThp = ThpMode::Always;  // 2M EPT entries
    VirtualMachine vm(hostMem, hostAlloc, cfg);
    vm.guestSpace().mmapAt(0x10000000, 64 * pageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    PwcConfig pwc;
    pwc.entriesForL3Table = 1;
    pwc.entriesForL2Table = 1;
    pwc.entriesForL1Table = 1;
    NestedWalker walker(
        vm.guestSpace().pageTable(), vm.containerSpace().pageTable(),
        NestedWalker::GpaToHostVa{vm.gpaToHva(0)}, caches, pwc);
    walker.flush();
    const WalkRecord rec = walker.walk(0x10000000);
    // Host walks terminate at hL2 (huge leaf): at most 3 host refs
    // per host walk instead of 4 -> strictly fewer than the 24 max.
    EXPECT_LT(rec.seqRefs, 24);
    EXPECT_EQ(rec.pa, walker.resolve(0x10000000));
}

// ---------------------------------------------- calibration sanity

TEST(CalibrationSanity, GeomeansTrackFigure4Averages)
{
    std::vector<double> virtTotals, nestedTotals, natWalk;
    for (const auto &wl : makePaperWorkloads(1.0 / 1024.0)) {
        const Calibration &cal = wl->calibration();
        virtTotals.push_back(cal.virtNptTotal);
        nestedTotals.push_back(cal.nestedTotal);
        natWalk.push_back(cal.nativeWalkFraction);
        // Per-workload invariants.
        EXPECT_GT(cal.virtSptTotal, cal.virtNptTotal);
        EXPECT_GT(cal.nestedTotal, cal.virtNptTotal);
        EXPECT_GT(cal.virtNptWalkFraction, cal.nativeWalkFraction);
    }
    EXPECT_NEAR(geoMean(virtTotals), 1.46, 0.08);
    EXPECT_NEAR(geoMean(nestedTotals), 4.13, 0.40);
    EXPECT_NEAR(geoMean(natWalk), 0.21, 0.05);
}

// ----------------------- §10 host core register file (random walks)

/**
 * Executable restatement of CoreRegisterFile's contract, evolved in
 * lockstep with the real one under a random schedule: LRU with
 * first-minimum tie-breaking, pinned entries exempt from eviction,
 * empty slots always claimed first.
 */
struct RegFileModel
{
    struct Entry
    {
        std::uint32_t tenant;
        std::uint8_t reg;
        bool pinned;
        std::uint64_t lastUse;
    };
    std::vector<Entry> slots =
        std::vector<Entry>(host::CoreRegisterFile::capacity,
                           {host::kNoTenant, 0, false, 0});
    std::uint64_t tick = 0;

    /** @return {hit, loaded} mirroring TouchResult. */
    std::pair<bool, bool>
    touch(std::uint32_t tenant, std::uint8_t reg, bool pinned)
    {
        ++tick;
        for (Entry &e : slots) {
            if (e.tenant == tenant && e.reg == reg) {
                e.lastUse = tick;
                e.pinned = e.pinned || pinned;
                return {true, false};
            }
        }
        int victim = -1;
        std::uint64_t best = ~std::uint64_t{0};
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].pinned && slots[i].tenant != host::kNoTenant)
                continue;
            if (slots[i].lastUse < best) {
                best = slots[i].lastUse;
                victim = static_cast<int>(i);
            }
        }
        if (victim < 0)
            return {false, false};
        slots[victim] = {tenant, reg, pinned, tick};
        return {false, true};
    }

    void
    invalidate(std::uint32_t tenant)
    {
        for (Entry &e : slots) {
            if (e.tenant == tenant)
                e = {host::kNoTenant, 0, false, 0};
        }
    }

    int
    occupancy() const
    {
        int n = 0;
        for (const Entry &e : slots)
            n += e.tenant != host::kNoTenant ? 1 : 0;
        return n;
    }

    int
    resident(std::uint32_t tenant) const
    {
        int n = 0;
        for (const Entry &e : slots)
            n += e.tenant == tenant ? 1 : 0;
        return n;
    }
};

TEST(CoreRegFileProperties, RandomScheduleMatchesReferenceModel)
{
    host::CoreRegisterFile file;
    RegFileModel model;
    InvariantAuditor auditor;
    const int hookId = auditor.registerHook(
        "test:regfile",
        [&file](AuditSink &sink) { file.audit(sink); });

    Rng rng(0xDECAFBADu);
    constexpr std::uint32_t kTenants = 6;
    for (int op = 0; op < 20'000; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 90) {
            const auto tenant =
                static_cast<std::uint32_t>(rng.below(kTenants));
            const auto reg = static_cast<std::uint8_t>(rng.below(
                host::CoreRegisterFile::capacity));
            // Pin rarely, and never tenant 0's registers, so the
            // file can't wedge all-pinned.
            const bool pin = tenant != 0 && rng.below(50) == 0;
            const host::TouchResult res =
                file.touch(tenant, reg, pin);
            const auto [hit, loaded] = model.touch(tenant, reg, pin);
            ASSERT_EQ(res.hit, hit) << "op " << op;
            ASSERT_EQ(res.loaded, loaded) << "op " << op;
        } else if (kind < 97) {
            const auto tenant =
                static_cast<std::uint32_t>(rng.below(kTenants));
            const int dropped = file.invalidateTenant(tenant);
            ASSERT_EQ(dropped, model.resident(tenant)) << "op " << op;
            model.invalidate(tenant);
        } else {
            file.clear();
            model = RegFileModel{};
        }

        // Occupancy agrees, never exceeds the 16-entry hardware.
        ASSERT_EQ(file.occupancy(), model.occupancy()) << "op " << op;
        ASSERT_LE(file.occupancy(),
                  host::CoreRegisterFile::capacity);
        for (std::uint32_t t = 0; t < kTenants; ++t)
            ASSERT_EQ(file.resident(t), model.resident(t))
                << "op " << op << " tenant " << t;
        // The real file's own invariants hold after every op.
        ASSERT_EQ(auditor.sweep(), 0u) << "op " << op;
    }
    auditor.unregisterHook(hookId);
}

TEST(CoreRegFileProperties, PinnedEntriesSurviveEvictionPressure)
{
    host::CoreRegisterFile file;
    // Tenant 7 pins four registers.
    for (std::uint8_t r = 0; r < 4; ++r)
        EXPECT_TRUE(file.touch(7, r, /*pinned=*/true).loaded);
    // A storm of other tenants thrashes the remaining 12 slots.
    Rng rng(123);
    for (int op = 0; op < 5'000; ++op) {
        const auto tenant =
            static_cast<std::uint32_t>(1 + rng.below(5));
        const auto reg = static_cast<std::uint8_t>(
            rng.below(host::CoreRegisterFile::capacity));
        file.touch(tenant, reg, false);
        ASSERT_EQ(file.resident(7), 4) << "op " << op;
    }
    // Invalidation (shootdown) is the only way pinned entries leave.
    EXPECT_EQ(file.invalidateTenant(7), 4);
    EXPECT_EQ(file.resident(7), 0);
}

TEST(CoreRegFileProperties, AllPinnedFileRefusesNewResidency)
{
    host::CoreRegisterFile file;
    for (int r = 0; r < host::CoreRegisterFile::capacity; ++r)
        file.touch(1, static_cast<std::uint8_t>(r), true);
    ASSERT_EQ(file.occupancy(), host::CoreRegisterFile::capacity);
    // A different tenant's touch neither hits nor installs.
    const host::TouchResult res = file.touch(2, 0, false);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.loaded);
    EXPECT_EQ(file.resident(2), 0);
    // The pinned owner still hits its own entries.
    EXPECT_TRUE(file.touch(1, 0, false).hit);
}

// ------------------------------------------------------ TLB fills

/** Both levels of two hierarchies hold the same pages. */
void
expectSameResidency(const TlbHierarchy &a, const TlbHierarchy &b,
                    Addr small_pages, Addr huge_base, Addr huge_pages)
{
    for (Addr p = 0; p < small_pages; ++p) {
        const Addr va = p << pageShift;
        ASSERT_EQ(a.l1d().probe(va), b.l1d().probe(va)) << va;
        ASSERT_EQ(a.stlb().probe(va), b.stlb().probe(va)) << va;
    }
    for (Addr p = 0; p < huge_pages; ++p) {
        const Addr va = huge_base + p * hugePageSize;
        ASSERT_EQ(a.l1d().probe(va), b.l1d().probe(va)) << va;
        ASSERT_EQ(a.stlb().probe(va), b.stlb().probe(va)) << va;
    }
}

TEST(TlbFillProperties, FillDataAfterMissMatchesInsertData)
{
    // A 4 KB region and a 2 MB region, each a few times the STLB's
    // reach, so sets fill, evict and re-reference at both sizes.
    constexpr Addr smallPages = 512;
    constexpr Addr hugeBase = Addr{1} << 30;
    constexpr Addr hugePages = 48;
    const TlbConfig l1d{"l1d", 16, 4};
    const TlbConfig l1i{"l1i", 16, 4};
    const TlbConfig stlb{"stlb", 96, 12};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(0x7FB1F000u + seed);
        TlbHierarchy filled(l1d, l1i, stlb);
        TlbHierarchy inserted(l1d, l1i, stlb);
        for (int op = 0; op < 20'000; ++op) {
            const bool huge = rng.below(4) == 0;
            const Addr va =
                huge ? hugeBase + rng.below(hugePages * hugePageSize)
                     : rng.below(smallPages << pageShift);
            const std::uint64_t kind = rng.below(200);
            if (kind == 0) {
                filled.flush();
                inserted.flush();
                continue;
            }
            if (kind < 4) {
                filled.stlb().invalidate(va);
                inserted.stlb().invalidate(va);
                continue;
            }
            const auto lf = filled.lookupData(va);
            const auto li = inserted.lookupData(va);
            ASSERT_EQ(lf.level, li.level) << "seed " << seed
                                          << " op " << op;
            ASSERT_EQ(lf.size, li.size);
            ASSERT_EQ(lf.linear, li.linear);
            ASSERT_EQ(lf.pa, li.pa);
            if (lf.level != TlbHierarchy::Result::Miss)
                continue;
            const PageSize size =
                huge ? PageSize::Size2M : PageSize::Size4K;
            // Any frame will do; keep it a function of the page.
            const Addr pa = (pageAlignDown(va, size) * 7) &
                            ((Addr{1} << 40) - 1);
            const bool linear = rng.below(2) == 0;
            filled.fillData(va, size, pa + (va & pageMask), linear);
            inserted.insertData(va, size, pa + (va & pageMask), linear);
            if (op % 997 == 0)
                expectSameResidency(filled, inserted, smallPages,
                                    hugeBase, hugePages);
        }
        expectSameResidency(filled, inserted, smallPages, hugeBase,
                            hugePages);
        EXPECT_EQ(filled.l1d().hits(), inserted.l1d().hits());
        EXPECT_EQ(filled.l1d().misses(), inserted.l1d().misses());
        EXPECT_EQ(filled.stlb().hits(), inserted.stlb().hits());
        EXPECT_EQ(filled.stlb().misses(), inserted.stlb().misses());
        EXPECT_GT(filled.stlb().hits(), 0u);
    }
}

} // namespace
} // namespace dmt
