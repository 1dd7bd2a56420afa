/**
 * @file
 * Unit tests for the virtualization stack: the VM container and
 * guest-physical views, the 2-D nested walker's reference counts
 * (Figure 2), shadow paging, and the nested (L2/L1/L0) stack.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"
#include "virt/nested_stack.hh"
#include "virt/nested_walker.hh"
#include "virt/shadow_pager.hh"
#include "core/hypercall.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{
namespace
{

struct VirtFixture : public ::testing::Test
{
    VirtFixture()
        : hostMem(Addr{2} << 30),
          hostAlloc((Addr{2} << 30) >> pageShift)
    {
        VmConfig cfg;
        cfg.vmBytes = Addr{512} << 20;
        vm = std::make_unique<VirtualMachine>(hostMem, hostAlloc,
                                              cfg);
    }

    PhysicalMemory hostMem;
    BuddyAllocator hostAlloc;
    std::unique_ptr<VirtualMachine> vm;
};

TEST_F(VirtFixture, GuestPhysicalMemoryIsFullyBacked)
{
    for (Addr gpa = 0; gpa < vm->config().vmBytes;
         gpa += 64 * 1024 * 1024) {
        EXPECT_NO_FATAL_FAILURE(vm->gpaToHostPa(gpa));
    }
}

TEST_F(VirtFixture, GuestViewReadsThroughTranslation)
{
    const Addr gpa = 0x123450;
    vm->guestMem().write64(gpa, 0xfeedull);
    EXPECT_EQ(vm->guestMem().read64(gpa), 0xfeedull);
    // The same word is visible at the resolved host address.
    EXPECT_EQ(hostMem.read64(vm->gpaToHostPa(gpa)), 0xfeedull);
}

TEST_F(VirtFixture, GuestViewFollowsRepointedBacking)
{
    const Addr gpa = 0x123450;
    const Addr offset = gpa & pageMask;
    const Addr hva = vm->gpaToHva(gpa);
    vm->guestMem().write64(gpa, 0x1111ull);
    ASSERT_EQ(vm->guestMem().read64(gpa), 0x1111ull);  // memoized

    // Splice a fresh host frame under the page.
    const auto spliced = hostAlloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(spliced.has_value());
    hostMem.write64((*spliced << pageShift) + offset, 0x2222ull);
    vm->containerSpace().replaceBacking(hva, *spliced);
    EXPECT_EQ(vm->guestMem().read64(gpa), 0x2222ull);
    EXPECT_EQ(vm->gpaToHostPa(gpa), (*spliced << pageShift) + offset);

    // Rewrite the leaf directly on the backing table, then restore.
    const auto other = hostAlloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(other.has_value());
    hostMem.write64((*other << pageShift) + offset, 0x3333ull);
    auto &hostPt = vm->containerSpace().pageTable();
    hostPt.updateLeaf(pageAlignDown(hva), *other);
    EXPECT_EQ(vm->guestMem().read64(gpa), 0x3333ull);
    hostPt.updateLeaf(pageAlignDown(hva), *spliced);
    EXPECT_EQ(vm->guestMem().read64(gpa), 0x2222ull);
    hostAlloc.freePages(*other, 0);
}

TEST_F(VirtFixture, GuestViewRejectsBadAddressesNextToMemoizedPages)
{
    Memory &mem = vm->guestMem();
    const Addr bytes = vm->config().vmBytes;
    const Addr gpa = 0x200000;
    // Memoize the last page and a page whose neighbour goes away.
    (void)mem.read64(bytes - 8);
    (void)mem.read64(gpa);
    EXPECT_DEATH((void)mem.read64(bytes), "beyond VM memory");
    EXPECT_DEATH(
        {
            vm->containerSpace().pageTable().unmap(
                vm->gpaToHva(gpa + pageSize));
            (void)mem.read64(gpa);
            (void)mem.read64(gpa + pageSize);
        },
        "not backed");
    // A memoized page whose backing is unmapped must not be served.
    EXPECT_DEATH(
        {
            vm->containerSpace().pageTable().unmap(vm->gpaToHva(gpa));
            (void)mem.read64(gpa);
        },
        "not backed");
}

TEST_F(VirtFixture, GuestProcessComposesThroughBothTables)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 32 * pageSize, VmaKind::Heap);
    const auto gtr = guest.pageTable().translate(0x10003123);
    ASSERT_TRUE(gtr.has_value());
    const Addr hpa = vm->gpaToHostPa(gtr->pa);
    EXPECT_LT(hpa, hostMem.size());
}

TEST_F(VirtFixture, NestedWalkerTakesUpTo24Refs)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 256 * pageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    // A PWC too small to help: force full-depth walks.
    PwcConfig pwc;
    pwc.entriesForL3Table = 1;
    pwc.entriesForL2Table = 1;
    pwc.entriesForL1Table = 1;
    NestedWalker walker(
        guest.pageTable(), vm->containerSpace().pageTable(),
        NestedWalker::GpaToHostVa{vm->gpaToHva(0)}, caches, pwc);
    walker.flush();
    // A cold walk takes many references (up to 24); the nested PWC
    // fills mid-walk, so adjacent guest-table pages shorten later
    // host walks even within the first translation.
    const WalkRecord rec = walker.walk(0x10000000);
    EXPECT_GE(rec.seqRefs, 9);
    EXPECT_LE(rec.seqRefs, 24);
    EXPECT_EQ(rec.pa, walker.resolve(0x10000000));
    // Warm PWCs shorten the next, nearby walk further.
    const WalkRecord rec2 = walker.walk(0x10000000 + pageSize);
    EXPECT_LT(rec2.seqRefs, rec.seqRefs);
}

TEST_F(VirtFixture, NestedWalkerSlotBreakdownCoversFigure2)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 4 * pageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    PwcConfig pwc;
    pwc.entriesForL3Table = 1;
    pwc.entriesForL2Table = 1;
    pwc.entriesForL1Table = 1;
    NestedWalker walker(
        guest.pageTable(), vm->containerSpace().pageTable(),
        NestedWalker::GpaToHostVa{vm->gpaToHva(0)}, caches, pwc);
    walker.recordSteps(true);
    walker.flush();
    const WalkRecord rec = walker.walk(0x10000000);
    // Slots map into Figure 2's 1..24 grid, strictly increasing,
    // ending at the final hL1 (24), with every guest slot present.
    ASSERT_GE(rec.steps.size(), 9u);
    for (std::size_t i = 1; i < rec.steps.size(); ++i)
        EXPECT_LT(rec.steps[i - 1].slot, rec.steps[i].slot);
    EXPECT_EQ(rec.steps.back().slot, 24);
    EXPECT_EQ(rec.steps.back().dim, 'h');
    std::set<int> slots;
    for (const auto &step : rec.steps)
        slots.insert(step.slot);
    for (int gslot : {5, 10, 15, 20}) {
        EXPECT_TRUE(slots.count(gslot))
            << "guest slot " << gslot << " missing";
    }
}

TEST_F(VirtFixture, ShadowPagerMirrorsGuestMappings)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 64 * pageSize, VmaKind::Heap);
    ShadowPager shadow(hostMem, hostAlloc, guest, vm->guestMem());
    shadow.syncAll();
    EXPECT_GE(shadow.exits(), 64u);
    for (Addr va = 0x10000000; va < 0x10000000 + 64 * pageSize;
         va += pageSize) {
        const auto str = shadow.table().translate(va);
        ASSERT_TRUE(str.has_value());
        const auto gtr = guest.pageTable().translate(va);
        EXPECT_EQ(str->pa, vm->gpaToHostPa(gtr->pa));
    }
}

TEST_F(VirtFixture, ShadowPagerSyncsIncrementalUpdates)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 4 * pageSize, VmaKind::Heap);
    ShadowPager shadow(hostMem, hostAlloc, guest, vm->guestMem());
    shadow.syncAll();
    const auto exits = shadow.exits();
    guest.mmapAt(0x20000000, pageSize, VmaKind::Data);
    shadow.syncPage(0x20000000);
    EXPECT_EQ(shadow.exits(), exits + 1);
    EXPECT_TRUE(shadow.table().translate(0x20000000).has_value());
}

/**
 * One guest 2 MB leaf over a chosen host backing: whether its shadow
 * stays one 2 MB leaf must agree with a per-page contiguity check.
 */
struct ShadowHugeFixture : public ::testing::Test
{
    static constexpr Addr guestVa = 0x40000000;

    ShadowHugeFixture()
        : hostMem(Addr{1} << 30),
          hostAlloc((Addr{1} << 30) >> pageShift)
    {
    }

    void
    boot(ThpMode host_thp)
    {
        VmConfig cfg;
        cfg.vmBytes = Addr{64} << 20;
        cfg.hostThp = host_thp;
        cfg.guestThp = ThpMode::Always;
        vm = std::make_unique<VirtualMachine>(hostMem, hostAlloc, cfg);
        vm->guestSpace().mmapAt(guestVa, hugePageSize, VmaKind::Heap);
        const auto gtr = vm->guestSpace().pageTable().translate(guestVa);
        ASSERT_TRUE(gtr.has_value());
        ASSERT_EQ(gtr->size, PageSize::Size2M);
        gpa = gtr->pa;
    }

    /** Size of the container leaf backing gpa + off. */
    PageSize
    hostLeafSize(Addr off = 0) const
    {
        return vm->containerSpace()
            .pageTable()
            .translate(vm->gpaToHva(gpa + off))
            ->size;
    }

    /** Reference: host contiguity resolved one 4 KB page at a time. */
    bool
    perPageContiguous() const
    {
        const Addr first = vm->gpaToHostPa(gpa);
        if (first & (hugePageSize - 1))
            return false;
        for (Addr off = pageSize; off < hugePageSize; off += pageSize) {
            if (vm->gpaToHostPa(gpa + off) != first + off)
                return false;
        }
        return true;
    }

    /** Shadow the guest and return its leaves (va, pa, size). */
    std::vector<std::tuple<Addr, Addr, PageSize>>
    shadowLeaves()
    {
        ShadowPager shadow(hostMem, hostAlloc, vm->guestSpace(),
                           vm->guestMem());
        shadow.syncAll();
        std::vector<std::tuple<Addr, Addr, PageSize>> out;
        shadow.table().forEachLeaf([&](Addr va, Pfn pfn, PageSize size) {
            out.emplace_back(va, pfn << pageShift, size);
        });
        return out;
    }

    /** Every shadow leaf must map what the per-page resolution says. */
    void
    expectShadowMatchesPerPage(
        const std::vector<std::tuple<Addr, Addr, PageSize>> &leaves)
    {
        EXPECT_EQ(leaves.size() == 1, perPageContiguous());
        for (const auto &[va, pa, size] : leaves) {
            EXPECT_EQ(pa, vm->gpaToHostPa(gpa + (va - guestVa)));
            EXPECT_EQ(size, leaves.size() == 1 ? PageSize::Size2M
                                               : PageSize::Size4K);
        }
    }

    PhysicalMemory hostMem;
    BuddyAllocator hostAlloc;
    std::unique_ptr<VirtualMachine> vm;
    Addr gpa = 0;
};

TEST_F(ShadowHugeFixture, HostHugeLeafKeepsShadowLeafHuge)
{
    ASSERT_NO_FATAL_FAILURE(boot(ThpMode::Always));
    ASSERT_EQ(hostLeafSize(), PageSize::Size2M);
    const auto leaves = shadowLeaves();
    ASSERT_EQ(leaves.size(), 1u);
    expectShadowMatchesPerPage(leaves);
}

TEST_F(ShadowHugeFixture, AlignedRunOfHostSmallLeavesKeepsShadowLeafHuge)
{
    ASSERT_NO_FATAL_FAILURE(boot(ThpMode::Never));
    // Re-point the 512 container leaves at one aligned 2 MB frame run,
    // still mapped as 4 KB pages.
    const auto run = hostAlloc.allocPages(9, FrameKind::Movable);
    ASSERT_TRUE(run.has_value());
    for (Addr i = 0; i < 512; ++i) {
        vm->containerSpace().replaceBacking(
            vm->gpaToHva(gpa + i * pageSize), *run + i);
    }
    ASSERT_EQ(hostLeafSize(), PageSize::Size4K);
    ASSERT_EQ(hostLeafSize(hugePageSize - pageSize), PageSize::Size4K);
    const auto leaves = shadowLeaves();
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_EQ(std::get<1>(leaves.front()), *run << pageShift);
    expectShadowMatchesPerPage(leaves);
}

TEST_F(ShadowHugeFixture, OneSplicedHostFrameShattersShadowLeaf)
{
    ASSERT_NO_FATAL_FAILURE(boot(ThpMode::Always));
    // Splicing one frame demotes the container's 2 MB leaf into 512
    // 4 KB leaves, 511 of them still contiguous.
    const auto frame = hostAlloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(frame.has_value());
    vm->containerSpace().replaceBacking(vm->gpaToHva(gpa + 7 * pageSize),
                                        *frame);
    ASSERT_EQ(hostLeafSize(), PageSize::Size4K);
    const auto leaves = shadowLeaves();
    ASSERT_EQ(leaves.size(), 512u);
    expectShadowMatchesPerPage(leaves);
}

TEST(NestedStackTest, ThreeLayerTranslationComposes)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);

    auto &l2 = stack.l2Space();
    l2.mmapAt(0x10000000, 64 * pageSize, VmaKind::Heap);
    const auto tr = l2.pageTable().translate(0x10001000);
    ASSERT_TRUE(tr.has_value());
    // L2PA -> L1PA -> L0PA chain stays in range at every level.
    const Addr l1pa = stack.l2paToL1pa(tr->pa);
    EXPECT_LT(l1pa, cfg.l1Bytes);
    const Addr l0pa = stack.l2paToL0pa(tr->pa);
    EXPECT_LT(l0pa, l0Mem.size());
    // Writes through the L2 view land at the composed L0 address.
    stack.l2Mem().write64(tr->pa, 0xabcdull);
    EXPECT_EQ(l0Mem.read64(l0pa), 0xabcdull);
}

TEST(NestedStackTest, L2ShadowPagerMapsL2paToL0pa)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);
    auto shadow = stack.makeL2ShadowPager(l0Mem, l0Alloc);
    // Every backed L2PA resolves identically via the sPT and the
    // functional chain.
    for (Addr l2pa = 0; l2pa < cfg.l2Bytes; l2pa += 32 << 20) {
        const auto str =
            shadow->table().translate(stack.l2paToL1va(l2pa));
        ASSERT_TRUE(str.has_value());
        EXPECT_EQ(str->pa, stack.l2paToL0pa(l2pa));
    }
}

TEST(NestedStackTest, L2ViewFollowsRepointedBackingAtBothLevels)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);
    const Addr l2pa = 0x345678;
    const Addr offset = l2pa & pageMask;
    stack.l2Mem().write64(l2pa, 0x1111ull);
    ASSERT_EQ(stack.l2Mem().read64(l2pa), 0x1111ull);  // memoized

    // Repoint at L1: a fresh L1 frame now backs the L2 page.
    const auto l1Frame = stack.vm1().guestAllocator().allocPages(
        0, FrameKind::PageTable);
    ASSERT_TRUE(l1Frame.has_value());
    stack.vm1().guestMem().write64((*l1Frame << pageShift) + offset,
                                   0x2222ull);
    stack.l1Container().replaceBacking(stack.l2paToL1va(l2pa),
                                       *l1Frame);
    EXPECT_EQ(stack.l2Mem().read64(l2pa), 0x2222ull);

    // Repoint at L0 underneath: only the inner view's table changed.
    const auto l0Frame = l0Alloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(l0Frame.has_value());
    l0Mem.write64((*l0Frame << pageShift) + offset, 0x3333ull);
    stack.vm1().containerSpace().replaceBacking(
        stack.vm1().gpaToHva(*l1Frame << pageShift), *l0Frame);
    EXPECT_EQ(stack.l2Mem().read64(l2pa), 0x3333ull);
    EXPECT_EQ(stack.l2paToL0pa(l2pa), (*l0Frame << pageShift) + offset);
}

TEST(NestedHypercallTest, CascadedGrantIsL0Contiguous)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);
    GteaTable table;
    NestedTeaHypercall hypercall(stack, l0Alloc, table);
    const auto grant = hypercall.allocTea(8);
    ASSERT_TRUE(grant.has_value());
    for (std::uint64_t i = 0; i < 8; ++i) {
        const Addr l2pa = (grant->gpaBasePfn + i) << pageShift;
        EXPECT_EQ(stack.l2paToL0pa(l2pa),
                  (grant->hostBasePfn + i) << pageShift);
    }
}

} // namespace
} // namespace dmt
