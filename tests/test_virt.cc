/**
 * @file
 * Unit tests for the virtualization stack: the VM container and
 * guest-physical views, the 2-D nested walker's reference counts
 * (Figure 2), shadow paging, the nested (L2/L1/L0) stack, and the
 * page-granular memory operations against the word loops they
 * replace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hh"
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
    vm->containerSpace().replaceBacking(hva, *spliced, 1);
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
    vm->containerSpace().replaceBacking(vm->gpaToHva(gpa), *run, 512);
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
                                        *frame, 1);
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
                                       *l1Frame, 1);
    EXPECT_EQ(stack.l2Mem().read64(l2pa), 0x2222ull);

    // Repoint at L0 underneath: only the inner view's table changed.
    const auto l0Frame = l0Alloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(l0Frame.has_value());
    l0Mem.write64((*l0Frame << pageShift) + offset, 0x3333ull);
    stack.vm1().containerSpace().replaceBacking(
        stack.vm1().gpaToHva(*l1Frame << pageShift), *l0Frame, 1);
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

/**
 * Host memory under a guest-physical view under a second view. Each
 * container faults its guest pages in a strided order, so neighbouring
 * guest pages sit on scattered backing frames at both levels and a
 * page-straddling range changes frames mid-way. Every target gets a
 * scratch region that holds no page table.
 */
class PageOpMachine
{
  public:
    static constexpr Addr l1Bytes = Addr{16} << 20;
    static constexpr Addr l2Bytes = Addr{4} << 20;
    static constexpr Addr regionBytes = Addr{4} << 20;

    PageOpMachine()
        : mem_(Addr{64} << 20), alloc_(mem_.size() >> pageShift),
          l1Alloc_(l1Bytes >> pageShift)
    {
        outer_ = std::make_unique<AddressSpace>(mem_, alloc_);
        mapScattered(*outer_, l1Base, l1Bytes);
        l1View_ = std::make_unique<GuestMemoryView>(
            mem_, outer_->pageTable(), l1Base, l1Bytes);
        inner_ = std::make_unique<AddressSpace>(*l1View_, l1Alloc_);
        mapScattered(*inner_, l2Base, l2Bytes);
        l2View_ = std::make_unique<GuestMemoryView>(
            *l1View_, inner_->pageTable(), l2Base, l2Bytes);
        regions_[0] = {*alloc_.allocContig(regionBytes >> pageShift,
                                           FrameKind::Movable)
                           << pageShift,
                       &mem_};
        regions_[1] = {*l1Alloc_.allocContig(regionBytes >> pageShift,
                                             FrameKind::Movable)
                           << pageShift,
                       l1View_.get()};
        regions_[2] = {0, l2View_.get()};
    }

    PhysicalMemory &backing() { return mem_; }

    /** Target 0 is host memory, 1 the view, 2 the view over it. */
    Memory &target(int t) { return *regions_[t].mem; }
    Addr regionBase(int t) const { return regions_[t].base; }

    /** @return the backing address of a target address. */
    Addr
    backingOf(int t, Addr pa) const
    {
        if (t == 0)
            return pa;
        if (t == 1)
            return l1View_->resolve(pa);
        return l1View_->resolve(l2View_->resolve(pa));
    }

  private:
    static constexpr Addr l1Base = 0x40000000ull;
    static constexpr Addr l2Base = 0x80000000ull;

    /** Touch page (37 i) mod N for i = 0..N-1 (N a power of two). */
    static void
    mapScattered(AddressSpace &space, Addr base, Addr bytes)
    {
        space.mmapAt(base, bytes, VmaKind::MappedFile,
                     /*populate=*/false);
        const Addr pages = bytes >> pageShift;
        for (Addr i = 0; i < pages; ++i)
            space.touch(base + ((i * 37) % pages) * pageSize);
    }

    struct Region
    {
        Addr base = 0;
        Memory *mem = nullptr;
    };

    PhysicalMemory mem_;
    BuddyAllocator alloc_;
    BuddyAllocator l1Alloc_;
    std::unique_ptr<AddressSpace> outer_;
    std::unique_ptr<GuestMemoryView> l1View_;
    std::unique_ptr<AddressSpace> inner_;
    std::unique_ptr<GuestMemoryView> l2View_;
    Region regions_[3];
};

/** The word loops the page-granular operations replace. */
struct WordLoops
{
    static void
    readWords(const Memory &m, Addr pa, std::uint64_t *out,
              std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = m.read64(pa + i * 8);
    }

    static void
    writeWords(Memory &m, Addr pa, const std::uint64_t *in,
               std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            m.write64(pa + i * 8, in[i]);
    }

    static void
    zeroRange(Memory &m, Addr pa, Addr bytes)
    {
        for (Addr off = 0; off < bytes; off += 8)
            m.write64(pa + off, 0);
    }

    static void
    copyRange(Memory &m, Addr dst, Addr src, Addr bytes)
    {
        for (Addr off = 0; off < bytes; off += 8)
            m.write64(dst + off, m.read64(src + off));
    }
};

/** Both machines' backing accounting must agree. */
void
expectSameBacking(PageOpMachine &got, PageOpMachine &want,
                  const std::string &what)
{
    EXPECT_EQ(got.backing().framesInUse(), want.backing().framesInUse())
        << what;
    EXPECT_EQ(got.backing().wordsInUse(), want.backing().wordsInUse())
        << what;
}

class PageOps : public ::testing::TestWithParam<int>
{
};

// Host memory's own zeroRange()/copyRange() drop whole frames by
// design (see test_mem.cc), so on target 0 only the word reads and
// writes must match the loops; on the views all four must.
TEST_P(PageOps, MatchWordLoopsWordForWordAndFrameForFrame)
{
    const int t = GetParam();
    PageOpMachine got;
    PageOpMachine want;
    Memory &g = got.target(t);
    Memory &w = want.target(t);
    const Addr base = got.regionBase(t);
    ASSERT_EQ(base, want.regionBase(t));
    constexpr std::size_t regionWords = PageOpMachine::regionBytes / 8;
    // Through a view, neighbouring pages are backed apart.
    if (t > 0) {
        ASSERT_NE(got.backingOf(t, base + pageSize),
                  got.backingOf(t, base) + pageSize);
    }

    Rng rng(0x9a9e0 + t);
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    for (int step = 0; step < 400; ++step) {
        const std::size_t n = 1 + rng.below(rng.below(4) == 0 ? 2000 : 600);
        const Addr pa = base + 8 * rng.below(regionWords - n);
        const auto op = rng.below(t == 0 ? 2 : 4);
        const std::string what = "step " + std::to_string(step);
        if (op == 0) {
            a.resize(n);
            for (auto &v : a)
                v = rng.below(3) == 0 ? 0 : rng.next() | 1;
            g.writeWords(pa, a.data(), n);
            WordLoops::writeWords(w, pa, a.data(), n);
        } else if (op == 1) {
            a.assign(n, 0);
            b.assign(n, 1);
            g.readWords(pa, a.data(), n);
            WordLoops::readWords(w, pa, b.data(), n);
            ASSERT_EQ(a, b) << what;
        } else if (op == 2) {
            // Whole pages half of the time.
            const Addr at = rng.below(2) ? pageAlignDown(pa) : pa;
            const Addr bytes = at == pa ? Addr{n} * 8
                                        : pageAlignUp(Addr{n} * 8);
            if (at + bytes > base + PageOpMachine::regionBytes)
                continue;
            g.zeroRange(at, bytes);
            WordLoops::zeroRange(w, at, bytes);
        } else {
            const Addr src = base + 8 * rng.below(regionWords - n);
            if (src < pa + n * 8 && pa < src + n * 8)
                continue;  // ranges must not overlap
            g.copyRange(pa, src, Addr{n} * 8);
            WordLoops::copyRange(w, pa, src, Addr{n} * 8);
        }
        expectSameBacking(got, want, what);
        if (HasFailure())
            return;
    }
    a.assign(regionWords, 0);
    b.assign(regionWords, 1);
    g.readWords(base, a.data(), regionWords);
    WordLoops::readWords(w, base, b.data(), regionWords);
    EXPECT_EQ(a, b);
}

class ViewPageOps : public ::testing::TestWithParam<int>
{
};

TEST_P(ViewPageOps, ZeroingAMaterialisedFrameKeepsIt)
{
    const int t = GetParam();
    PageOpMachine got;
    PageOpMachine want;
    const Addr page = got.regionBase(t) + 5 * pageSize;
    std::vector<std::uint64_t> ones(pageSize / 8, 0x5a5aull);
    for (PageOpMachine *m : {&got, &want})
        m->target(t).writeWords(page, ones.data(), ones.size());
    const std::size_t frames = got.backing().framesInUse();
    got.target(t).zeroRange(page, pageSize);
    WordLoops::zeroRange(want.target(t), page, pageSize);
    expectSameBacking(got, want, "whole-frame zero");
    EXPECT_EQ(got.backing().framesInUse(), frames);
    EXPECT_EQ(got.target(t).read64(page + 8), 0u);
    // Copying a zero page over a materialised one keeps it too.
    for (PageOpMachine *m : {&got, &want})
        m->target(t).writeWords(page, ones.data(), ones.size());
    got.target(t).copyRange(page, page + pageSize, pageSize);
    WordLoops::copyRange(want.target(t), page, page + pageSize,
                         pageSize);
    expectSameBacking(got, want, "zero-page copy");
    EXPECT_EQ(got.backing().framesInUse(), frames);
}

std::string
pageOpTargetName(const ::testing::TestParamInfo<int> &target)
{
    return target.param == 0   ? "host"
           : target.param == 1 ? "view"
                               : "view_of_view";
}

INSTANTIATE_TEST_SUITE_P(Targets, PageOps, ::testing::Values(0, 1, 2),
                         pageOpTargetName);
// Host memory drops a frame zeroed whole by design.
INSTANTIATE_TEST_SUITE_P(Targets, ViewPageOps, ::testing::Values(1, 2),
                         pageOpTargetName);

} // namespace
} // namespace dmt
