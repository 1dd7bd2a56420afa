/**
 * @file
 * Unit tests for the VMA tree and the address space (demand paging,
 * THP, munmap, growth, backing replacement, compaction fix-up).
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/physical_memory.hh"
#include "os/address_space.hh"

namespace dmt
{
namespace
{

struct Observer : public VmaObserver
{
    int created = 0, destroyed = 0, resized = 0;
    void onVmaCreated(const Vma &) override { ++created; }
    void onVmaDestroyed(const Vma &) override { ++destroyed; }
    void onVmaResized(const Vma &, const Vma &) override
    {
        ++resized;
    }
};

TEST(VmaTree, CreateFindDestroy)
{
    VmaTree tree;
    tree.create(0x1000, 0x5000, VmaKind::Heap);
    EXPECT_EQ(tree.count(), 1u);
    const Vma *vma = tree.find(0x2abc);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->base, 0x1000u);
    EXPECT_EQ(tree.find(0x6000), nullptr);
    EXPECT_EQ(tree.find(0xfff), nullptr);
    tree.destroy(0x1000);
    EXPECT_EQ(tree.count(), 0u);
}

TEST(VmaTree, ObserverSeesLifecycle)
{
    VmaTree tree;
    Observer obs;
    tree.addObserver(&obs);
    tree.create(0x1000, 0x4000, VmaKind::Heap);
    tree.grow(0x1000, 0x8000);
    tree.shrink(0x1000, 0x2000);
    tree.destroy(0x1000);
    EXPECT_EQ(obs.created, 1);
    EXPECT_EQ(obs.resized, 2);
    EXPECT_EQ(obs.destroyed, 1);
}

TEST(VmaTree, SplitMakesTwoAdjacentVmas)
{
    VmaTree tree;
    tree.create(0x10000, 0x10000, VmaKind::Heap);
    tree.split(0x10000, 0x14000);
    EXPECT_EQ(tree.count(), 2u);
    EXPECT_EQ(tree.findByBase(0x10000)->size, 0x4000u);
    EXPECT_EQ(tree.findByBase(0x14000)->size, 0xc000u);
}

TEST(VmaTree, FindFreeRangeSkipsExistingVmas)
{
    VmaTree tree;
    tree.create(0x10000, 0x4000, VmaKind::Heap);
    tree.create(0x20000, 0x4000, VmaKind::Heap);
    const Addr at = tree.findFreeRange(0x10000, 0x2000);
    EXPECT_EQ(at, 0x14000u);
    // 0xb000 still fits in the 0xc000 gap between the two VMAs.
    EXPECT_EQ(tree.findFreeRange(0x10000, 0xb000), 0x14000u);
    // 0xd000 does not: the search continues past the second VMA.
    EXPECT_EQ(tree.findFreeRange(0x10000, 0xd000), 0x24000u);
}

struct SpaceFixture : public ::testing::Test
{
    SpaceFixture()
        : mem(Addr{1} << 31), alloc((Addr{1} << 31) >> pageShift)
    {
    }

    PhysicalMemory mem;
    BuddyAllocator alloc;
};

TEST_F(SpaceFixture, PopulateMapsEveryPage)
{
    AddressSpace proc(mem, alloc, {});
    const Vma &vma = proc.mmapAt(0x100000, 64 * pageSize,
                                 VmaKind::Heap);
    for (Addr va = vma.base; va < vma.end(); va += pageSize)
        EXPECT_TRUE(proc.pageTable().translate(va).has_value());
    EXPECT_EQ(proc.dataFrames(), 64u);
}

TEST_F(SpaceFixture, MunmapFreesFrames)
{
    AddressSpace proc(mem, alloc, {});
    const auto freeBefore = alloc.freeFrames();
    proc.mmapAt(0x100000, 64 * pageSize, VmaKind::Heap);
    proc.munmap(0x100000);
    EXPECT_EQ(alloc.freeFrames(), freeBefore);
    EXPECT_EQ(proc.dataFrames(), 0u);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, ThpUsesHugePagesWhereAligned)
{
    AddressSpaceConfig cfg;
    cfg.thp = ThpMode::Always;
    AddressSpace proc(mem, alloc, cfg);
    // 4 MB VMA aligned to 2 MB: two huge mappings.
    proc.mmapAt(0x40000000, 2 * hugePageSize, VmaKind::Heap);
    EXPECT_EQ(proc.hugeMappings(), 2u);
    const auto tr = proc.pageTable().translate(0x40000000 + 12345);
    ASSERT_TRUE(tr.has_value());
    EXPECT_EQ(tr->size, PageSize::Size2M);
    // Unaligned VMA edges fall back to 4 KB pages.
    proc.mmapAt(0x50001000, hugePageSize + 2 * pageSize,
                VmaKind::Heap);
    const auto edge = proc.pageTable().translate(0x50001000);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->size, PageSize::Size4K);
}

TEST_F(SpaceFixture, ThpRegionHoldingSmallPagesStaysSmall)
{
    AddressSpaceConfig cfg;
    cfg.thp = ThpMode::Always;
    const Addr base = 0x40000000;
    // 3 MB: one huge page, then 1 MB of 4 KB pages in a region the
    // VMA does not cover whole. Growing to 4 MB makes that region
    // fit, but it already holds 4 KB leaves: like Linux before a
    // khugepaged collapse, the rest of it is mapped at 4 KB too.
    AddressSpace populated(mem, alloc, cfg);
    populated.mmapAt(base, 3 * hugePageSize / 2, VmaKind::Heap);
    EXPECT_EQ(populated.hugeMappings(), 1u);
    populated.growVma(base, 2 * hugePageSize);
    EXPECT_EQ(populated.hugeMappings(), 1u);
    EXPECT_EQ(populated.dataFrames(), 1024u);
    for (Addr va = base + hugePageSize; va < base + 2 * hugePageSize;
         va += pageSize) {
        const auto tr = populated.pageTable().translate(va);
        ASSERT_TRUE(tr.has_value());
        EXPECT_EQ(tr->size, PageSize::Size4K);
    }

    // A demand fault into the grown region takes the same path.
    AddressSpace faulted(mem, alloc, cfg);
    faulted.mmapAt(base, 3 * hugePageSize / 2, VmaKind::Heap);
    faulted.growVma(base, 2 * hugePageSize, /*populate=*/false);
    EXPECT_TRUE(faulted.touch(base + 7 * hugePageSize / 4));
    EXPECT_EQ(faulted.hugeMappings(), 1u);
    EXPECT_EQ(faulted.pageTable().translate(base + 7 * hugePageSize / 4)
                  ->size,
              PageSize::Size4K);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, GrowPopulatesExtension)
{
    AddressSpace proc(mem, alloc, {});
    proc.mmapAt(0x100000, 16 * pageSize, VmaKind::Heap);
    proc.growVma(0x100000, 32 * pageSize);
    EXPECT_TRUE(proc.pageTable()
                    .translate(0x100000 + 31 * pageSize)
                    .has_value());
    EXPECT_EQ(proc.dataFrames(), 32u);
}

TEST_F(SpaceFixture, ReplaceBackingSplicesNewFrame)
{
    AddressSpace proc(mem, alloc, {});
    proc.mmapAt(0x100000, 4 * pageSize, VmaKind::Heap);
    const auto mine = alloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(mine.has_value());
    proc.replaceBacking(0x101000, *mine, 1);
    EXPECT_EQ(proc.pageTable().translate(0x101000)->pfn, *mine);
    // munmap must not free the caller-owned frame.
    proc.munmap(0x100000);
    EXPECT_EQ(alloc.kindOf(*mine), FrameKind::PageTable);
    alloc.freePages(*mine, 0);
}

TEST_F(SpaceFixture, ReplaceBackingDemotesHugePage)
{
    AddressSpaceConfig cfg;
    cfg.thp = ThpMode::Always;
    AddressSpace proc(mem, alloc, cfg);
    proc.mmapAt(0x40000000, hugePageSize, VmaKind::Heap);
    EXPECT_EQ(proc.hugeMappings(), 1u);
    const auto mine = alloc.allocPages(0, FrameKind::PageTable);
    proc.replaceBacking(0x40000000 + 5 * pageSize, *mine, 1);
    EXPECT_EQ(proc.hugeMappings(), 0u);
    const auto tr = proc.pageTable().translate(0x40000000);
    EXPECT_EQ(tr->size, PageSize::Size4K);
    const auto spliced =
        proc.pageTable().translate(0x40000000 + 5 * pageSize);
    EXPECT_EQ(spliced->pfn, *mine);
    proc.munmap(0x40000000);
    alloc.freePages(*mine, 0);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, SplicedFramesSurviveMunmapAndTeardown)
{
    const auto freeBefore = alloc.freeFrames();
    std::vector<Pfn> spliced;
    {
        AddressSpaceConfig cfg;
        cfg.thp = ThpMode::Always;
        AddressSpace proc(mem, alloc, cfg);
        proc.mmapAt(0x40000000, 2 * hugePageSize, VmaKind::Heap);
        proc.mmapAt(0x100000, 16 * pageSize, VmaKind::Heap);
        proc.mmapAt(0x200000, 8 * pageSize, VmaKind::Heap);
        auto splice = [&](Addr va) {
            const auto frame = alloc.allocPages(0, FrameKind::PageTable);
            ASSERT_TRUE(frame.has_value());
            proc.replaceBacking(va, *frame, 1);
            spliced.push_back(*frame);
        };
        splice(0x40000000 + 7 * pageSize);  // demotes a huge page
        splice(0x100000 + 3 * pageSize);
        // Re-splicing keeps the displaced spliced frame caller-owned.
        splice(0x100000 + 3 * pageSize);
        splice(0x200000 + 5 * pageSize);
        proc.munmap(0x200000);
        for (const Pfn pfn : spliced)
            EXPECT_EQ(alloc.kindOf(pfn), FrameKind::PageTable);
    }
    // Every owned frame came back; only the spliced ones are held.
    for (const Pfn pfn : spliced)
        EXPECT_EQ(alloc.kindOf(pfn), FrameKind::PageTable);
    EXPECT_EQ(alloc.freeFrames(), freeBefore - spliced.size());
    for (const Pfn pfn : spliced)
        alloc.freePages(pfn, 0);
    EXPECT_EQ(alloc.freeFrames(), freeBefore);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, CompactionHookKeepsTranslationsCorrect)
{
    AddressSpace proc(mem, alloc, {});
    alloc.setRelocationHook([&](Pfn from, Pfn to) {
        proc.onFrameRelocated(from, to);
    });
    proc.mmapAt(0x100000, 64 * pageSize, VmaKind::Heap);
    // Punch holes so compaction has something to do.
    std::vector<std::pair<Addr, Pfn>> expect;
    for (int i = 0; i < 64; ++i) {
        const Addr va = 0x100000 + Addr(i) * pageSize;
        mem.write64(proc.pageTable().translate(va)->pa, 1000 + i);
    }
    alloc.compact();
    for (int i = 0; i < 64; ++i) {
        const Addr va = 0x100000 + Addr(i) * pageSize;
        const auto tr = proc.pageTable().translate(va);
        ASSERT_TRUE(tr.has_value());
        // Content must still be reachable through the translation.
        EXPECT_EQ(mem.read64(tr->pa), Addr(1000 + i));
    }
}

} // namespace
} // namespace dmt
