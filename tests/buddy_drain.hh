/**
 * @file
 * Test helpers: read a buddy allocator's free lists block by block,
 * and compare two allocators by them.
 */

#ifndef DMT_TESTS_BUDDY_DRAIN_HH
#define DMT_TESTS_BUDDY_DRAIN_HH

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "os/buddy_allocator.hh"

namespace dmt
{

/**
 * List every free block by allocating them all, largest order first,
 * then freeing them again. Once no larger block is left,
 * allocPages(order) takes the lowest block of that order without
 * splitting, so the list holds each free list block by block in
 * ascending order: two allocators with equal per-order counts can
 * still differ here, and then hand out different frames next.
 * Maximal coalescing makes the free lists a function of the free set,
 * so freeing the blocks restores them exactly. Ticks the allocator's
 * audit events; detach interval sweeps first if that is slow.
 *
 * @return (order, base) of every free block
 */
inline std::vector<std::pair<int, Pfn>>
drainFreeBlocks(BuddyAllocator &alloc)
{
    std::vector<std::pair<int, Pfn>> blocks;
    for (int order = alloc.maxOrder(); order >= 0; --order) {
        while (alloc.freeBlocksAt(order) > 0) {
            blocks.emplace_back(
                order, *alloc.allocPages(order, FrameKind::Unmovable));
        }
    }
    for (const auto &[order, base] : blocks)
        alloc.freePages(base, order);
    return blocks;
}

/**
 * Every frame's kind and every free block of two allocators must
 * agree: free frames, per-order counts and drainFreeBlocks().
 */
inline void
expectSameAllocator(BuddyAllocator &a, BuddyAllocator &b)
{
    ASSERT_EQ(a.numFrames(), b.numFrames());
    EXPECT_EQ(a.freeFrames(), b.freeFrames());
    for (int order = 0; order <= a.maxOrder(); ++order) {
        EXPECT_EQ(a.freeBlocksAt(order), b.freeBlocksAt(order))
            << "order " << order;
    }
    for (Pfn pfn = 0; pfn < a.numFrames(); ++pfn) {
        if (a.kindOf(pfn) != b.kindOf(pfn)) {
            ADD_FAILURE() << "frame 0x" << std::hex << pfn
                          << " differs in kind";
            break;
        }
    }
    EXPECT_EQ(drainFreeBlocks(a), drainFreeBlocks(b));
}

} // namespace dmt

#endif // DMT_TESTS_BUDDY_DRAIN_HH
