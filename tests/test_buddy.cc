/**
 * @file
 * Unit and property tests for the buddy allocator: alloc/free
 * round-trips, coalescing, contiguous runs (against a reference first
 * fit), batched single frames (against one allocPages(0) per frame),
 * double-free panics, in-place expansion, fragmentation index, and
 * compaction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <vector>

#include "buddy_drain.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"

namespace dmt
{
namespace
{

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator alloc(1024);
    EXPECT_EQ(alloc.freeFrames(), 1024u);
    alloc.checkConsistency();
}

TEST(Buddy, AllocFreeRoundTripRestoresEverything)
{
    BuddyAllocator alloc(1 << 14);
    std::vector<std::pair<Pfn, int>> blocks;
    for (int order : {0, 3, 5, 0, 9, 1, 4}) {
        auto pfn = alloc.allocPages(order, FrameKind::Movable);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & ((Pfn{1} << order) - 1), 0u)
            << "block must be naturally aligned";
        blocks.emplace_back(*pfn, order);
    }
    alloc.checkConsistency();
    for (auto [pfn, order] : blocks)
        alloc.freePages(pfn, order);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 14);
    alloc.checkConsistency();
    // Coalescing restored the maximal block.
    auto big = alloc.allocPages(14, FrameKind::Movable);
    EXPECT_TRUE(big.has_value());
}

TEST(Buddy, DistinctBlocksDoNotOverlap)
{
    BuddyAllocator alloc(1 << 12);
    std::set<Pfn> used;
    std::vector<Pfn> singles;
    while (true) {
        auto pfn = alloc.allocPages(0, FrameKind::Unmovable);
        if (!pfn)
            break;
        EXPECT_TRUE(used.insert(*pfn).second)
            << "frame handed out twice";
        singles.push_back(*pfn);
    }
    EXPECT_EQ(singles.size(), std::size_t{1} << 12);
    for (Pfn pfn : singles)
        alloc.freePages(pfn, 0);
    alloc.checkConsistency();
}

TEST(Buddy, ContiguousRunIsActuallyContiguousAndOwned)
{
    BuddyAllocator alloc(1 << 12);
    // Punch some holes first.
    auto a = alloc.allocPages(4, FrameKind::Unmovable);
    auto b = alloc.allocPages(6, FrameKind::Unmovable);
    ASSERT_TRUE(a && b);
    alloc.freePages(*a, 4);

    auto run = alloc.allocContig(777, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    for (Pfn i = 0; i < 777; ++i)
        EXPECT_EQ(alloc.kindOf(*run + i), FrameKind::PageTable);
    alloc.checkConsistency();
    alloc.freeContig(*run, 777);
    alloc.freePages(*b, 6);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 12);
    alloc.checkConsistency();
}

TEST(Buddy, ContigFailsWhenOnlyFragmentsRemain)
{
    BuddyAllocator alloc(256);
    Fragmenter fragmenter(alloc);
    fragmenter.fragment(0.5);
    // Half the memory is free, but only as isolated frames.
    EXPECT_GT(alloc.freeFrames(), 100u);
    EXPECT_FALSE(alloc.allocContig(2, FrameKind::PageTable));
    EXPECT_TRUE(alloc.allocContig(1, FrameKind::PageTable));
    alloc.checkConsistency();
}

TEST(Buddy, ExpandInPlaceClaimsFollowingFrames)
{
    BuddyAllocator alloc(1024);
    auto run = alloc.allocContig(10, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    EXPECT_TRUE(alloc.expandInPlace(*run, 10, 6,
                                    FrameKind::PageTable));
    for (Pfn i = 0; i < 16; ++i)
        EXPECT_EQ(alloc.kindOf(*run + i), FrameKind::PageTable);
    // Blocking frame prevents expansion.
    auto blocker = alloc.allocContig(1, FrameKind::Unmovable);
    ASSERT_TRUE(blocker.has_value());
    ASSERT_EQ(*blocker, *run + 16);
    EXPECT_FALSE(alloc.expandInPlace(*run, 16, 1,
                                     FrameKind::PageTable));
    alloc.freeContig(*run, 16);
    alloc.freePages(*blocker, 0);
    alloc.checkConsistency();
}

TEST(Buddy, ShrinkInPlaceReleasesTail)
{
    BuddyAllocator alloc(1024);
    auto run = alloc.allocContig(32, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    alloc.shrinkInPlace(*run, 32, 8);
    EXPECT_EQ(alloc.kindOf(*run + 7), FrameKind::PageTable);
    EXPECT_EQ(alloc.kindOf(*run + 8), FrameKind::Free);
    alloc.freeContig(*run, 8);
    EXPECT_EQ(alloc.freeFrames(), 1024u);
    alloc.checkConsistency();
}

TEST(Buddy, FragmentationIndexTracksFragmentation)
{
    BuddyAllocator alloc(1 << 14);
    // Pristine memory: high-order requests are satisfiable.
    EXPECT_LT(alloc.fragmentationIndex(9), 0.0);
    Fragmenter fragmenter(alloc);
    fragmenter.fragment(0.4);
    // Now only isolated frames are free: FMFI near 1 (paper: 0.99).
    const double fi = alloc.fragmentationIndex(9);
    EXPECT_GT(fi, 0.95);
    fragmenter.release();
    EXPECT_LT(alloc.fragmentationIndex(9), 0.0);
}

TEST(Buddy, CompactionCreatesContiguityAndInvokesHook)
{
    BuddyAllocator alloc(512);
    // Alternate movable allocations and holes.
    std::vector<Pfn> movable;
    for (int i = 0; i < 256; ++i) {
        auto a = alloc.allocPages(0, FrameKind::Movable);
        auto b = alloc.allocPages(0, FrameKind::Unmovable);
        ASSERT_TRUE(a && b);
        movable.push_back(*a);
    }
    // Free the unmovable ones to create holes... they were pinned;
    // instead free half the movable frames to fragment.
    // Free every other *movable* frame.
    for (std::size_t i = 0; i < movable.size(); i += 2)
        alloc.freePages(movable[i], 0);

    std::size_t hookCalls = 0;
    alloc.setRelocationHook([&](Pfn, Pfn) { ++hookCalls; });
    const auto moved = alloc.compact();
    EXPECT_EQ(moved, hookCalls);
    alloc.checkConsistency();
}

TEST(Buddy, RandomizedStressKeepsInvariants)
{
    Rng rng(123);
    BuddyAllocator alloc(1 << 13);
    std::vector<std::pair<Pfn, int>> live;
    for (int step = 0; step < 4000; ++step) {
        if (live.empty() || rng.below(100) < 60) {
            const int order = static_cast<int>(rng.below(6));
            auto pfn = alloc.allocPages(order, FrameKind::Movable);
            if (pfn)
                live.emplace_back(*pfn, order);
        } else {
            const auto idx = rng.below(live.size());
            alloc.freePages(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 0)
            alloc.checkConsistency();
    }
    for (auto [pfn, order] : live)
        alloc.freePages(pfn, order);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 13);
    alloc.checkConsistency();
}

/** Byte-at-a-time first fit over isFree(): the allocContig() oracle. */
std::optional<Pfn>
referenceFirstFit(const BuddyAllocator &alloc, std::uint64_t n)
{
    std::uint64_t run = 0;
    for (Pfn pfn = 0; pfn < alloc.numFrames(); ++pfn) {
        run = alloc.isFree(pfn) ? run + 1 : 0;
        if (run == n)
            return pfn + 1 - n;
    }
    return std::nullopt;
}

/** Byte-at-a-time check of the frames an expandInPlace() would claim. */
bool
referenceCanExpand(const BuddyAllocator &alloc, Pfn start,
                   std::uint64_t n)
{
    if (start + n > alloc.numFrames())
        return false;
    for (Pfn pfn = start; pfn < start + n; ++pfn) {
        if (!alloc.isFree(pfn))
            return false;
    }
    return true;
}

TEST(Buddy, AllocContigMatchesReferenceFirstFit)
{
    struct Held
    {
        Pfn base;
        std::uint64_t pages;
        int order;  //!< buddy order, or -1 for a contiguous run
    };
    struct Shape
    {
        Pfn frames;
        int maxOrder;          //!< largest allocPages() order drawn
        std::uint64_t bigRun;  //!< longest contiguous request
        int steps;
    };
    // An odd frame count leaves the word-wise scans and the last
    // 512-frame chunk of the free summary ragged. The large shape
    // spreads its blocks over hundreds of chunks, with requests that
    // straddle chunk edges or span several chunks.
    for (const Shape shape : {Shape{(Pfn{1} << 13) + 13, 4, 700, 3000},
                              Shape{(Pfn{1} << 17) + 13, 9, 1500, 1500}}) {
        for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
            Rng rng(seed);
            BuddyAllocator alloc(shape.frames);
            std::vector<Held> held;
            for (int step = 0; step < shape.steps; ++step) {
                const auto roll = rng.below(100);
                if (roll < 35) {
                    const int order = static_cast<int>(
                        rng.below(shape.maxOrder + 1));
                    const auto pfn =
                        alloc.allocPages(order, FrameKind::Movable);
                    if (pfn)
                        held.push_back({*pfn,
                                        std::uint64_t{1} << order, order});
                } else if (roll < 60) {
                    const std::uint64_t n =
                        1 + rng.below(rng.below(4) == 0 ? shape.bigRun
                                                        : 40);
                    const auto want = referenceFirstFit(alloc, n);
                    const auto got =
                        alloc.allocContig(n, FrameKind::PageTable);
                    ASSERT_EQ(got, want)
                        << "frames " << shape.frames << " seed " << seed
                        << " step " << step << " pages " << n;
                    if (got)
                        held.push_back({*got, n, -1});
                } else if (roll < 70 && !held.empty()) {
                    // Grow a held run (a buddy block stands in for
                    // one) by the frames right after it.
                    Held &h = held[rng.below(held.size())];
                    const std::uint64_t extra =
                        1 + rng.below(rng.below(2) == 0 ? 600 : 8);
                    const bool want = referenceCanExpand(
                        alloc, h.base + h.pages, extra);
                    ASSERT_EQ(alloc.expandInPlace(h.base, h.pages, extra,
                                                  FrameKind::PageTable),
                              want)
                        << "frames " << shape.frames << " seed " << seed
                        << " step " << step << " run " << h.base << "+"
                        << h.pages << " extra " << extra;
                    if (want) {
                        h.pages += extra;
                        h.order = -1;
                    }
                } else if (!held.empty()) {
                    const auto idx = rng.below(held.size());
                    const Held h = held[idx];
                    if (h.order >= 0)
                        alloc.freePages(h.base, h.order);
                    else
                        alloc.freeContig(h.base, h.pages);
                    held[idx] = held.back();
                    held.pop_back();
                }
                if (step % 500 == 0)
                    alloc.checkConsistency();
            }
            alloc.checkConsistency();
        }
    }
}

/** Marks an output slot allocFrames() must not write. */
constexpr Pfn kUnset = ~Pfn{0};

/** Twin allocators must agree on kinds and on every free block. */
void
expectSameFreeState(BuddyAllocator &a, BuddyAllocator &b)
{
    ASSERT_EQ(a.freeFrames(), b.freeFrames());
    for (Pfn pfn = 0; pfn < a.numFrames(); ++pfn)
        ASSERT_EQ(a.kindOf(pfn), b.kindOf(pfn)) << "frame " << pfn;
    EXPECT_EQ(drainFreeBlocks(a), drainFreeBlocks(b));
}

TEST(Buddy, AllocFramesMatchesOneAllocPagesPerFrame)
{
    struct Held
    {
        Pfn base;
        std::uint64_t pages;
        int order;  //!< buddy order, or -1 for a contiguous run
    };
    for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        Rng rng(seed);
        // A ragged frame count and a low top order exercise blocks
        // cut short by the end of memory and the order ceiling.
        const Pfn frames = (Pfn{1} << 13) + 13;
        BuddyAllocator singles(frames, 10);
        BuddyAllocator batched(frames, 10);
        std::vector<Held> held;
        for (int step = 0; step < 3000; ++step) {
            const auto roll = rng.below(100);
            if (roll < 20) {
                const int order = static_cast<int>(rng.below(6));
                const auto pfn =
                    singles.allocPages(order, FrameKind::Movable);
                ASSERT_EQ(pfn, batched.allocPages(order,
                                                  FrameKind::Movable));
                if (pfn)
                    held.push_back({*pfn, std::uint64_t{1} << order,
                                    order});
            } else if (roll < 30) {
                const std::uint64_t n = 1 + rng.below(100);
                const auto run =
                    singles.allocContig(n, FrameKind::PageTable);
                ASSERT_EQ(run, batched.allocContig(
                                   n, FrameKind::PageTable));
                if (run)
                    held.push_back({*run, n, -1});
            } else if (roll < 60) {
                // Mostly spans' worth of frames, sometimes more than
                // is free.
                const std::uint64_t n =
                    1 + rng.below(rng.below(4) == 0 ? 3000 : 600);
                const FrameKind kind = rng.below(2)
                                           ? FrameKind::Movable
                                           : FrameKind::PageTable;
                // One slot past n must stay untouched.
                std::vector<Pfn> got(n + 1, kUnset);
                const bool ok = batched.allocFrames(n, kind, got.data());
                ASSERT_EQ(ok, n <= singles.freeFrames())
                    << "seed " << seed << " step " << step;
                if (!ok) {
                    ASSERT_EQ(got, std::vector<Pfn>(n + 1, kUnset));
                    continue;
                }
                std::vector<Pfn> want;
                for (std::uint64_t i = 0; i < n; ++i)
                    want.push_back(*singles.allocPages(0, kind));
                want.push_back(kUnset);
                ASSERT_EQ(got, want) << "seed " << seed << " step "
                                     << step << " frames " << n;
                for (std::uint64_t i = 0; i < n; ++i)
                    held.push_back({got[i], 1, 0});
            } else if (!held.empty()) {
                const auto idx = rng.below(held.size());
                const Held h = held[idx];
                for (BuddyAllocator *a : {&singles, &batched}) {
                    if (h.order >= 0)
                        a->freePages(h.base, h.order);
                    else
                        a->freeContig(h.base, h.pages);
                }
                held[idx] = held.back();
                held.pop_back();
            }
            if (step % 500 == 0) {
                batched.checkConsistency();
                for (int o = 0; o <= batched.maxOrder(); ++o)
                    ASSERT_EQ(singles.freeBlocksAt(o),
                              batched.freeBlocksAt(o));
            }
        }
        batched.checkConsistency();
        expectSameFreeState(singles, batched);
    }
}

TEST(Buddy, AllocFramesBeyondFreeFramesChangesNothing)
{
    BuddyAllocator twin(1 << 12);
    BuddyAllocator alloc(1 << 12);
    for (BuddyAllocator *a : {&twin, &alloc}) {
        ASSERT_TRUE(a->allocContig(1000, FrameKind::PageTable));
        ASSERT_TRUE(a->allocPages(5, FrameKind::Movable));
        ASSERT_TRUE(a->allocPages(0, FrameKind::Movable));
    }
    const std::uint64_t n = alloc.freeFrames() + 1;
    std::vector<Pfn> out(n, kUnset);
    EXPECT_FALSE(alloc.allocFrames(n, FrameKind::Movable, out.data()));
    EXPECT_EQ(out, std::vector<Pfn>(n, kUnset));
    alloc.checkConsistency();
    expectSameFreeState(twin, alloc);

    // Exactly what is free succeeds, smallest blocks first, and
    // leaves nothing.
    BuddyAllocator full(777);
    BuddyAllocator fullTwin(777);
    std::vector<Pfn> all(777, kUnset);
    ASSERT_TRUE(full.allocFrames(777, FrameKind::Movable, all.data()));
    std::vector<Pfn> want;
    for (int i = 0; i < 777; ++i)
        want.push_back(*fullTwin.allocPages(0, FrameKind::Movable));
    EXPECT_EQ(all, want);
    EXPECT_EQ(all.front(), 776u);
    EXPECT_EQ(full.freeFrames(), 0u);
    Pfn one = kUnset;
    EXPECT_FALSE(full.allocFrames(1, FrameKind::Movable, &one));
    EXPECT_EQ(one, kUnset);
    full.checkConsistency();
}

TEST(BuddyDeathTest, FreePagesPanicsOnDoubleFree)
{
    BuddyAllocator alloc(1 << 10);
    const auto block = alloc.allocPages(3, FrameKind::Movable);
    ASSERT_TRUE(block.has_value());
    // Frame 5 of the block goes back early; freeing the block again
    // must name it.
    alloc.freeContig(*block + 5, 1);
    char want[64];
    std::snprintf(want, sizeof(want), "double free of frame 0x%llx",
                  static_cast<unsigned long long>(*block + 5));
    EXPECT_DEATH(alloc.freePages(*block, 3), want);

    const auto single = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(single.has_value());
    alloc.freePages(*single, 0);
    EXPECT_DEATH(alloc.freePages(*single, 0), "double free of frame");
}

TEST(BuddyDeathTest, FreeContigPanicsOnDoubleFree)
{
    BuddyAllocator alloc(1 << 10);
    const auto run = alloc.allocContig(37, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    alloc.freeContig(*run + 36, 1);
    EXPECT_DEATH(alloc.freeContig(*run, 37),
                 "double free in contiguous range");
    alloc.freeContig(*run, 36);
    EXPECT_DEATH(alloc.freeContig(*run, 36),
                 "double free in contiguous range");
}

} // namespace
} // namespace dmt
