/**
 * @file
 * Unit tests for physical memory, the set-associative cache, and the
 * memory hierarchy latencies (Table 3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/frame_pool.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"

namespace dmt
{
namespace
{

TEST(PhysicalMemory, ReadsBackWritesAndZeroes)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_EQ(mem.read64(0x1000), 0u);
    mem.write64(0x1000, 0xdeadbeefull);
    EXPECT_EQ(mem.read64(0x1000), 0xdeadbeefull);
    mem.zeroRange(0x1000, 0x100);
    EXPECT_EQ(mem.read64(0x1000), 0u);
}

TEST(PhysicalMemory, CopyRangeMovesContent)
{
    PhysicalMemory mem(1 << 20);
    for (Addr off = 0; off < 64; off += 8)
        mem.write64(0x2000 + off, off + 1);
    mem.copyRange(0x8000, 0x2000, 64);
    for (Addr off = 0; off < 64; off += 8)
        EXPECT_EQ(mem.read64(0x8000 + off), off + 1);
}

TEST(PhysicalMemory, SparseStorageOnlyKeepsNonzero)
{
    PhysicalMemory mem(1 << 30);
    mem.write64(0x100, 7);
    mem.write64(0x108, 9);
    EXPECT_EQ(mem.wordsInUse(), 2u);
    mem.write64(0x100, 0);
    EXPECT_EQ(mem.wordsInUse(), 1u);
}

TEST(PhysicalMemory, WritingZeroToFreshWordDoesNotInflateCount)
{
    PhysicalMemory mem(1 << 30);
    EXPECT_EQ(mem.wordsInUse(), 0u);
    // A zero store to a never-written word is indistinguishable from
    // not storing at all: no frame materialises, no word counts.
    mem.write64(0x2000, 0);
    EXPECT_EQ(mem.wordsInUse(), 0u);
    EXPECT_EQ(mem.framesInUse(), 0u);
    // Same within an already materialised frame.
    mem.write64(0x2008, 5);
    mem.write64(0x2010, 0);
    EXPECT_EQ(mem.wordsInUse(), 1u);
    EXPECT_EQ(mem.framesInUse(), 1u);
}

TEST(PhysicalMemory, FramesMaterialiseOnDemandAndDropWhenZeroed)
{
    PhysicalMemory mem(1 << 30);
    // Two words in one 4 KB frame, one in another.
    mem.write64(0x4000, 1);
    mem.write64(0x4ff8, 2);
    mem.write64(0x8000, 3);
    EXPECT_EQ(mem.framesInUse(), 2u);
    EXPECT_EQ(mem.wordsInUse(), 3u);
    // Partial zeroRange clears words but keeps the frame.
    mem.zeroRange(0x4000, 8);
    EXPECT_EQ(mem.read64(0x4000), 0u);
    EXPECT_EQ(mem.framesInUse(), 2u);
    EXPECT_EQ(mem.wordsInUse(), 2u);
    // Whole-frame zeroRange drops the frame entirely.
    mem.zeroRange(0x4000, 0x1000);
    EXPECT_EQ(mem.framesInUse(), 1u);
    EXPECT_EQ(mem.wordsInUse(), 1u);
    EXPECT_EQ(mem.read64(0x4ff8), 0u);
    EXPECT_EQ(mem.read64(0x8000), 3u);
}

TEST(PhysicalMemory, CopyRangeTracksNonzeroAcrossFrames)
{
    PhysicalMemory mem(1 << 30);
    // Source straddles a frame boundary at 0x5000.
    mem.write64(0x4ff8, 7);
    mem.write64(0x5000, 8);
    mem.copyRange(0x10ff8, 0x4ff8, 16);
    EXPECT_EQ(mem.read64(0x10ff8), 7u);
    EXPECT_EQ(mem.read64(0x11000), 8u);
    EXPECT_EQ(mem.wordsInUse(), 4u);
    // Copying zeros over the destination un-counts its words; the
    // never-materialised source frame behaves as a zero source.
    mem.copyRange(0x10ff8, 0x20ff8, 16);
    EXPECT_EQ(mem.read64(0x10ff8), 0u);
    EXPECT_EQ(mem.read64(0x11000), 0u);
    EXPECT_EQ(mem.wordsInUse(), 2u);
}

// The last aligned word of the 64-bit space: pa + 8 wraps to 0, so a
// bound check written as `pa + 8 > size` would let it through.
constexpr Addr topWord = 0xffff'ffff'ffff'fff8ull;

TEST(PhysicalMemoryDeathTest, Read64AtTopOfAddressSpacePanics)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_DEATH((void)mem.read64(topWord), "beyond memory size");
}

TEST(PhysicalMemoryDeathTest, Write64AtTopOfAddressSpacePanics)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_DEATH(mem.write64(topWord, 1), "beyond memory size");
}

TEST(PhysicalMemoryDeathTest, WindowReadAtTopOfAddressSpacePanics)
{
    PhysicalMemory mem(1 << 20);
    const Memory::ReadWindow win = mem.readWindow();
    EXPECT_EQ(win.page(topWord & ~pageMask), nullptr);
    EXPECT_DEATH((void)win.read(mem, topWord), "beyond memory size");
}

/**
 * A released frame comes back zero, whatever state it was released
 * in, and the same memory built twice reuses its own slots instead of
 * taking fresh ones from the pool.
 */
TEST(FramePool, ReleasedFramesComeBackZeroAndAreReused)
{
    constexpr Addr frames = 48;
    constexpr Addr bytes = frames * pageSize;
    const auto buildAndTearDown = [] {
        PhysicalMemory mem(bytes);
        std::vector<std::uint64_t> ones(pageSize / 8, ~0ull);
        for (Addr f = 0; f < frames; ++f)
            mem.writeWords(f * pageSize, ones.data(), ones.size());
        // Frames 16-31 are dropped whole; 32-47 are zeroed word by
        // word and stay materialised; 0-15 die holding nonzero words.
        mem.zeroRange(16 * pageSize, 16 * pageSize);
        for (Addr pa = 32 * pageSize; pa < bytes; pa += 8)
            mem.write64(pa, 0);
        EXPECT_EQ(mem.framesInUse(), 32u);
        EXPECT_EQ(mem.wordsInUse(), 16u * (pageSize / 8));
    };
    buildAndTearDown();
    const FramePool::Slot mark = FramePool::shared().highWater();
    buildAndTearDown();
    EXPECT_EQ(FramePool::shared().highWater(), mark);

    // Materialise more frames than the memory above held, so the new
    // one takes every slot it released; each must read zero apart
    // from the one word written into it.
    PhysicalMemory fresh(2 * bytes);
    EXPECT_EQ(fresh.framesInUse(), 0u);
    EXPECT_EQ(fresh.wordsInUse(), 0u);
    for (Addr f = 0; f < 2 * frames; ++f)
        fresh.write64(f * pageSize + (f % 512) * 8, f + 1);
    for (Addr pa = 0; pa < 2 * bytes; pa += 8) {
        const Addr f = pa / pageSize;
        const std::uint64_t want =
            (pa % pageSize == (f % 512) * 8) ? f + 1 : 0;
        ASSERT_EQ(fresh.read64(pa), want) << "pa 0x" << std::hex << pa;
    }
    EXPECT_EQ(fresh.framesInUse(), 2 * frames);
    EXPECT_EQ(fresh.wordsInUse(), 2 * frames);
}

/**
 * Executable reference for PhysicalMemory: a dense word array plus
 * the set of materialised frames, updated by the documented rules —
 * a frame materialises on its first nonzero word, a whole frame
 * zeroed (or copied over from a frame with no nonzero word) is
 * dropped, and a partial zero keeps it.
 */
class WordMapModel
{
  public:
    explicit WordMapModel(Addr bytes)
        : words_(bytes / 8, 0), live_((bytes + pageMask) / pageSize, false)
    {
    }

    std::uint64_t read(Addr pa) const { return words_[pa / 8]; }

    void
    write(Addr pa, std::uint64_t v)
    {
        if (!live_[pa / pageSize]) {
            if (v == 0)
                return;
            live_[pa / pageSize] = true;
        }
        words_[pa / 8] = v;
    }

    void
    zero(Addr pa, Addr bytes)
    {
        while (bytes > 0) {
            const Addr chunk = std::min(bytes, pageSize - (pa & pageMask));
            if (chunk == pageSize)
                live_[pa / pageSize] = false;
            std::fill_n(words_.begin() + pa / 8, chunk / 8, 0);
            pa += chunk;
            bytes -= chunk;
        }
    }

    void
    copy(Addr dst, Addr src, Addr bytes)
    {
        while (bytes > 0) {
            const Addr chunk =
                std::min({bytes, pageSize - (dst & pageMask),
                          pageSize - (src & pageMask)});
            if (!frameHasNonzero(src / pageSize)) {
                zero(dst, chunk);
            } else {
                live_[dst / pageSize] = true;
                std::copy_n(words_.begin() + src / 8, chunk / 8,
                            words_.begin() + dst / 8);
            }
            dst += chunk;
            src += chunk;
            bytes -= chunk;
        }
    }

    std::size_t
    frames() const
    {
        return static_cast<std::size_t>(
            std::count(live_.begin(), live_.end(), true));
    }

    std::size_t
    words() const
    {
        return words_.size() -
               static_cast<std::size_t>(
                   std::count(words_.begin(), words_.end(), 0ull));
    }

  private:
    bool
    frameHasNonzero(Addr frame) const
    {
        const auto first = words_.begin() + frame * (pageSize / 8);
        const auto last = words_.begin() +
            std::min<std::size_t>(words_.size(),
                                  (frame + 1) * (pageSize / 8));
        return std::any_of(first, last,
                           [](std::uint64_t w) { return w != 0; });
    }

    std::vector<std::uint64_t> words_;
    std::vector<bool> live_;
};

/** One memory under test, its model, and the random op stream. */
struct ModelledMemory
{
    explicit ModelledMemory(Addr bytes) : mem(bytes), model(bytes) {}

    PhysicalMemory mem;
    WordMapModel model;

    /** Every word, the window and the counters against the model. */
    void
    check() const
    {
        const Memory::ReadWindow win = mem.readWindow();
        for (Addr pa = 0; pa + 8 <= mem.size(); pa += 8) {
            const std::uint64_t got = mem.read64(pa);
            ASSERT_EQ(got, model.read(pa)) << "pa 0x" << std::hex << pa;
            ASSERT_EQ(win.read(mem, pa), got) << "pa 0x" << std::hex << pa;
        }
        for (Addr pa = 0; pa < mem.size(); pa += pageSize) {
            const std::uint64_t *page = win.page(pa);
            if (pa + pageSize > mem.size()) {
                EXPECT_EQ(page, nullptr);
                continue;
            }
            ASSERT_NE(page, nullptr);
            for (Addr w = 0; w < pageSize / 8; ++w)
                ASSERT_EQ(page[w], mem.read64(pa + w * 8));
        }
        EXPECT_EQ(mem.framesInUse(), model.frames());
        EXPECT_EQ(mem.wordsInUse(), model.words());
    }

    /** A word count of up to three frames that fits at pa. */
    static std::size_t
    runAt(Rng &rng, Addr pa, Addr bytes)
    {
        return static_cast<std::size_t>(std::min<Addr>(
            1 + rng.below(3 * pageSize / 8), (bytes - pa) / 8));
    }

    static std::uint64_t
    value(Rng &rng, unsigned zero_in)
    {
        return rng.below(zero_in) == 0 ? 0 : (rng.next() | 1);
    }

    /** Apply one random operation to both sides. */
    void
    step(Rng &rng)
    {
        const Addr bytes = mem.size();
        // Half the addresses start a frame, so whole-frame paths run.
        Addr pa = 8 * rng.below(bytes / 8);
        if (rng.below(2) == 0)
            pa &= ~pageMask;
        switch (rng.below(5)) {
          case 0: {
            const std::uint64_t v = value(rng, 3);
            mem.write64(pa, v);
            model.write(pa, v);
            break;
          }
          case 1: {
            std::vector<std::uint64_t> in(runAt(rng, pa, bytes));
            // A quarter of the runs are all zeros.
            const unsigned zeroIn = rng.below(4) == 0 ? 1 : 2;
            for (auto &v : in)
                v = value(rng, zeroIn);
            mem.writeWords(pa, in.data(), in.size());
            for (std::size_t i = 0; i < in.size(); ++i)
                model.write(pa + 8 * i, in[i]);
            break;
          }
          case 2: {
            const Addr len = 8 * runAt(rng, pa, bytes);
            mem.zeroRange(pa, len);
            model.zero(pa, len);
            break;
          }
          case 3: {
            const Addr len = 8 * std::min<Addr>(runAt(rng, pa, bytes),
                                                2 * pageSize / 8);
            Addr src;
            do {
                src = 8 * rng.below((bytes - len) / 8 + 1);
                if (rng.below(2) == 0)
                    src &= ~pageMask;
            } while (!(src + len <= pa || pa + len <= src));
            mem.copyRange(pa, src, len);
            model.copy(pa, src, len);
            break;
          }
          default: {
            std::vector<std::uint64_t> out(runAt(rng, pa, bytes));
            mem.readWords(pa, out.data(), out.size());
            for (std::size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], model.read(pa + 8 * i));
            break;
          }
        }
    }
};

/**
 * Random write64/writeWords/zeroRange/copyRange/readWords streams
 * that cross frame edges, on two memories alive at once (one with a
 * partial last frame), checked against the model after every step.
 */
TEST(FramePool, RandomOpsMatchWordMapModel)
{
    Rng rng(20240417);
    ModelledMemory a(12 * pageSize + 64);
    ModelledMemory b(9 * pageSize);
    for (int i = 0; i < 400; ++i) {
        ModelledMemory &m = (i % 2 == 0) ? a : b;
        m.step(rng);
        m.check();
        ASSERT_FALSE(HasFailure()) << "diverged at step " << i;
    }
}

TEST(Cache, HitAfterInsertMissBefore)
{
    Cache cache({"t", 4096, 4, 64, 10});
    EXPECT_FALSE(cache.access(0x1000));
    cache.insert(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    // Same line, different byte.
    EXPECT_TRUE(cache.access(0x103f));
    // Next line misses.
    EXPECT_FALSE(cache.access(0x1040));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 4 ways, 1 set: size = 4 * 64.
    Cache cache({"t", 256, 4, 64, 10});
    for (Addr a : {0x0ul, 0x1000ul, 0x2000ul, 0x3000ul})
        cache.insert(a);
    // Touch everything except 0x1000.
    cache.access(0x0);
    cache.access(0x2000);
    cache.access(0x3000);
    cache.insert(0x4000);  // evicts 0x1000
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_TRUE(cache.probe(0x4000));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache({"t", 4096, 4, 64, 10});
    cache.insert(0x5000);
    EXPECT_TRUE(cache.probe(0x5000));
    cache.invalidate(0x5000);
    EXPECT_FALSE(cache.probe(0x5000));
}

TEST(Hierarchy, LatenciesMatchTable3)
{
    MemoryHierarchy mh;
    // Cold: DRAM.
    EXPECT_EQ(mh.access(0x123400), 200u);
    // Now resident everywhere: L1.
    EXPECT_EQ(mh.access(0x123400), 4u);
    // A different line in the same page: DRAM again.
    EXPECT_EQ(mh.access(0x123440), 200u);
}

TEST(Hierarchy, FillPropagatesDownOnEviction)
{
    MemoryHierarchy mh;
    mh.access(0x100000);  // fills L1/L2/LLC
    // Thrash L1 (32 KB, 8-way, 64 sets): fill way past its capacity
    // with same-set lines.
    for (int i = 1; i <= 64; ++i)
        mh.access(0x100000 + static_cast<Addr>(i) * 4096);
    // Should now hit in L2 (14 cycles), not L1.
    const Cycles c = mh.access(0x100000);
    EXPECT_EQ(c, 14u);
}

TEST(Hierarchy, CleanAccessDoesNotAllocate)
{
    MemoryHierarchy mh;
    EXPECT_EQ(mh.accessClean(0x200000), 200u);
    // Still not resident.
    EXPECT_EQ(mh.accessClean(0x200000), 200u);
    // But a clean access hits if the line is already resident.
    mh.access(0x200000);
    EXPECT_EQ(mh.accessClean(0x200000), 4u);
}

TEST(Hierarchy, PrefetchWarmsL2NotL1)
{
    MemoryHierarchy mh;
    mh.prefetch(0x300000);
    EXPECT_EQ(mh.access(0x300000), 14u);  // L2 hit
}

} // namespace
} // namespace dmt
