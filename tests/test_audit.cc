/**
 * @file
 * Tests for the invariant-audit layer (src/check): auditor mechanics
 * (sweeps, intervals, pauses, unregistration), silence on a clean
 * machine, and — the point of the exercise — detection of each
 * deliberately injected corruption: a scribbled TEA-backed table
 * pointer, a buddy double free, a stale TLB entry, a TLB entry whose
 * carried frame went stale, PWC pointers (radix and both 2-D
 * dimensions) left stale by a table move, a buddy chunk summary
 * out of step with its frames, and broken cache-set recency order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "check/invariant_auditor.hh"
#include "core/mapping_manager.hh"
#include "core/tea_manager.hh"
#include "mem/cache.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"
#include "os/address_space.hh"
#include "pt/pte.hh"
#include "sim/radix_walker.hh"
#include "tlb/tlb.hh"
#include "virt/nested_walker.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

/**
 * Corruption-injection backdoor (befriended by BuddyAllocator and
 * Cache): plants an allocated block on a free list exactly as a
 * double free would, skews a chunk's free-frame count, and overwrites
 * raw cache ways, bypassing the structures' own guards.
 */
class AuditCorruptor
{
  public:
    static Addr &
    cacheWay(Cache &cache, std::size_t set, int way)
    {
        return cache.tags_[set * cache.config().associativity + way];
    }

    static void
    injectFreeBlock(BuddyAllocator &alloc, Pfn base, int order)
    {
        alloc.freeLists_[order].insert(base);
    }

    static void
    removeFreeBlock(BuddyAllocator &alloc, Pfn base, int order)
    {
        alloc.freeLists_[order].erase(base);
    }

    /** Add `delta` to the free-frame count of chunk `chunk`. */
    static void
    skewChunkSummary(BuddyAllocator &alloc, std::size_t chunk, int delta)
    {
        alloc.chunkFree_[chunk] =
            static_cast<std::uint16_t>(alloc.chunkFree_[chunk] + delta);
    }
};

namespace
{

bool
anyFrom(const std::vector<AuditViolation> &violations,
        const std::string &checker)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const AuditViolation &v) {
                           return v.checker == checker;
                       });
}

/** @return true if `checker` reported a detail containing `text`. */
bool
anyFromWith(const std::vector<AuditViolation> &violations,
            const std::string &checker, const std::string &text)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const AuditViolation &v) {
                           return v.checker == checker &&
                                  v.detail.find(text) !=
                                      std::string::npos;
                       });
}

TEST(InvariantAuditor, SweepCollectsNamedViolations)
{
    InvariantAuditor auditor;
    auditor.registerHook("healthy", [](AuditSink &) {});
    auditor.registerHook("broken", [](AuditSink &sink) {
        sink.fail("invariant %d went missing", 7);
    });
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.sweep(), 1u);
    EXPECT_FALSE(auditor.clean());
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].checker, "broken");
    EXPECT_EQ(auditor.violations()[0].detail,
              "invariant 7 went missing");
    EXPECT_EQ(auditor.stats().hooksRun, 2u);
}

TEST(InvariantAuditor, UnregisteredHookStopsRunning)
{
    InvariantAuditor auditor;
    const int id = auditor.registerHook(
        "broken", [](AuditSink &sink) { sink.fail("boom"); });
    EXPECT_EQ(auditor.sweep(), 1u);
    auditor.unregisterHook(id);
    auditor.unregisterHook(id);  // double removal is benign
    EXPECT_EQ(auditor.sweep(), 0u);
    EXPECT_TRUE(auditor.hookNames().empty());
}

TEST(InvariantAuditor, RunHookIsStandalone)
{
    const auto violations = InvariantAuditor::runHook(
        [](AuditSink &sink) { sink.fail("standalone"); });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].detail, "standalone");
}

TEST(InvariantAuditor, IntervalSweepsTickOnMutationEvents)
{
    InvariantAuditor auditor;
    BuddyAllocator alloc(1024);
    alloc.attachAuditor(auditor, "buddy");
    auditor.setInterval(2);
    const auto a = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(auditor.stats().sweeps, 0u);  // one event so far
    const auto b = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(auditor.stats().sweeps, 1u);  // second event swept
    {
        InvariantAuditor::Pause pause(&auditor);
        alloc.freePages(*a, 0);
        alloc.freePages(*b, 0);
        EXPECT_EQ(auditor.stats().sweeps, 1u);  // paused
    }
    const auto c = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(c.has_value());
    alloc.freePages(*c, 0);
    EXPECT_GT(auditor.stats().sweeps, 1u);  // resumed
    EXPECT_TRUE(auditor.clean());
}

struct AuditFixture : public ::testing::Test
{
    AuditFixture()
        : mem(Addr{1} << 30), alloc((Addr{1} << 30) >> pageShift),
          proc(mem, alloc, {})
    {
    }

    InvariantAuditor auditor;  //!< must outlive the subsystems
    PhysicalMemory mem;
    BuddyAllocator alloc;
    AddressSpace proc;
};

TEST_F(AuditFixture, CleanMachineSweepsSilently)
{
    LocalTeaSource source(alloc);
    TeaManager teas(proc.pageTable(), source);
    alloc.attachAuditor(auditor, "buddy");
    proc.pageTable().attachAuditor(auditor, "radix-pt");
    teas.attachAuditor(auditor, "tea");
    TlbHierarchy tlbs;
    tlbs.attachAuditor(
        auditor,
        [&](Addr va) -> std::optional<Tlb::Mapping> {
            const auto tr = proc.pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return Tlb::Mapping{tr->pa, tr->size};
        },
        "tlb");

    ASSERT_NE(teas.createTea(0x40000000, 8 * hugePageSize,
                             PageSize::Size4K),
              nullptr);
    // Two VMAs inside the TEA's cover, with a hole between them.
    proc.mmapAt(0x40000000, 4 * hugePageSize, VmaKind::Heap);
    proc.mmapAt(0x40000000 + 5 * hugePageSize, 2 * hugePageSize,
                VmaKind::Heap);
    for (Addr va = 0x40000000;
         va < 0x40000000 + 4 * hugePageSize; va += pageSize * 61) {
        tlbs.insertData(pageAlignDown(va), PageSize::Size4K, 0, false);
    }
    EXPECT_EQ(auditor.sweep(), 0u);

    // Unmapping one VMA with TEA-backed tables still live elsewhere
    // must also audit clean (after the stale TLB entries are shot
    // down, as the OS would).
    proc.munmap(0x40000000 + 5 * hugePageSize);
    tlbs.flush();
    EXPECT_EQ(auditor.sweep(), 0u);
    EXPECT_TRUE(auditor.clean());
    proc.munmap(0x40000000);
}

TEST_F(AuditFixture, ScribbledTeaTablePointerIsDetected)
{
    LocalTeaSource source(alloc);
    TeaManager teas(proc.pageTable(), source);
    proc.pageTable().attachAuditor(auditor, "radix-pt");
    teas.attachAuditor(auditor, "tea");

    const Addr base = 0x40000000;
    ASSERT_NE(teas.createTea(base, 4 * hugePageSize,
                             PageSize::Size4K),
              nullptr);
    proc.mmapAt(base, 4 * hugePageSize, VmaKind::Heap);
    EXPECT_EQ(auditor.sweep(), 0u);

    // Scribble: repoint the L2 slot for `base` at a freshly
    // allocated data frame, exactly what a wild write into the
    // page-table area would do. The leaf PTEs the TEA claims to
    // mirror are no longer the ones a radix walk reaches.
    const auto path = proc.pageTable().walkPath(base);
    const auto l2Step = std::find_if(
        path.begin(), path.end(),
        [](const WalkStep &s) { return s.level == 2; });
    ASSERT_NE(l2Step, path.end());
    const auto stray = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(stray.has_value());
    const std::uint64_t good = l2Step->pte;
    mem.write64(l2Step->pteAddr,
                makePte(*stray, pte_flags::present |
                                    pte_flags::writable));

    EXPECT_GT(auditor.sweep(), 0u);
    // Both sides of the TEA <-> radix coherence invariant fire: the
    // walk now ends outside the TEA run, and the tree grew a "table"
    // frame the allocator says is data.
    EXPECT_TRUE(anyFrom(auditor.violations(), "tea"));
    EXPECT_TRUE(anyFrom(auditor.violations(), "radix-pt"));

    // Heal and verify silence again.
    mem.write64(l2Step->pteAddr, good);
    alloc.freePages(*stray, 0);
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    proc.munmap(base);
}

TEST_F(AuditFixture, BuddyDoubleFreeIsDetected)
{
    alloc.attachAuditor(auditor, "buddy");
    const auto block = alloc.allocPages(2, FrameKind::Unmovable);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(auditor.sweep(), 0u);

    AuditCorruptor::injectFreeBlock(alloc, *block, 2);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), "buddy"));
    const auto &violations = auditor.violations();
    EXPECT_TRUE(std::any_of(
        violations.begin(), violations.end(),
        [](const AuditViolation &v) {
            return v.detail.find("double free") != std::string::npos;
        }));

    AuditCorruptor::removeFreeBlock(alloc, *block, 2);
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    alloc.freePages(*block, 2);
    EXPECT_EQ(auditor.sweep(), 0u);
}

// A stale chunk count would let first fit skip a free run or take a
// used one; the recount names the chunk.
TEST_F(AuditFixture, StaleChunkSummaryIsDetected)
{
    alloc.attachAuditor(auditor, "buddy");
    const auto run = alloc.allocContig(700, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(auditor.sweep(), 0u);

    const std::size_t chunk = (*run + 600) >> 9;  // partly used
    for (const int delta : {1, -1}) {
        AuditCorruptor::skewChunkSummary(alloc, chunk, delta);
        EXPECT_GT(auditor.sweep(), 0u) << delta;
        EXPECT_TRUE(anyFromWith(auditor.violations(), "buddy",
                                "chunk " + std::to_string(chunk)))
            << delta;
        AuditCorruptor::skewChunkSummary(alloc, chunk, -delta);
        auditor.clearViolations();
        EXPECT_EQ(auditor.sweep(), 0u);
    }
    alloc.freeContig(*run, 700);
    EXPECT_EQ(auditor.sweep(), 0u);
}

TEST_F(AuditFixture, StaleTlbEntryIsDetected)
{
    TlbHierarchy tlbs;
    tlbs.attachAuditor(
        auditor,
        [&](Addr va) -> std::optional<Tlb::Mapping> {
            const auto tr = proc.pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return Tlb::Mapping{tr->pa, tr->size};
        },
        "tlb");

    const Addr va = 0x50000000;
    proc.mmapAt(va, hugePageSize, VmaKind::Heap);
    tlbs.insertData(va, PageSize::Size4K, 0, false);
    EXPECT_EQ(auditor.sweep(), 0u);

    // Unmap without a TLB shootdown: the cached translation now
    // points at a page the table no longer maps.
    proc.munmap(va);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), "tlb"));

    tlbs.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
}

TEST_F(AuditFixture, RemappedTlbFrameIsDetected)
{
    TlbHierarchy tlbs;
    tlbs.attachAuditor(
        auditor,
        [&](Addr va) -> std::optional<Tlb::Mapping> {
            const auto tr = proc.pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return Tlb::Mapping{tr->pa, tr->size};
        },
        "tlb");

    const Addr va = 0x50000000;
    proc.mmapAt(va, hugePageSize, VmaKind::Heap);
    const auto tr = proc.pageTable().translate(va + 0x123);
    ASSERT_TRUE(tr.has_value());
    tlbs.insertData(va + 0x123, tr->size, tr->pa, /*linear=*/true);
    EXPECT_EQ(auditor.sweep(), 0u);

    // Remap the page to another frame at the same size without a
    // shootdown: the entry still has the right size, but hits would
    // be charged at the old frame.
    const WalkStep leaf = proc.pageTable().walkPath(va).back();
    const auto stray = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(stray.has_value());
    mem.write64(leaf.pteAddr, (leaf.pte & ~pteFrameMask) |
                                  (static_cast<std::uint64_t>(*stray)
                                   << pageShift));
    EXPECT_GT(auditor.sweep(), 0u);
    const auto &violations = auditor.violations();
    EXPECT_TRUE(std::any_of(
        violations.begin(), violations.end(),
        [](const AuditViolation &v) {
            return v.checker == "tlb" &&
                   v.detail.find("carries frame") != std::string::npos;
        }));

    // The shootdown the remap skipped restores coherence.
    tlbs.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    mem.write64(leaf.pteAddr, leaf.pte);
    alloc.freePages(*stray, 0);
    proc.munmap(va);
}

// A walk starts at the table pointer its PWC holds, so a pointer a
// table move left stale would be read on the next walk. These inject
// the move without the PWC shootdown it needs.
TEST_F(AuditFixture, StaleRadixPwcPointerIsDetected)
{
    const Addr va = 0x50000000;
    proc.mmapAt(va, hugePageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    RadixWalker walker(proc.pageTable(), caches);
    walker.attachAuditor(auditor);
    walker.walk(va);
    const WalkRecord rec = walker.walk(va + pageSize);
    ASSERT_EQ(rec.pwcStartLevel, 1);  // followed the L1-table pointer
    EXPECT_EQ(auditor.sweep(), 0u);

    proc.pageTable().relocateLeafTableToScattered(va, 1);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), "pwc"));

    walker.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    proc.munmap(va);
}

TEST_F(AuditFixture, StaleTwoDimensionalPwcPointersAreDetected)
{
    VmConfig cfg;
    cfg.vmBytes = Addr{256} << 20;
    VirtualMachine vm(mem, alloc, cfg);
    AddressSpace &guest = vm.guestSpace();
    RadixPageTable &hostPt = vm.containerSpace().pageTable();
    const Addr gva = 0x10000000;
    guest.mmapAt(gva, hugePageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    NestedWalker walker(guest.pageTable(), hostPt,
                        NestedWalker::GpaToHostVa{vm.gpaToHva(0)},
                        caches);
    walker.attachAuditor(auditor);
    const auto fill = [&] {
        walker.walk(gva);
        const WalkRecord rec = walker.walk(gva + pageSize);
        EXPECT_EQ(rec.pwcStartLevel, 1);
        EXPECT_GT(rec.nestedPwcHits, 0);
        EXPECT_EQ(auditor.sweep(), 0u);
    };

    // Guest dimension: the guest leaf table moves to another guest
    // frame, so the host frame the guest PWC caches for it is stale.
    fill();
    guest.pageTable().relocateLeafTableToScattered(gva, 1);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(
        anyFromWith(auditor.violations(), "pwc-2d", "guest-pwc"));
    walker.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);

    // Host dimension: the host leaf table backing the data page
    // moves, so the nested PWC's pointer to it is stale.
    fill();
    const Addr dataHva =
        vm.gpaToHva(guest.pageTable().translate(gva)->pa);
    hostPt.relocateLeafTableToScattered(dataHva, 1);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(
        anyFromWith(auditor.violations(), "pwc-2d", "nested-pwc"));
    walker.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    guest.munmap(gva);
}

TEST(CacheAudit, BrokenRecencyOrderIsDetected)
{
    InvariantAuditor auditor;
    Cache cache({"c", 2 * 4 * 64, 4, 64, 1});  // 2 sets x 4 ways
    auditor.registerHook("cache",
                         [&](AuditSink &sink) { cache.audit(sink); });
    // Set 0 holds lines 0x000 and 0x080 (MRU first); set 1 holds
    // 0x040; every other way is invalid.
    cache.insert(0x000);
    cache.insert(0x080);
    cache.insert(0x040);
    ASSERT_EQ(AuditCorruptor::cacheWay(cache, 0, 0), Addr{0x080 >> 6});
    EXPECT_EQ(auditor.sweep(), 0u);

    // Each corruption must be reported by its own check, and the
    // set must audit clean again once healed.
    auto expectCaught = [&](std::size_t set, int way, Addr tag,
                            const char *detail) {
        Addr &slot = AuditCorruptor::cacheWay(cache, set, way);
        const Addr good = slot;
        slot = tag;
        EXPECT_GT(auditor.sweep(), 0u) << detail;
        const auto &violations = auditor.violations();
        EXPECT_TRUE(std::any_of(
            violations.begin(), violations.end(),
            [&](const AuditViolation &v) {
                return v.detail.find(detail) != std::string::npos;
            }))
            << detail;
        slot = good;
        auditor.clearViolations();
        EXPECT_EQ(auditor.sweep(), 0u) << detail;
    };
    // An invalid MRU way ahead of a live line.
    expectCaught(0, 0, invalidAddr, "follows an invalid way");
    // Line 0x080 resident twice in set 0.
    expectCaught(0, 2, 0x080 >> 6, "resident twice");
    // Set 1's line planted in set 0.
    expectCaught(0, 2, 0x040 >> 6, "indexes to set");
}

} // namespace
} // namespace dmt
