/**
 * @file
 * Unit tests for the TLBs and page walk caches.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "tlb/pwc.hh"
#include "tlb/set_sweep.hh"
#include "tlb/tlb.hh"

namespace dmt
{
namespace
{

// The two set scans behind every TLB and PWC lookup and fill.
TEST(SetSweep, LastEqualAndFirstMinimum)
{
    const std::uint64_t keys[] = {7, ~0ull, 3, 7, ~0ull};
    EXPECT_EQ(lastEqualIndex(keys, 5, 7), 3);  // duplicates: last wins
    EXPECT_EQ(lastEqualIndex(keys, 5, 3), 2);
    EXPECT_EQ(lastEqualIndex(keys, 5, ~0ull), 4);
    EXPECT_EQ(lastEqualIndex(keys, 5, 5), -1);
    EXPECT_EQ(lastEqualIndex(keys, 0, 7), -1);

    const std::uint64_t stamps[] = {9, 4, 6, 4, 0, 0};
    EXPECT_EQ(firstMinIndex(stamps, 4), 1);  // ties: lowest index
    EXPECT_EQ(firstMinIndex(stamps, 6), 4);  // invalid way (stamp 0)
    EXPECT_EQ(firstMinIndex(stamps, 1), 0);
    const std::uint64_t top[] = {~0ull, ~0ull - 1, ~0ull - 1};
    EXPECT_EQ(firstMinIndex(top, 3), 1);
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb({"t", 64, 4});
    EXPECT_FALSE(tlb.lookup(0x1234000).has_value());
    tlb.insert(0x1234000, PageSize::Size4K);
    const auto hit = tlb.lookup(0x1234567);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size, PageSize::Size4K);
}

TEST(Tlb, HugeEntryCoversWholePage)
{
    Tlb tlb({"t", 64, 4});
    tlb.insert(0x40000000, PageSize::Size2M);
    EXPECT_TRUE(tlb.lookup(0x401fffff).has_value());
    EXPECT_FALSE(tlb.lookup(0x40200000).has_value());
}

TEST(Tlb, CapacityAndLruEviction)
{
    Tlb tlb({"t", 8, 2});  // 4 sets x 2 ways
    // Fill one set (vpns with equal low bits).
    tlb.insert(Addr{0} << 12, PageSize::Size4K);
    tlb.insert(Addr{4} << 12, PageSize::Size4K);
    tlb.lookup(Addr{0} << 12);  // make vpn 0 MRU
    tlb.insert(Addr{8} << 12, PageSize::Size4K);  // evicts vpn 4
    EXPECT_TRUE(tlb.lookup(Addr{0} << 12).has_value());
    EXPECT_FALSE(tlb.lookup(Addr{4} << 12).has_value());
    EXPECT_TRUE(tlb.lookup(Addr{8} << 12).has_value());
}

TEST(Tlb, InvalidateAndFlush)
{
    Tlb tlb({"t", 64, 4});
    tlb.insert(0x1000, PageSize::Size4K);
    tlb.insert(0x2000, PageSize::Size4K);
    tlb.invalidate(0x1000);
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(0x2000).has_value());
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(0x2000).has_value());
}

TEST(Tlb, ProbeFindsEntriesWithoutPerturbingState)
{
    Tlb tlb({"t", 8, 2});  // 4 sets x 2 ways
    tlb.insert(Addr{0} << 12, PageSize::Size4K);
    tlb.insert(Addr{4} << 12, PageSize::Size4K);
    const Counter hits = tlb.hits();
    const Counter misses = tlb.misses();
    // probe() sees residents and misses absentees...
    EXPECT_EQ(tlb.probe(Addr{0} << 12), PageSize::Size4K);
    EXPECT_EQ(tlb.probe(Addr{4} << 12), PageSize::Size4K);
    EXPECT_FALSE(tlb.probe(Addr{8} << 12).has_value());
    // ...without bumping any counter...
    EXPECT_EQ(tlb.hits(), hits);
    EXPECT_EQ(tlb.misses(), misses);
    // ...and without promoting to MRU: vpn 0 is still the LRU way,
    // so the next insert into the full set evicts it, not vpn 4.
    // (A lookup in probe's place would have made vpn 4 the victim.)
    tlb.probe(Addr{0} << 12);
    tlb.insert(Addr{8} << 12, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(Addr{0} << 12).has_value());
    EXPECT_TRUE(tlb.lookup(Addr{4} << 12).has_value());
}

TEST(Tlb, ProbeSeesAllPageSizes)
{
    Tlb tlb({"t", 64, 4});
    tlb.insert(0x40000000, PageSize::Size2M);
    tlb.insert(Addr{2} << 30, PageSize::Size1G);
    EXPECT_EQ(tlb.probe(0x401fffff), PageSize::Size2M);
    EXPECT_EQ(tlb.probe((Addr{2} << 30) + 0x123456),
              PageSize::Size1G);
    EXPECT_FALSE(tlb.probe(0x1000).has_value());
}

TEST(Tlb, LinearEntryCarriesItsTranslation)
{
    Tlb tlb({"t", 64, 4});
    // A 2 MB entry walked at one VA answers every VA of its page.
    tlb.insert(0x40012345, PageSize::Size2M, 0x80012345, true);
    const auto hit = tlb.lookup(0x401fffff);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size, PageSize::Size2M);
    EXPECT_TRUE(hit->linear);
    EXPECT_EQ(hit->pa, Addr{0x801fffff});
    // A non-linear entry hits but leaves the translation to the
    // caller.
    tlb.insert(0x80000000, PageSize::Size2M, 0x12345000, false);
    const auto nonLinear = tlb.lookup(0x80001000);
    ASSERT_TRUE(nonLinear.has_value());
    EXPECT_FALSE(nonLinear->linear);
    // Re-inserting a resident entry replaces its translation.
    tlb.insert(0x40000000, PageSize::Size2M, 0xc0000000, true);
    EXPECT_EQ(tlb.lookup(0x40000010)->pa, Addr{0xc0000010});
}

TEST(TlbHierarchy, StlbRefillCarriesTheTranslation)
{
    TlbHierarchy tlbs;
    tlbs.stlb().insert(0x7000, PageSize::Size4K, 0x3000, true);
    const TlbHierarchy::Lookup l2 = tlbs.lookupData(0x7abc);
    EXPECT_EQ(l2.level, TlbHierarchy::Result::L2Hit);
    EXPECT_TRUE(l2.linear);
    EXPECT_EQ(l2.pa, Addr{0x3abc});
    const TlbHierarchy::Lookup l1 = tlbs.lookupData(0x7def);
    EXPECT_EQ(l1.level, TlbHierarchy::Result::L1Hit);
    EXPECT_TRUE(l1.linear);
    EXPECT_EQ(l1.pa, Addr{0x3def});
    EXPECT_EQ(tlbs.lookupData(0x9000).level,
              TlbHierarchy::Result::Miss);
}

TEST(TlbHierarchy, StlbHitRefillsL1)
{
    TlbHierarchy tlbs;
    tlbs.insertData(0x5000, PageSize::Size4K, 0, false);
    tlbs.flush();
    tlbs.stlb().insert(0x5000, PageSize::Size4K);
    EXPECT_EQ(tlbs.lookupData(0x5000).level,
              TlbHierarchy::Result::L2Hit);
    // Refilled: next lookup hits L1.
    EXPECT_EQ(tlbs.lookupData(0x5000).level,
              TlbHierarchy::Result::L1Hit);
}

TEST(Pwc, MissReturnsRoot)
{
    PageWalkCache pwc;
    const auto hit = pwc.lookup(0x12345678, 4, 0xABC);
    EXPECT_EQ(hit.startLevel, 4);
    EXPECT_EQ(hit.tablePfn, 0xABCu);
}

TEST(Pwc, DeepestFillWins)
{
    PageWalkCache pwc;
    const Addr va = 0x40123456;
    pwc.fill(va, 3, 0x100);  // L3 table pointer
    pwc.fill(va, 1, 0x300);  // L1 table pointer
    const auto hit = pwc.lookup(va, 4, 0x1);
    EXPECT_EQ(hit.startLevel, 1);
    EXPECT_EQ(hit.tablePfn, 0x300u);
}

TEST(Pwc, TagsCoverTheTableSpan)
{
    PageWalkCache pwc;
    pwc.fill(0x40000000, 1, 0x300);
    // Same 2 MB span: hit.
    EXPECT_EQ(pwc.lookup(0x401fff00, 4, 0x1).startLevel, 1);
    // Next 2 MB span: miss.
    EXPECT_EQ(pwc.lookup(0x40200000, 4, 0x1).startLevel, 4);
}

TEST(Pwc, CapacityIsRespected)
{
    PwcConfig cfg;
    cfg.entriesForL1Table = 2;
    PageWalkCache pwc(cfg);
    pwc.fill(0x00000000, 1, 1);
    pwc.fill(0x00200000, 1, 2);
    pwc.fill(0x00400000, 1, 3);  // evicts LRU (first)
    EXPECT_EQ(pwc.lookup(0x00000000, 4, 9).startLevel, 4);
    EXPECT_EQ(pwc.lookup(0x00200000, 4, 9).startLevel, 1);
    EXPECT_EQ(pwc.lookup(0x00400000, 4, 9).startLevel, 1);
}

TEST(Pwc, ProbesDoNotDisturbState)
{
    PageWalkCache pwc;
    pwc.fill(0x40000000, 1, 0x300);
    EXPECT_TRUE(pwc.probeLeafPointer(0x40000000));
    EXPECT_FALSE(pwc.probeLeafPointer(0x80000000));
    EXPECT_TRUE(pwc.probeLowPointer(0x40000000));
}

} // namespace
} // namespace dmt
