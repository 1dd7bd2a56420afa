/**
 * @file
 * Unit and property tests for the elastic cuckoo page table baseline.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "baselines/ecpt.hh"
#include "common/rng.hh"
#include "mem/physical_memory.hh"
#include "pt/pte.hh"

namespace dmt
{
namespace
{

TEST(Ecpt, InsertAndFindManyRandomKeys)
{
    PhysicalMemory mem(Addr{1} << 32);
    BuddyAllocator alloc((Addr{1} << 32) >> pageShift);
    EcptTable ecpt(mem, alloc, {PageSize::Size4K}, 2, 1024);

    Rng rng(99);
    std::unordered_map<Vpn, Pfn> truth;
    for (int i = 0; i < 100'000; ++i) {
        const Vpn vpn = rng.below(1ull << 36);
        const Pfn pfn = rng.below(1ull << 20);
        truth[vpn] = pfn;
        ecpt.insert(vpn << pageShift, pfn, PageSize::Size4K);
    }
    // dmtlint: allow(nondet-iteration) -- order-independent EXPECTs
    // over a test-local truth map; no order reaches any output
    for (const auto &[vpn, pfn] : truth) {
        const auto hit = ecpt.find(vpn << pageShift);
        ASSERT_TRUE(hit.has_value()) << "vpn " << vpn;
        EXPECT_EQ(ptePfn(hit->pte), pfn);
        EXPECT_EQ(hit->size, PageSize::Size4K);
    }
    EXPECT_GT(ecpt.resizes(), 0u);
}

TEST(Ecpt, MixedPageSizes)
{
    PhysicalMemory mem(Addr{1} << 31);
    BuddyAllocator alloc((Addr{1} << 31) >> pageShift);
    EcptTable ecpt(mem, alloc,
                   {PageSize::Size4K, PageSize::Size2M}, 2, 1024);
    ecpt.insert(0x200000, 0x111, PageSize::Size2M);
    ecpt.insert(0x1000, 0x222, PageSize::Size4K);
    // A VA inside the huge page resolves via the 2M entry.
    auto hit = ecpt.find(0x234567);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size, PageSize::Size2M);
    EXPECT_EQ(ptePfn(hit->pte), 0x111u);
    hit = ecpt.find(0x1abc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size, PageSize::Size4K);
}

TEST(Ecpt, ProbeAddrsCoverAllWaysAndSizes)
{
    PhysicalMemory mem(Addr{1} << 30);
    BuddyAllocator alloc((Addr{1} << 30) >> pageShift);
    EcptTable ecpt(mem, alloc,
                   {PageSize::Size4K, PageSize::Size2M}, 2, 1024);
    // Empty size classes are filtered out of the probe set.
    Addr addrs[EcptTable::maxProbes];
    EXPECT_EQ(ecpt.probeAddrs(0x12345678, addrs), 0);
    ecpt.insert(0x1000, 1, PageSize::Size4K);
    EXPECT_EQ(ecpt.probeAddrs(0x12345678, addrs), 2);
    ecpt.insert(0x200000, 2, PageSize::Size2M);
    EXPECT_EQ(ecpt.probeAddrs(0x12345678, addrs), 4);
}

} // namespace
} // namespace dmt
