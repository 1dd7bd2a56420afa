#include "baselines/ecpt.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "pt/pte.hh"

namespace dmt
{

EcptTable::EcptTable(Memory &mem, BuddyAllocator &allocator,
                     std::vector<PageSize> sizes, int ways,
                     std::uint64_t initial_slots)
    : mem_(mem), allocator_(allocator), sizes_(std::move(sizes)),
      numWays_(ways)
{
    DMT_ASSERT(ways >= 2 && ways <= 4, "ECPT uses 2-4 ways");
    DMT_ASSERT(!sizes_.empty(), "ECPT needs at least one size class");
    DMT_ASSERT(sizes_.size() <= 3, "ECPT has three size classes");
    // hashOf() masks by slots / 8; resize() keeps the count a power
    // of two by doubling it.
    DMT_ASSERT(initial_slots >= 8 &&
                   (initial_slots & (initial_slots - 1)) == 0,
               "ECPT ways need a power-of-two slot count >= 8");
    std::uint64_t seed = 0x9b97f4a5ull;
    for (PageSize size : sizes_) {
        auto &ws = waysOf(size);
        ws.resize(numWays_);
        for (int w = 0; w < numWays_; ++w) {
            ws[w].size = size;
            ws[w].seed = seed += 0x9e3779b97f4a7c15ull;
            allocWay(ws[w], initial_slots);
        }
    }
}

EcptTable::~EcptTable()
{
    for (auto *ws : {&ways4k_, &ways2m_, &ways1g_}) {
        for (auto &w : *ws) {
            if (w.slots)
                freeWay(w);
        }
    }
}

std::vector<EcptTable::Way> &
EcptTable::waysOf(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return ways4k_;
      case PageSize::Size2M: return ways2m_;
      case PageSize::Size1G: return ways1g_;
    }
    return ways4k_;
}

const std::vector<EcptTable::Way> &
EcptTable::waysOf(PageSize size) const
{
    switch (size) {
      case PageSize::Size4K: return ways4k_;
      case PageSize::Size2M: return ways2m_;
      case PageSize::Size1G: return ways1g_;
    }
    return ways4k_;
}

void
EcptTable::allocWay(Way &way, std::uint64_t slots)
{
    const std::uint64_t bytes = slots * slotBytes;
    const std::uint64_t pages = (bytes + pageMask) >> pageShift;
    const auto base =
        allocator_.allocContig(pages, FrameKind::PageTable);
    if (!base)
        fatal("out of contiguous memory for an ECPT way");
    way.basePfn = *base;
    way.slots = slots;
    way.used = 0;
    mem_.zeroRange(*base << pageShift, pages << pageShift);
}

void
EcptTable::freeWay(Way &way)
{
    const std::uint64_t bytes = way.slots * slotBytes;
    const std::uint64_t pages = (bytes + pageMask) >> pageShift;
    allocator_.freeContig(way.basePfn, pages);
    way.slots = 0;
}

std::uint64_t
EcptTable::hashOf(const Way &way, Vpn vpn) const
{
    // Page clustering (Skarlatos et al. §4): eight consecutive VPNs
    // share one hash and occupy adjacent slots, giving radix-like
    // line density and spatial locality.
    std::uint64_t z = (vpn >> 3) + way.seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return (z & (way.slots / 8 - 1)) * 8 + (vpn & 7);
}

Addr
EcptTable::slotAddr(const Way &way, std::uint64_t idx) const
{
    return (way.basePfn << pageShift) + idx * slotBytes;
}

bool
EcptTable::tryInsert(Way *ways, int n_ways, Vpn &vpn,
                     std::uint64_t &pte, int max_kicks)
{
    int way = 0;
    for (int kick = 0; kick <= max_kicks; ++kick) {
        // Try every way for an empty slot (or the key itself).
        for (int w = 0; w < n_ways; ++w) {
            Way &cand = ways[w];
            const Addr addr = slotAddr(cand, hashOf(cand, vpn));
            const std::uint64_t tag = mem_.read64(addr);
            if (!(tag & 1) || (tag >> 1) == vpn) {
                if (!(tag & 1))
                    ++cand.used;
                mem_.write64(addr, (vpn << 1) | 1);
                mem_.write64(addr + 8, pte);
                return true;
            }
        }
        if (kick == max_kicks)
            break;  // give up with (vpn, pte) still in hand
        // Displace the occupant of the next way round-robin.
        Way &victim = ways[way];
        way = (way + 1) % n_ways;
        const Addr addr = slotAddr(victim, hashOf(victim, vpn));
        const std::uint64_t oldTag = mem_.read64(addr);
        const std::uint64_t oldPte = mem_.read64(addr + 8);
        mem_.write64(addr, (vpn << 1) | 1);
        mem_.write64(addr + 8, pte);
        // The evicted occupant becomes the pending insertion; on
        // failure the caller re-inserts it after resizing.
        vpn = oldTag >> 1;
        pte = oldPte;
        ++kicks_;
    }
    return false;
}

void
EcptTable::resize(PageSize size)
{
    auto &ws = waysOf(size);
    // Collect every live entry, a page of slots per read, then
    // rebuild doubled ways.
    std::vector<std::pair<Vpn, std::uint64_t>> live;
    std::uint64_t used = 0;
    for (const auto &w : ws)
        used += w.used;
    live.reserve(used);
    std::array<std::uint64_t, ptesPerPage> page{};
    for (auto &w : ws) {
        const std::uint64_t words = w.slots * (slotBytes / 8);
        for (std::uint64_t off = 0; off < words; off += page.size()) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(page.size(), words - off));
            mem_.readWords(slotAddr(w, 0) + off * 8, page.data(), n);
            for (std::size_t i = 0; i < n; i += 2) {
                if (page[i] & 1)
                    live.emplace_back(page[i] >> 1, page[i + 1]);
            }
        }
    }
    const std::uint64_t newSlots = ws[0].slots * 2;
    for (auto &w : ws) {
        freeWay(w);
        allocWay(w, newSlots);
    }
    ++resizes_;
    for (auto [vpn, pte] : live) {
        // Extremely unlikely to fail at 50% load; double again and
        // keep the pending (possibly displaced) entry.
        while (!tryInsert(ws.data(), numWays_, vpn, pte, 64))
            resize(size);
    }
}

void
EcptTable::insert(Addr va, Pfn pfn, PageSize size)
{
    auto &ws = waysOf(size);
    DMT_ASSERT(!ws.empty(), "inserting into an inactive size class");
    Vpn vpn = va >> pageShiftOf(size);
    std::uint64_t flags = pte_flags::present | pte_flags::writable |
                          pte_flags::user;
    if (size != PageSize::Size4K)
        flags |= pte_flags::pageSize;
    std::uint64_t pte = makePte(pfn, flags);
    // Resize proactively at 80% aggregate load (the elastic part).
    std::uint64_t used = 0;
    for (const auto &w : ws)
        used += w.used;
    if (used * 10 >= ws.size() * ws[0].slots * 8)
        resize(size);
    Vpn pending = vpn;
    while (!tryInsert(ws.data(), numWays_, pending, pte, 32))
        resize(size);
}

std::optional<EcptTable::Hit>
EcptTable::find(Addr va) const
{
    for (PageSize size : sizes_) {
        const auto &ws = waysOf(size);
        if (classEmpty(ws))
            continue;
        const Vpn vpn = va >> pageShiftOf(size);
        for (const auto &w : ws) {
            const Addr addr = slotAddr(w, hashOf(w, vpn));
            const std::uint64_t tag = mem_.read64(addr);
            if ((tag & 1) && (tag >> 1) == vpn)
                return Hit{mem_.read64(addr + 8), size, addr};
        }
    }
    return std::nullopt;
}

int
EcptTable::probeAddrs(Addr va, Addr *out) const
{
    int n = 0;
    for (PageSize size : sizes_) {
        const auto &ws = waysOf(size);
        // Hardware "way filters" skip size classes with no entries
        // at all (a per-class valid counter).
        if (classEmpty(ws))
            continue;
        const Vpn vpn = va >> pageShiftOf(size);
        for (const auto &w : ws)
            out[n++] = slotAddr(w, hashOf(w, vpn));
    }
    return n;
}

bool
EcptTable::classEmpty(const std::vector<Way> &ws) const
{
    for (const auto &w : ws) {
        if (w.used > 0)
            return false;
    }
    return true;
}

std::uint64_t
EcptTable::framePages() const
{
    std::uint64_t pages = 0;
    for (const auto *ws : {&ways4k_, &ways2m_, &ways1g_}) {
        for (const auto &w : *ws)
            pages += (w.slots * slotBytes + pageMask) >> pageShift;
    }
    return pages;
}

EcptNativeWalker::EcptNativeWalker(const EcptTable &table,
                                   MemoryHierarchy &caches)
    : table_(table), caches_(caches)
{
}

WalkRecord
EcptNativeWalker::walk(Addr va)
{
    WalkRecord rec;
    ++walkCount_;
    // The cuckoo walk caches usually pinpoint the way and size class
    // holding the translation, so the common case is a single probe;
    // on a CWC miss every way of every active class is probed in
    // parallel, completing when the matching entry arrives.
    const auto hit = table_.find(va);
    DMT_ASSERT(hit.has_value(), "ECPT miss for mapped va 0x%llx",
               static_cast<unsigned long long>(va));
    const bool cwcMiss =
        (walkCount_ % 100) >= ecptCwcHitPercent;
    Cycles latency = 0;
    int probes = 0;
    if (cwcMiss) {
        Addr addrs[EcptTable::maxProbes];
        const int n = table_.probeAddrs(va, addrs);
        for (int i = 0; i < n; ++i) {
            if (addrs[i] == hit->entryAddr)
                latency = caches_.access(addrs[i]);
            else
                caches_.accessClean(addrs[i]);
            ++probes;
        }
    } else {
        latency = caches_.access(hit->entryAddr);
        probes = 1;
    }
    rec.latency = latency + ecptHashCycles + ecptCwcCycles;
    rec.seqRefs = 1;
    rec.parallelRefs = probes - 1;
    rec.size = hit->size;
    rec.pa = (ptePfn(hit->pte) << pageShift) +
             (va & (pageBytesOf(hit->size) - 1));
    if (recordSteps_)
        rec.steps.push_back({'n', 1, rec.latency});
    return rec;
}

Addr
EcptNativeWalker::resolve(Addr va)
{
    const auto hit = table_.find(va);
    DMT_ASSERT(hit.has_value(), "ECPT resolve miss");
    return (ptePfn(hit->pte) << pageShift) +
           (va & (pageBytesOf(hit->size) - 1));
}

EcptVirtWalker::EcptVirtWalker(const EcptTable &guest_table,
                               const EcptTable &host_table,
                               VirtualMachine &vm,
                               MemoryHierarchy &caches)
    : guestTable_(guest_table), hostTable_(host_table), vm_(vm),
      caches_(caches)
{
}

bool
EcptVirtWalker::fullProbe() const
{
    return (walkCount_ % 100) >= ecptCwcHitPercent;
}

Addr
EcptVirtWalker::hostStep(Addr gpa, Cycles &latency, int &probes)
{
    const Addr hva = vm_.gpaToHva(gpa);
    const auto hit = hostTable_.find(hva);
    DMT_ASSERT(hit.has_value(), "host ECPT miss for gpa 0x%llx",
               static_cast<unsigned long long>(gpa));
    if (fullProbe()) {
        // CWC miss: probe every way; the matching way's arrival
        // completes the step, the rest are discarded.
        Addr addrs[EcptTable::maxProbes];
        const int n = hostTable_.probeAddrs(hva, addrs);
        for (int i = 0; i < n; ++i) {
            if (addrs[i] == hit->entryAddr)
                latency = std::max(latency, caches_.access(addrs[i]));
            else
                caches_.accessClean(addrs[i]);
            ++probes;
        }
    } else {
        latency = std::max(latency, caches_.access(hit->entryAddr));
        ++probes;
    }
    return (ptePfn(hit->pte) << pageShift) +
           (hva & (pageBytesOf(hit->size) - 1));
}

WalkRecord
EcptVirtWalker::walk(Addr gva)
{
    WalkRecord rec;
    ++walkCount_;

    // Step 1: host-resolve the guest probe addresses. On a CWC hit
    // only the matching guest way is probed; on a miss, every way's
    // (way x way) chain issues and only the matching chain is on the
    // latency path.
    const auto ghit = guestTable_.find(gva);
    DMT_ASSERT(ghit.has_value(), "guest ECPT miss");
    Addr gProbes[EcptTable::maxProbes];
    int nProbes = 1;
    if (fullProbe())
        nProbes = guestTable_.probeAddrs(gva, gProbes);
    else
        gProbes[0] = ghit->entryAddr;
    Cycles step1 = 0;
    int probes1 = 0;
    Addr gEntryHpas[EcptTable::maxProbes];
    for (int i = 0; i < nProbes; ++i) {
        Cycles chain = 0;
        gEntryHpas[i] = hostStep(gProbes[i], chain, probes1);
        if (gProbes[i] == ghit->entryAddr)
            step1 = chain;
    }
    rec.latency += step1 + ecptHashCycles + ecptCwcCycles;
    ++rec.seqRefs;
    rec.parallelRefs += probes1 - 1;
    if (recordSteps_)
        rec.steps.push_back({'h', 1, step1});

    // Step 2: read the guest entries; the matching one completes
    // the step.
    Cycles step2 = 0;
    for (int i = 0; i < nProbes; ++i) {
        if (gProbes[i] == ghit->entryAddr)
            step2 = caches_.access(gEntryHpas[i]);
        else
            caches_.accessClean(gEntryHpas[i]);
    }
    rec.latency += step2 + ecptHashCycles;
    ++rec.seqRefs;
    rec.parallelRefs += nProbes - 1;
    if (recordSteps_)
        rec.steps.push_back({'g', 1, step2});
    const Addr dataGpa = (ptePfn(ghit->pte) << pageShift) +
                         (gva & (pageBytesOf(ghit->size) - 1));
    rec.size = ghit->size;

    // Step 3: host-resolve the data page.
    Cycles step3 = 0;
    int probes3 = 0;
    rec.pa = hostStep(dataGpa, step3, probes3);
    rec.latency += step3 + ecptHashCycles;
    ++rec.seqRefs;
    rec.parallelRefs += probes3 - 1;
    if (recordSteps_)
        rec.steps.push_back({'h', 1, step3});
    return rec;
}

Addr
EcptVirtWalker::resolve(Addr gva)
{
    const auto ghit = guestTable_.find(gva);
    DMT_ASSERT(ghit.has_value(), "guest ECPT resolve miss");
    const Addr dataGpa = (ptePfn(ghit->pte) << pageShift) +
                         (gva & (pageBytesOf(ghit->size) - 1));
    const Addr hva = vm_.gpaToHva(dataGpa);
    const auto hhit = hostTable_.find(hva);
    DMT_ASSERT(hhit.has_value(), "host ECPT resolve miss");
    return (ptePfn(hhit->pte) << pageShift) +
           (hva & (pageBytesOf(hhit->size) - 1));
}

} // namespace dmt
