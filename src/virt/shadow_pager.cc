#include "virt/shadow_pager.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"

namespace dmt
{

ShadowPager::ShadowPager(Memory &host_mem, BuddyAllocator &host_alloc,
                         const AddressSpace &guest_space,
                         const GuestMemoryView &guest_mem)
    : guest_(guest_space), guestMem_(guest_mem),
      spt_(std::make_unique<RadixPageTable>(
          host_mem, host_alloc,
          guest_space.pageTable().levels()))
{
}

namespace
{

/** Bytes from tr.pa to the end of the leaf that maps it. */
Addr
leafBytesFrom(const Translation &tr)
{
    return pageBytesOf(tr.size) - (tr.pa - (tr.pfn << pageShift));
}

} // namespace

void
ShadowPager::shadowOne(Addr gva, const Translation &gtr)
{
    if (gtr.size == PageSize::Size4K) {
        spt_->map(gva, guestMem_.resolve(gtr.pa) >> pageShift,
                  PageSize::Size4K);
        return;
    }
    // A guest huge page can only stay huge in the sPT if its backing
    // is host-contiguous and aligned; otherwise it shatters. A
    // container leaf backs its pages linearly, so checking the first
    // page of each one decides it: one translation for a 2 MB leaf.
    const Addr bytes = pageBytesOf(gtr.size);
    const Translation first = guestMem_.backingLeaf(gtr.pa);
    bool contiguous = (first.pa & (bytes - 1)) == 0;
    for (Addr off = leafBytesFrom(first); contiguous && off < bytes;) {
        const Translation leaf = guestMem_.backingLeaf(gtr.pa + off);
        contiguous = leaf.pa == first.pa + off;
        off += leafBytesFrom(leaf);
    }
    if (contiguous) {
        spt_->map(gva, first.pa >> pageShift, gtr.size);
    } else {
        for (Addr off = 0; off < bytes; off += pageSize) {
            spt_->map(gva + off,
                      guestMem_.resolve(gtr.pa + off) >> pageShift,
                      PageSize::Size4K);
        }
    }
}

void
ShadowPager::syncAll()
{
    // Leaf for leaf what shadowOne() on every guest leaf in ascending
    // order maps, with the same exits, leaf epochs, audit ticks and
    // host allocations: a huge guest leaf still goes through
    // shadowOne(), but each run of 4 KB guest leaves at consecutive
    // VAs inside one 2 MB span is one mapSpan4K(), its backing frames
    // found with one container leaf-table read per span.
    Addr runVa = 0;
    std::size_t runPages = 0;
    std::array<Pfn, ptesPerPage> gpfns{};
    const auto flushRun = [&] {
        if (runPages == 0)
            return;
        std::array<Pfn, ptesPerPage> frames{};
        guestMem_.backingFrames(gpfns.data(), runPages, frames.data());
        std::size_t drawn = 0;
        const Addr end = runVa + runPages * pageSize;
        const std::uint64_t mapped = spt_->mapSpan4K(
            runVa, end, [&](std::uint64_t n, Pfn *out) {
                std::copy_n(frames.data() + drawn, n, out);
                drawn += n;
            });
        if (mapped != runPages) {
            panic("syncAll: shadow of [0x%llx, 0x%llx) already mapped",
                  static_cast<unsigned long long>(runVa),
                  static_cast<unsigned long long>(end));
        }
        exits_ += runPages;
        runPages = 0;
    };
    guest_.pageTable().forEachLeaf(
        [&](Addr va, Pfn pfn, PageSize size) {
            if (size != PageSize::Size4K) {
                flushRun();
                shadowOne(va, Translation{pfn, size, pfn << pageShift});
                ++exits_;
                return;
            }
            if (va != runVa + runPages * pageSize ||
                (va & (hugePageSize - 1)) == 0) {
                flushRun();
            }
            if (runPages == 0)
                runVa = va;
            gpfns[runPages++] = pfn;
        });
    flushRun();
}

void
ShadowPager::syncPage(Addr gva)
{
    const auto gtr = guest_.pageTable().translate(gva);
    DMT_ASSERT(gtr.has_value(), "syncPage: guest page not mapped");
    const Addr base = pageAlignDown(gva, gtr->size);
    Translation aligned = *gtr;
    aligned.pa = (gtr->pfn << pageShift);
    // Replace any stale shadow mapping.
    spt_->unmap(base);
    shadowOne(base, aligned);
    ++exits_;
}

} // namespace dmt
