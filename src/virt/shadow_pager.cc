#include "virt/shadow_pager.hh"

#include "common/log.hh"

namespace dmt
{

ShadowPager::ShadowPager(Memory &host_mem, BuddyAllocator &host_alloc,
                         const AddressSpace &guest_space,
                         GpaToHpa gpa_to_hpa)
    : guest_(guest_space), gpaToHpa_(std::move(gpa_to_hpa)),
      spt_(std::make_unique<RadixPageTable>(
          host_mem, host_alloc,
          guest_space.pageTable().levels()))
{
}

void
ShadowPager::shadowOne(Addr gva, const Translation &gtr)
{
    if (gtr.size == PageSize::Size4K) {
        spt_->map(gva, gpaToHpa_(gtr.pa) >> pageShift,
                  PageSize::Size4K);
        return;
    }
    // A guest huge page can only stay huge in the sPT if its backing
    // is host-contiguous and aligned; otherwise it shatters.
    const Addr bytes = pageBytesOf(gtr.size);
    const Addr firstHpa = gpaToHpa_(gtr.pa);
    bool contiguous = (firstHpa & (bytes - 1)) == 0;
    if (contiguous) {
        for (Addr off = pageSize; off < bytes && contiguous;
             off += pageSize) {
            if (gpaToHpa_(gtr.pa + off) != firstHpa + off)
                contiguous = false;
        }
    }
    if (contiguous) {
        spt_->map(gva, firstHpa >> pageShift, gtr.size);
    } else {
        for (Addr off = 0; off < bytes; off += pageSize) {
            spt_->map(gva + off,
                      gpaToHpa_(gtr.pa + off) >> pageShift,
                      PageSize::Size4K);
        }
    }
}

void
ShadowPager::syncAll()
{
    guest_.pageTable().forEachLeaf(
        [this](Addr va, Pfn pfn, PageSize size) {
            shadowOne(va, Translation{pfn, size, pfn << pageShift});
            ++exits_;
        });
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
