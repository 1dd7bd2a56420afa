/**
 * @file
 * Shadow paging (§2.1.2 / §2.1.3 of the paper).
 *
 * The hypervisor maintains a shadow page table (sPT) mapping guest
 * virtual addresses directly to host physical addresses, combining
 * the guest page table with the gPA->hPA mapping. Translation is then
 * a cheap 1-D walk, but every guest page-table update must be
 * intercepted and synchronised — each synchronisation is a VM exit,
 * which is where shadow paging's cost lives.
 *
 * In nested virtualization the same machinery compresses the L1 and
 * L0 tables into one sPT mapping L2PA -> L0PA (Figure 3), which is
 * then used as the "host" dimension of a 2-D walk.
 */

#ifndef DMT_VIRT_SHADOW_PAGER_HH
#define DMT_VIRT_SHADOW_PAGER_HH

#include <memory>

#include "common/types.hh"
#include "os/address_space.hh"
#include "pt/radix_page_table.hh"
#include "virt/guest_memory_view.hh"

namespace dmt
{

/** Builds and maintains a shadow page table for one guest process. */
class ShadowPager
{
  public:
    /**
     * @param host_mem host physical memory (the sPT lives here)
     * @param host_alloc host frame allocator
     * @param guest_space the guest process being shadowed
     * @param guest_mem the guest's physical memory, resolving gPAs
     *        to host PAs through the container table
     */
    ShadowPager(Memory &host_mem, BuddyAllocator &host_alloc,
                const AddressSpace &guest_space,
                const GuestMemoryView &guest_mem);

    /**
     * Full synchronisation: rebuild the sPT from the guest table.
     * Each synchronised leaf counts one intercepted guest PT update
     * (in steady state updates arrive one by one; bulk sync models
     * the populate phase). The sPT must be empty: the result is
     * syncPage() on every guest leaf in ascending order, built a
     * 2 MB span of 4 KB leaves at a time.
     */
    void syncAll();

    /**
     * Synchronise one guest page (a guest PT update was trapped).
     * Counts one VM exit.
     */
    void syncPage(Addr gva);

    /** The shadow table (gVA -> hPA). */
    const RadixPageTable &table() const { return *spt_; }
    RadixPageTable &table() { return *spt_; }

    /** VM exits taken for shadow synchronisation so far. */
    Counter exits() const { return exits_; }

  private:
    /** Map one guest page into the sPT (splitting sizes as needed). */
    void shadowOne(Addr gva, const Translation &gtr);

    const AddressSpace &guest_;
    const GuestMemoryView &guestMem_;
    std::unique_ptr<RadixPageTable> spt_;
    Counter exits_ = 0;
};

} // namespace dmt

#endif // DMT_VIRT_SHADOW_PAGER_HH
