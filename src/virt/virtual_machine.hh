/**
 * @file
 * One level of machine virtualization.
 *
 * A VirtualMachine bundles everything KVM would set up for a guest:
 *
 *  - a *container process* in the host whose single large VMA backs
 *    the guest's physical memory (the paper notes "the hypervisor
 *    typically creates one VMA to represent the guest physical
 *    memory"); its page table plays the role of the EPT/NPT,
 *  - a guest-side frame allocator over the guest-physical range,
 *  - a guest-physical memory view resolving through the container
 *    page table, and
 *  - the guest OS's own address space (gVA -> gPA) built on top.
 *
 * The class is level-agnostic: construct it over host physical memory
 * for ordinary virtualization, or over another VM's guest space for
 * nested virtualization.
 */

#ifndef DMT_VIRT_VIRTUAL_MACHINE_HH
#define DMT_VIRT_VIRTUAL_MACHINE_HH

#include <memory>

#include "common/types.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "virt/guest_memory_view.hh"

namespace dmt
{

/** Configuration of one virtualization level. */
struct VmConfig
{
    /** Guest physical memory size in bytes. */
    Addr vmBytes = Addr{1} << 32;
    /** Host VA where the container process maps guest memory. */
    Addr gpaBaseHva = 0x7f0000000000ull;
    /** THP policy in the container (host) — i.e. EPT huge pages. */
    ThpMode hostThp = ThpMode::Never;
    /** THP policy for guest processes. */
    ThpMode guestThp = ThpMode::Never;
    int ptLevels = 4;
};

/** One virtualization level: container process + guest OS state. */
class VirtualMachine
{
  public:
    /**
     * @param host_mem the memory the *host* level runs on
     * @param host_alloc the host level's frame allocator
     */
    VirtualMachine(Memory &host_mem, BuddyAllocator &host_alloc,
                   const VmConfig &config);

    /** The host-side container process backing guest memory. */
    AddressSpace &containerSpace() { return *container_; }
    const AddressSpace &containerSpace() const { return *container_; }

    /** The guest OS's process address space (gVA -> gPA). */
    AddressSpace &guestSpace() { return *guest_; }
    const AddressSpace &guestSpace() const { return *guest_; }

    /** The guest-physical frame allocator. */
    BuddyAllocator &guestAllocator() { return *guestAlloc_; }

    /** Guest-physical memory, resolved through the container. */
    GuestMemoryView &guestMem() { return *guestView_; }

    /** Host VA backing a guest-physical address. */
    Addr gpaToHva(Addr gpa) const { return config_.gpaBaseHva + gpa; }

    /**
     * Resolve a guest-physical address to the host level's physical
     * address through the container page table (memoized by the
     * guest-physical view).
     */
    Addr gpaToHostPa(Addr gpa) const;

    const VmConfig &config() const { return config_; }

  private:
    VmConfig config_;
    std::unique_ptr<AddressSpace> container_;
    std::unique_ptr<BuddyAllocator> guestAlloc_;
    std::unique_ptr<GuestMemoryView> guestView_;
    std::unique_ptr<AddressSpace> guest_;
};

} // namespace dmt

#endif // DMT_VIRT_VIRTUAL_MACHINE_HH
