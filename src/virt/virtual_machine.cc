#include "virt/virtual_machine.hh"

#include "common/log.hh"

namespace dmt
{

VirtualMachine::VirtualMachine(Memory &host_mem,
                               BuddyAllocator &host_alloc,
                               const VmConfig &config)
    : config_(config)
{
    DMT_ASSERT((config.vmBytes & pageMask) == 0,
               "VM size must be page aligned");
    // Guest and host leaves must nest for a TLB entry to carry a
    // 2-D translation (WalkRecord::linearSize).
    DMT_ASSERT((config.gpaBaseHva & (gigaPageSize - 1)) == 0,
               "guest-physical space must sit at a 1 GB-aligned "
               "host VA");

    // The container process: one VMA covering all of guest physical
    // memory, populated eagerly (performance VMs pin their memory).
    AddressSpaceConfig containerCfg;
    containerCfg.ptLevels = config.ptLevels;
    containerCfg.thp = config.hostThp;
    container_ =
        std::make_unique<AddressSpace>(host_mem, host_alloc,
                                       containerCfg);
    container_->mmapAt(config.gpaBaseHva, config.vmBytes,
                       VmaKind::MappedFile, /*populate=*/true);

    // Guest-physical frames and the view resolving them to host
    // physical addresses through the container page table.
    guestAlloc_ = std::make_unique<BuddyAllocator>(
        config.vmBytes >> pageShift);
    guestView_ = std::make_unique<GuestMemoryView>(
        host_mem, container_->pageTable(), config.gpaBaseHva,
        config.vmBytes);

    // The guest OS's workload process.
    AddressSpaceConfig guestCfg;
    guestCfg.ptLevels = config.ptLevels;
    guestCfg.thp = config.guestThp;
    guest_ = std::make_unique<AddressSpace>(*guestView_, *guestAlloc_,
                                            guestCfg);
}

Addr
VirtualMachine::gpaToHostPa(Addr gpa) const
{
    return guestView_->resolve(gpa);
}

} // namespace dmt
