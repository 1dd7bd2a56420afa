#include "virt/nested_stack.hh"

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

NestedStack::NestedStack(Memory &l0_mem, BuddyAllocator &l0_alloc,
                         const NestedConfig &config)
    : config_(config)
{
    DMT_ASSERT(config.l2Bytes <= config.l1Bytes,
               "L2 memory cannot exceed L1 memory");
    DMT_ASSERT((config.l2paBaseL1va & (gigaPageSize - 1)) == 0,
               "L2-physical space must sit at a 1 GB-aligned L1 VA");

    // L1 VM on L0.
    VmConfig vm1Cfg;
    vm1Cfg.vmBytes = config.l1Bytes;
    vm1Cfg.hostThp = config.l0Thp;
    vm1Cfg.guestThp = config.l1Thp;
    vm1_ = std::make_unique<VirtualMachine>(l0_mem, l0_alloc, vm1Cfg);

    // The L1 hypervisor's container process for L2 physical memory:
    // an L1 process whose page table lives in L1 physical memory.
    AddressSpaceConfig l1Cfg;
    l1Cfg.thp = config.l1Thp;
    l1Container_ = std::make_unique<AddressSpace>(
        vm1_->guestMem(), vm1_->guestAllocator(), l1Cfg);
    l1Container_->mmapAt(config.l2paBaseL1va, config.l2Bytes,
                         VmaKind::MappedFile, /*populate=*/true);

    // L2 physical frames and the view resolving L2PA -> L1PA -> L0.
    l2Alloc_ = std::make_unique<BuddyAllocator>(
        config.l2Bytes >> pageShift);
    l2View_ = std::make_unique<GuestMemoryView>(
        vm1_->guestMem(), l1Container_->pageTable(),
        config.l2paBaseL1va, config.l2Bytes);

    // The L2 guest workload process.
    AddressSpaceConfig l2Cfg;
    l2Cfg.thp = config.l2Thp;
    l2Space_ = std::make_unique<AddressSpace>(*l2View_, *l2Alloc_,
                                              l2Cfg);
}

NestedStack::~NestedStack()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

void
NestedStack::attachAuditor(InvariantAuditor &auditor,
                           const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "nested stack already audited");
    auditor_ = &auditor;
    auditHookId_ = auditor.registerHook(
        name, [this](AuditSink &sink) { audit(sink); });
}

void
NestedStack::audit(AuditSink &sink) const
{
    const auto &l1pt = l1Container_->pageTable();
    const auto &l0pt = vm1_->containerSpace().pageTable();
    auto checkChain = [&](Addr l2pa) {
        const auto tr1 = l1pt.translate(l2paToL1va(l2pa));
        if (!tr1) {
            sink.fail("L2 PA 0x%llx lost its L1 container backing",
                      static_cast<unsigned long long>(l2pa));
            return;
        }
        const auto tr0 = l0pt.translate(vm1_->gpaToHva(tr1->pa));
        if (!tr0) {
            sink.fail("L1 PA 0x%llx (backing L2 PA 0x%llx) lost its "
                      "L0 backing",
                      static_cast<unsigned long long>(tr1->pa),
                      static_cast<unsigned long long>(l2pa));
        }
    };
    for (Addr l2pa = 0; l2pa < config_.l2Bytes;
         l2pa += hugePageSize) {
        checkChain(l2pa);
    }
    checkChain(config_.l2Bytes - pageSize);
}

Addr
NestedStack::l2paToL1va(Addr l2pa) const
{
    return config_.l2paBaseL1va + l2pa;
}

Addr
NestedStack::l2paToL1pa(Addr l2pa) const
{
    return l2View_->resolve(l2pa);
}

Addr
NestedStack::l1paToL0pa(Addr l1pa) const
{
    return vm1_->gpaToHostPa(l1pa);
}

Addr
NestedStack::l2paToL0pa(Addr l2pa) const
{
    return l1paToL0pa(l2paToL1pa(l2pa));
}

std::unique_ptr<ShadowPager>
NestedStack::makeL2ShadowPager(Memory &l0_mem,
                               BuddyAllocator &l0_alloc)
{
    auto pager = std::make_unique<ShadowPager>(
        l0_mem, l0_alloc, *l1Container_, vm1_->guestMem());
    pager->syncAll();
    return pager;
}

} // namespace dmt
