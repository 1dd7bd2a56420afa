#include "core/hypercall.hh"

#include "common/log.hh"
#include "virt/costs.hh"

namespace dmt
{

TeaHypercall::TeaHypercall(VirtualMachine &vm,
                           BuddyAllocator &host_alloc,
                           GteaTable &gtea_table)
    : vm_(vm), hostAlloc_(host_alloc), table_(gtea_table)
{
}

TeaHypercall::~TeaHypercall()
{
    // Return all spliced host runs. The container page table may
    // still reference them; this runs only at teardown, after the
    // last simulated access.
    for (const auto &grant : grants_)
        hostAlloc_.freeContig(grant.hostBasePfn, grant.pages);
}

std::optional<TeaGrant>
TeaHypercall::allocTea(std::uint64_t pages)
{
    ++hypercalls_;
    lastCost_ = secondsToCycles(hypercallVirtSeconds) +
                pages * allocCyclesPerPage;
    cost_ += lastCost_;

    const auto hostBase =
        hostAlloc_.allocContig(pages, FrameKind::PageTable);
    if (!hostBase)
        return std::nullopt;
    const auto gpaBase =
        vm_.guestAllocator().allocContig(pages, FrameKind::PageTable);
    if (!gpaBase) {
        hostAlloc_.freeContig(*hostBase, pages);
        return std::nullopt;
    }

    // Splice the host run into guest-physical space (vm_insert_pages).
    vm_.containerSpace().replaceBacking(
        vm_.gpaToHva(*gpaBase << pageShift), *hostBase, pages);

    TeaGrant grant;
    grant.gpaBasePfn = *gpaBase;
    grant.hostBasePfn = *hostBase;
    grant.pages = pages;
    grant.gteaId = table_.add(*hostBase, pages);
    grants_.push_back(grant);
    return grant;
}

void
TeaHypercall::freeTea(int gtea_id)
{
    table_.remove(gtea_id);
}

std::optional<TeaBacking>
PvTeaSource::alloc(std::uint64_t pages)
{
    const auto grant = hypercall_.allocTea(pages);
    if (!grant)
        return std::nullopt;
    TeaBacking backing;
    backing.basePfn = grant->gpaBasePfn;
    backing.pages = grant->pages;
    backing.gteaId = grant->gteaId;
    backing.hostBasePfn = grant->hostBasePfn;
    return backing;
}

void
PvTeaSource::free(const TeaBacking &backing)
{
    hypercall_.freeTea(backing.gteaId);
    guestAlloc_.freeContig(backing.basePfn, backing.pages);
}

NestedTeaHypercall::NestedTeaHypercall(NestedStack &stack,
                                       BuddyAllocator &l0_alloc,
                                       GteaTable &gtea_table)
    : stack_(stack), l0Alloc_(l0_alloc), table_(gtea_table)
{
}

NestedTeaHypercall::~NestedTeaHypercall()
{
    for (const auto &grant : grants_)
        l0Alloc_.freeContig(grant.hostBasePfn, grant.pages);
    for (const auto &[base, pages] : l1Runs_)
        stack_.vm1().guestAllocator().freeContig(base, pages);
}

std::optional<TeaGrant>
NestedTeaHypercall::allocTea(std::uint64_t pages)
{
    ++hypercalls_;
    lastCost_ = secondsToCycles(hypercallNestedSeconds) +
                pages * TeaHypercall::allocCyclesPerPage;
    cost_ += lastCost_;

    const auto l0Base =
        l0Alloc_.allocContig(pages, FrameKind::PageTable);
    if (!l0Base)
        return std::nullopt;
    auto &l1Alloc = stack_.vm1().guestAllocator();
    const auto l1Base = l1Alloc.allocContig(pages,
                                            FrameKind::PageTable);
    if (!l1Base) {
        l0Alloc_.freeContig(*l0Base, pages);
        return std::nullopt;
    }
    const auto l2Base =
        stack_.l2Allocator().allocContig(pages, FrameKind::PageTable);
    if (!l2Base) {
        l1Alloc.freeContig(*l1Base, pages);
        l0Alloc_.freeContig(*l0Base, pages);
        return std::nullopt;
    }

    // Splice at L0: the L1 run's backing becomes the L0 run.
    stack_.vm1().containerSpace().replaceBacking(
        stack_.vm1().gpaToHva(*l1Base << pageShift), *l0Base, pages);
    // Splice at L1: the L2 run's backing becomes the L1 run.
    stack_.l1Container().replaceBacking(
        stack_.l2paToL1va(*l2Base << pageShift), *l1Base, pages);

    TeaGrant grant;
    grant.gpaBasePfn = *l2Base;
    grant.hostBasePfn = *l0Base;
    grant.pages = pages;
    grant.gteaId = table_.add(*l0Base, pages);
    grants_.push_back(grant);
    l1Runs_.emplace_back(*l1Base, pages);
    return grant;
}

void
NestedTeaHypercall::freeTea(int gtea_id)
{
    table_.remove(gtea_id);
}

std::optional<TeaBacking>
NestedPvTeaSource::alloc(std::uint64_t pages)
{
    const auto grant = hypercall_.allocTea(pages);
    if (!grant)
        return std::nullopt;
    TeaBacking backing;
    backing.basePfn = grant->gpaBasePfn;
    backing.pages = grant->pages;
    backing.gteaId = grant->gteaId;
    backing.hostBasePfn = grant->hostBasePfn;
    return backing;
}

void
NestedPvTeaSource::free(const TeaBacking &backing)
{
    hypercall_.freeTea(backing.gteaId);
    l2Alloc_.freeContig(backing.basePfn, backing.pages);
}

} // namespace dmt
