#include "core/dmt_fetcher.hh"

#include <algorithm>

#include "common/log.hh"
#include "pt/pte.hh"

namespace dmt
{

DmtNativeFetcher::DmtNativeFetcher(const DmtRegisterFile &regs,
                                   const RadixPageTable &pt,
                                   const Memory &mem,
                                   MemoryHierarchy &caches,
                                   TranslationMechanism &fallback)
    : regs_(regs), pt_(pt), mem_(mem), win_(mem.readWindow()),
      caches_(caches), fallback_(fallback)
{
}

DmtVirtFetcher::DmtVirtFetcher(const DmtRegisterFile &guest_regs,
                               const DmtRegisterFile &host_regs,
                               VirtualMachine &vm,
                               const Memory &host_mem,
                               MemoryHierarchy &caches,
                               TranslationMechanism &fallback,
                               const GteaTable *gtea_table)
    : guestRegs_(guest_regs), hostRegs_(host_regs), vm_(vm),
      hostMem_(host_mem), win_(host_mem.readWindow()),
      caches_(caches), fallback_(fallback), gteaTable_(gtea_table)
{
}

bool
DmtVirtFetcher::hostFetch(Addr gpa, WalkRecord &rec, Addr &hpa_out,
                          PageSize &size_out)
{
    const Addr hva = vm_.gpaToHva(gpa);
    const DirectProbe probe =
        directProbe(hostRegs_, hostMem_, caches_, hva, nullptr,
                    &win_);
    rec.dmtProbes += static_cast<std::uint8_t>(probe.probes);
    if (!probe.matched || !probe.present)
        return false;
    rec.latency += probe.latency;
    ++rec.seqRefs;
    rec.parallelRefs += probe.probes - 1;
    if (recordSteps_) {
        const int hlevel = RadixPageTable::leafLevel(probe.size);
        rec.steps.push_back(
            {'h', static_cast<std::int8_t>(hlevel), probe.latency,
             static_cast<std::int8_t>(21 + (4 - hlevel)),
             probe.pteAddr});
    }
    hpa_out = dmtLeafPa(probe.pte, probe.size, hva);
    size_out = probe.size;
    return true;
}

bool
DmtVirtFetcher::walkTwoRef(Addr gva, WalkRecord &rec)
{
    // Reference 1: the guest PTE, directly at its host-physical
    // address through the gTEA table.
    const DirectProbe probe =
        directProbe(guestRegs_, hostMem_, caches_, gva, gteaTable_,
                    &win_);
    rec.dmtProbes += static_cast<std::uint8_t>(probe.probes);
    if (probe.faulted) {
        ++fetcherStats_.isolationFaults;
        ++rec.dmtFaults;
    }
    if (!probe.matched || !probe.present)
        return false;
    rec.latency += probe.latency;
    ++rec.seqRefs;
    rec.parallelRefs += probe.probes - 1;
    if (recordSteps_) {
        const int glevel = RadixPageTable::leafLevel(probe.size);
        rec.steps.push_back(
            {'g', static_cast<std::int8_t>(glevel), probe.latency,
             static_cast<std::int8_t>(5 * (4 - glevel) + 5),
             probe.pteAddr});
    }
    const Addr dataGpa = dmtLeafPa(probe.pte, probe.size, gva);
    rec.size = probe.size;

    // Reference 2: the host PTE of the data page.
    Addr hpa = 0;
    PageSize hsize = PageSize::Size4K;
    if (!hostFetch(dataGpa, rec, hpa, hsize))
        return false;
    rec.pa = hpa;
    rec.linearSize = std::min(rec.size, hsize);
    return true;
}

bool
DmtVirtFetcher::walkThreeRef(Addr gva, WalkRecord &rec)
{
    // The guest registers give the gPA of the guest PTE; each
    // size-class chain needs a host fetch (ref 1) before the guest
    // PTE itself can be read (ref 2). Chains for different page
    // sizes proceed in parallel; the phase costs the slowest chain.
    const DmtRegister *matches[3];
    const int n = guestRegs_.matchAll(gva, matches);
    if (n == 0)
        return false;

    Cycles phase = 0;
    int chains = 0;
    bool found = false;
    std::uint64_t leafPte = 0;
    PageSize leafSize = PageSize::Size4K;
    Cycles ref1Cost = 0, ref2Cost = 0;
    Addr ref1Pa = 0, ref2Pa = 0;
    for (int s = 0; s < 3; ++s) {
        const DmtRegister *reg = matches[s];
        if (!reg)
            continue;
        ++chains;
        const Addr gPteGpa = reg->tea.pteAddr(gva);
        // Ref 1: host PTE for the guest PTE's gPA.
        const Addr hva = vm_.gpaToHva(gPteGpa);
        const DirectProbe hprobe =
            directProbe(hostRegs_, hostMem_, caches_, hva, nullptr,
                        &win_);
        rec.dmtProbes += static_cast<std::uint8_t>(hprobe.probes);
        if (!hprobe.matched || !hprobe.present)
            return false;
        const Addr gPteHpa = dmtLeafPa(hprobe.pte, hprobe.size, hva);
        // Ref 2: the guest PTE itself.
        const Cycles c2 = caches_.access(gPteHpa);
        phase = std::max(phase, hprobe.latency + c2);
        const std::uint64_t pte = win_.read(hostMem_, gPteHpa);
        if (!pteIsPresent(pte))
            continue;
        const int level =
            RadixPageTable::leafLevel(reg->tea.leafSize);
        if (level > 1 && !pteIsHuge(pte))
            continue;
        found = true;
        leafPte = pte;
        leafSize = reg->tea.leafSize;
        ref1Cost = hprobe.latency;
        ref2Cost = c2;
        ref1Pa = hprobe.pteAddr;
        ref2Pa = gPteHpa;
    }
    if (!found)
        return false;
    rec.latency += phase;
    rec.seqRefs += 2;
    rec.parallelRefs += 2 * (chains - 1);
    if (recordSteps_) {
        rec.steps.push_back({'h', 1, ref1Cost, -1, ref1Pa});
        rec.steps.push_back(
            {'g', static_cast<std::int8_t>(
                      RadixPageTable::leafLevel(leafSize)),
             ref2Cost, -1, ref2Pa});
    }
    const Addr dataGpa = dmtLeafPa(leafPte, leafSize, gva);
    rec.size = leafSize;

    // Ref 3: host PTE for the data page.
    Addr hpa = 0;
    PageSize hsize = PageSize::Size4K;
    if (!hostFetch(dataGpa, rec, hpa, hsize))
        return false;
    rec.pa = hpa;
    rec.linearSize = std::min(rec.size, hsize);
    return true;
}

WalkRecord
DmtVirtFetcher::walk(Addr gva)
{
    ++fetcherStats_.requests;
    WalkRecord rec;
    rec.gteaPath = gteaTable_ != nullptr;
    const bool ok = gteaTable_ ? walkTwoRef(gva, rec)
                               : walkThreeRef(gva, rec);
    if (!ok) {
        ++fetcherStats_.fallbacks;
        WalkRecord fb = fallback_.walk(gva);
        fb.fellBack = true;
        fb.path = TranslationPath::DmtFallback;
        fb.latency += rec.latency;
        fb.gteaPath = rec.gteaPath;
        fb.dmtProbes += rec.dmtProbes;
        fb.dmtFaults += rec.dmtFaults;
        return fb;
    }
    ++fetcherStats_.direct;
    rec.path = TranslationPath::DmtDirect;
    return rec;
}

Addr
DmtVirtFetcher::resolve(Addr gva)
{
    const auto gtr = vm_.guestSpace().pageTable().translate(gva);
    DMT_ASSERT(gtr.has_value(), "resolve: unmapped gva");
    return vm_.gpaToHostPa(gtr->pa);
}

DmtNestedFetcher::DmtNestedFetcher(const DmtRegisterFile &l2_regs,
                                   const DmtRegisterFile &l1_regs,
                                   const DmtRegisterFile &l0_regs,
                                   NestedStack &stack,
                                   const Memory &l0_mem,
                                   MemoryHierarchy &caches,
                                   TranslationMechanism &fallback,
                                   const GteaTable &l2_gtable,
                                   const GteaTable &l1_gtable)
    : l2Regs_(l2_regs), l1Regs_(l1_regs), l0Regs_(l0_regs),
      stack_(stack), l0Mem_(l0_mem), win_(l0_mem.readWindow()),
      caches_(caches), fallback_(fallback), l2Gtable_(l2_gtable),
      l1Gtable_(l1_gtable)
{
}

WalkRecord
DmtNestedFetcher::walk(Addr l2va)
{
    ++fetcherStats_.requests;
    WalkRecord rec;
    bool ok = false;
    do {
        // Reference 1: L2 leaf PTE, L0-resident via the L2 gTEAs.
        const DirectProbe p2 = directProbe(l2Regs_, l0Mem_, caches_,
                                           l2va, &l2Gtable_, &win_);
        rec.dmtProbes += static_cast<std::uint8_t>(p2.probes);
        if (p2.faulted) {
            ++fetcherStats_.isolationFaults;
            ++rec.dmtFaults;
        }
        if (!p2.matched || !p2.present)
            break;
        rec.latency += p2.latency;
        ++rec.seqRefs;
        rec.parallelRefs += p2.probes - 1;
        if (recordSteps_)
            rec.steps.push_back({'g', 2, p2.latency, -1, p2.pteAddr});
        const Addr dataL2pa = dmtLeafPa(p2.pte, p2.size, l2va);
        rec.size = p2.size;

        // Reference 2: L1 container leaf PTE, L0-resident via the
        // L1 gTEAs.
        const Addr l1va = stack_.l2paToL1va(dataL2pa);
        const DirectProbe p1 = directProbe(l1Regs_, l0Mem_, caches_,
                                           l1va, &l1Gtable_, &win_);
        rec.dmtProbes += static_cast<std::uint8_t>(p1.probes);
        if (p1.faulted) {
            ++fetcherStats_.isolationFaults;
            ++rec.dmtFaults;
        }
        if (!p1.matched || !p1.present)
            break;
        rec.latency += p1.latency;
        ++rec.seqRefs;
        rec.parallelRefs += p1.probes - 1;
        if (recordSteps_)
            rec.steps.push_back({'g', 1, p1.latency, -1, p1.pteAddr});
        const Addr dataL1pa = dmtLeafPa(p1.pte, p1.size, l1va);

        // Reference 3: L0 container leaf PTE (local TEAs).
        const Addr hva = stack_.vm1().gpaToHva(dataL1pa);
        const DirectProbe p0 = directProbe(l0Regs_, l0Mem_, caches_,
                                           hva, nullptr, &win_);
        rec.dmtProbes += static_cast<std::uint8_t>(p0.probes);
        if (!p0.matched || !p0.present)
            break;
        rec.latency += p0.latency;
        ++rec.seqRefs;
        rec.parallelRefs += p0.probes - 1;
        if (recordSteps_)
            rec.steps.push_back({'h', 1, p0.latency, -1, p0.pteAddr});
        rec.pa = dmtLeafPa(p0.pte, p0.size, hva);
        rec.linearSize = std::min({p2.size, p1.size, p0.size});
        ok = true;
    } while (false);

    if (!ok) {
        ++fetcherStats_.fallbacks;
        WalkRecord fb = fallback_.walk(l2va);
        fb.fellBack = true;
        fb.path = TranslationPath::DmtFallback;
        fb.latency += rec.latency;
        fb.gteaPath = true;
        fb.dmtProbes += rec.dmtProbes;
        fb.dmtFaults += rec.dmtFaults;
        return fb;
    }
    ++fetcherStats_.direct;
    rec.path = TranslationPath::DmtDirect;
    rec.gteaPath = true;
    return rec;
}

Addr
DmtNestedFetcher::resolve(Addr l2va)
{
    const auto tr = stack_.l2Space().pageTable().translate(l2va);
    DMT_ASSERT(tr.has_value(), "resolve: unmapped L2 va");
    return stack_.l2paToL0pa(tr->pa);
}

} // namespace dmt
