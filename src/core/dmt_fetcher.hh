/**
 * @file
 * The DMT fetcher (§4.1, Figure 10) — the hardware extension that
 * serves TLB misses by fetching last-level PTEs directly:
 *
 *   native           : 1 memory reference
 *   virtualized      : 3 references (DMT) / 2 references (pvDMT)
 *   nested virt      : 3 references (pvDMT)
 *
 * When a VA is not covered by any register (or a PTE turns out not
 * present), the walk falls back to the original x86 page walker that
 * the fetcher co-exists with. With huge pages, a VMA may map to
 * multiple TEAs (one per page-size class); the fetcher probes them in
 * parallel and at most one holds a leaf PTE (§4.4).
 */

#ifndef DMT_CORE_DMT_FETCHER_HH
#define DMT_CORE_DMT_FETCHER_HH

#include <algorithm>
#include <string>

#include "core/dmt_registers.hh"
#include "core/gtea_table.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"
#include "pt/radix_page_table.hh"
#include "sim/mechanism.hh"
#include "virt/nested_stack.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

/** Runtime counters shared by all fetcher variants. */
struct FetcherStats
{
    Counter requests = 0;    //!< walks requested
    Counter direct = 0;      //!< served by register mappings
    Counter fallbacks = 0;   //!< handed to the x86 walker
    Counter isolationFaults = 0;  //!< pvDMT gTEA violations

    /** Fraction of walk requests served directly (the paper's
     *  "register coverage", expected 99+%). */
    double
    coverage() const
    {
        return requests ? static_cast<double>(direct) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** Result of probing the TEAs matched by a register file. */
struct DirectProbe
{
    bool matched = false;   //!< at least one register covered va
    bool present = false;   //!< a leaf PTE was found
    bool faulted = false;   //!< pvDMT isolation fault
    std::uint64_t pte = 0;  //!< the leaf PTE value
    PageSize size = PageSize::Size4K;
    Addr pteAddr = 0;       //!< where the winning PTE was fetched
    Cycles latency = 0;     //!< max over the parallel probes
    int probes = 0;         //!< parallel requests issued
};

/**
 * Probe every size-class TEA covering va in parallel: one dependent
 * step, up to three parallel accesses.
 *
 * @param regs the register file to match against
 * @param mem memory holding the PTEs at the probed addresses
 * @param caches hierarchy to charge
 * @param va the address being translated
 * @param gtable gTEA table for pvDMT registers (nullptr natively)
 * @param win optional cached zero-copy window over `mem`; probes read
 *        PTEs through it when given (the fetchers cache one at
 *        construction so the per-translation probe skips the virtual
 *        read64)
 */
DirectProbe directProbe(const DmtRegisterFile &regs, const Memory &mem,
                        MemoryHierarchy &caches, Addr va,
                        const GteaTable *gtable,
                        const Memory::ReadWindow *win = nullptr);

/** Physical address of the byte va inside the page a leaf PTE maps. */
inline Addr
dmtLeafPa(std::uint64_t pte, PageSize size, Addr va)
{
    return (ptePfn(pte) << pageShift) +
           (va & (pageBytesOf(size) - 1));
}

/**
 * Native DMT: one memory reference per translation (§3, Fig. 7).
 *
 * `final`, with walk()/resolve() (and the directProbe they ride on)
 * defined inline in this header: the simulator's commit pass is
 * instantiated per concrete mechanism, and sealing the class lets
 * the single-reference fetch inline into that loop instead of
 * costing a virtual call per TLB miss.
 */
class DmtNativeFetcher final : public TranslationMechanism
{
  public:
    DmtNativeFetcher(const DmtRegisterFile &regs,
                     const RadixPageTable &pt, const Memory &mem,
                     MemoryHierarchy &caches,
                     TranslationMechanism &fallback);

    std::string name() const override { return "DMT"; }
    WalkRecord walk(Addr va) override;
    Addr resolve(Addr va) override;

    void flush() override { fallback_.flush(); }

    const FetcherStats &stats() const { return fetcherStats_; }

  private:
    const DmtRegisterFile &regs_;
    const RadixPageTable &pt_;
    const Memory &mem_;
    /** Cached zero-copy window over mem_ for the probes' PTE reads. */
    Memory::ReadWindow win_;
    MemoryHierarchy &caches_;
    TranslationMechanism &fallback_;
    FetcherStats fetcherStats_;
};

/**
 * DMT for single-level virtualization (§3.1 / §4.5).
 *
 * Without paravirtualization: three dependent references (host PTE
 * for the guest PTE's gPA, the guest PTE itself, host PTE for the
 * data page). With pvDMT (pass a gTEA table): two references, the
 * guest PTE being fetched directly at its host-physical address.
 */
class DmtVirtFetcher : public TranslationMechanism
{
  public:
    DmtVirtFetcher(const DmtRegisterFile &guest_regs,
                   const DmtRegisterFile &host_regs,
                   VirtualMachine &vm, const Memory &host_mem,
                   MemoryHierarchy &caches,
                   TranslationMechanism &fallback,
                   const GteaTable *gtea_table);

    std::string
    name() const override
    {
        return gteaTable_ ? "pvDMT" : "DMT";
    }

    WalkRecord walk(Addr gva) override;
    Addr resolve(Addr gva) override;
    void flush() override { fallback_.flush(); }

    const FetcherStats &stats() const { return fetcherStats_; }

  private:
    /** The non-pv three-reference path. */
    bool walkThreeRef(Addr gva, WalkRecord &rec);
    /** The pvDMT two-reference path. */
    bool walkTwoRef(Addr gva, WalkRecord &rec);
    /**
     * Final host-side fetch of the data page's hPTE: on success
     * `hpa_out` backs gpa and `size_out` is the host leaf size.
     */
    bool hostFetch(Addr gpa, WalkRecord &rec, Addr &hpa_out,
                   PageSize &size_out);

    const DmtRegisterFile &guestRegs_;
    const DmtRegisterFile &hostRegs_;
    VirtualMachine &vm_;
    const Memory &hostMem_;
    /** Cached zero-copy window over hostMem_ for the PTE reads. */
    Memory::ReadWindow win_;
    MemoryHierarchy &caches_;
    TranslationMechanism &fallback_;
    const GteaTable *gteaTable_;
    FetcherStats fetcherStats_;
};

/** pvDMT for nested virtualization: three references (§3.2/§4.5.3). */
class DmtNestedFetcher : public TranslationMechanism
{
  public:
    DmtNestedFetcher(const DmtRegisterFile &l2_regs,
                     const DmtRegisterFile &l1_regs,
                     const DmtRegisterFile &l0_regs,
                     NestedStack &stack, const Memory &l0_mem,
                     MemoryHierarchy &caches,
                     TranslationMechanism &fallback,
                     const GteaTable &l2_gtable,
                     const GteaTable &l1_gtable);

    std::string name() const override { return "Nested pvDMT"; }
    WalkRecord walk(Addr l2va) override;
    Addr resolve(Addr l2va) override;
    void flush() override { fallback_.flush(); }

    const FetcherStats &stats() const { return fetcherStats_; }

  private:
    const DmtRegisterFile &l2Regs_;
    const DmtRegisterFile &l1Regs_;
    const DmtRegisterFile &l0Regs_;
    NestedStack &stack_;
    const Memory &l0Mem_;
    /** Cached zero-copy window over l0Mem_ for the PTE reads. */
    Memory::ReadWindow win_;
    MemoryHierarchy &caches_;
    TranslationMechanism &fallback_;
    const GteaTable &l2Gtable_;
    const GteaTable &l1Gtable_;
    FetcherStats fetcherStats_;
};

inline DirectProbe
directProbe(const DmtRegisterFile &regs, const Memory &mem,
            MemoryHierarchy &caches, Addr va, const GteaTable *gtable,
            const Memory::ReadWindow *win)
{
    DirectProbe out;
    const DmtRegister *matches[3];
    const int n = regs.matchAll(va, matches);
    if (n == 0)
        return out;
    out.matched = true;
    for (int s = 0; s < 3; ++s) {
        const DmtRegister *reg = matches[s];
        if (!reg)
            continue;
        Addr pteAddr;
        if (reg->gteaId >= 0) {
            DMT_ASSERT(gtable != nullptr,
                       "pvDMT register without a gTEA table");
            const std::uint64_t index =
                (va - reg->tea.coverBase) >>
                pageShiftOf(reg->tea.leafSize);
            const auto resolved =
                gtable->resolvePte(reg->gteaId, index);
            if (!resolved) {
                out.faulted = true;
                continue;
            }
            pteAddr = *resolved;
        } else {
            pteAddr = reg->tea.pteAddr(va);
        }
        // All probes issue in parallel. The translation completes
        // when the probe holding the (unique) present leaf returns;
        // losing probes cost bandwidth but their lines are not kept.
        ++out.probes;
        const std::uint64_t pte =
            win ? win->read(mem, pteAddr) : mem.read64(pteAddr);
        bool winner = pteIsPresent(pte);
        // A 2 MB/1 GB TEA slot can hold a non-leaf (table pointer)
        // entry for regions mapped with smaller pages; only a leaf
        // counts.
        const int level =
            RadixPageTable::leafLevel(reg->tea.leafSize);
        if (winner && level > 1 && !pteIsHuge(pte))
            winner = false;
        if (!winner) {
            const Cycles cost = caches.accessClean(pteAddr);
            // If nothing ends up present the walk faults; charge the
            // slowest probe in that case.
            if (!out.present)
                out.latency = std::max(out.latency, cost);
            continue;
        }
        DMT_ASSERT(!out.present,
                   "two TEAs hold a leaf PTE for va 0x%llx",
                   static_cast<unsigned long long>(va));
        out.present = true;
        out.latency = caches.access(pteAddr);
        out.pte = pte;
        out.size = reg->tea.leafSize;
        out.pteAddr = pteAddr;
    }
    return out;
}

inline WalkRecord
DmtNativeFetcher::walk(Addr va)
{
    ++fetcherStats_.requests;
    const DirectProbe probe =
        directProbe(regs_, mem_, caches_, va, nullptr, &win_);
    if (!probe.matched || !probe.present) {
        ++fetcherStats_.fallbacks;
        WalkRecord rec = fallback_.walk(va);
        rec.fellBack = true;
        rec.path = TranslationPath::DmtFallback;
        // Probes issued before falling back still took time.
        rec.latency += probe.latency;
        rec.parallelRefs += probe.probes;
        rec.dmtProbes += static_cast<std::uint8_t>(probe.probes);
        return rec;
    }
    ++fetcherStats_.direct;
    WalkRecord rec;
    rec.path = TranslationPath::DmtDirect;
    rec.latency = probe.latency;
    rec.seqRefs = 1;
    rec.parallelRefs = probe.probes - 1;
    rec.dmtProbes = static_cast<std::uint8_t>(probe.probes);
    rec.size = probe.size;
    rec.linearSize = probe.size;
    rec.pa = dmtLeafPa(probe.pte, probe.size, va);
    if (recordSteps_)
        rec.steps.push_back({'d', 1, probe.latency, -1,
                             probe.pteAddr});
    return rec;
}

inline Addr
DmtNativeFetcher::resolve(Addr va)
{
    const auto tr = pt_.translate(va);
    DMT_ASSERT(tr.has_value(), "resolve: unmapped va");
    return tr->pa;
}

} // namespace dmt

#endif // DMT_CORE_DMT_FETCHER_HH
