/**
 * @file
 * Testbeds: full machine environments wired per design.
 *
 * A testbed owns the physical memory, allocators, caches, TLBs, the
 * process/VM stack of one environment (native / virtualized /
 * nested), and builds the TranslationMechanism for any evaluated
 * design. Use:
 *
 *   NativeTestbed tb(workload->footprintBytes(), cfg);
 *   tb.attachDmt();               // DMT designs only, BEFORE setup
 *   workload->setup(tb.proc());
 *   auto &mech = tb.build(Design::Dmt);   // AFTER setup
 *   TranslationSimulator sim(mech, tb.tlbs(), tb.caches());
 */

#ifndef DMT_SIM_TESTBED_HH
#define DMT_SIM_TESTBED_HH

#include <memory>
#include <string>

#include "common/stats.hh"
#include "baselines/agile.hh"
#include "baselines/asap.hh"
#include "baselines/ecpt.hh"
#include "baselines/fpt.hh"
#include "core/dmt_fetcher.hh"
#include "core/hypercall.hh"
#include "core/mapping_manager.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/radix_walker.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb.hh"
#include "virt/nested_stack.hh"
#include "virt/shadow_pager.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

class InvariantAuditor;

/** Evaluated translation designs. */
enum class Design
{
    Vanilla,  //!< radix / nested paging / shadow-on-nested
    Shadow,   //!< shadow paging (virtualized environment only)
    Fpt,
    Ecpt,
    Agile,    //!< virtualized only
    Asap,
    Dmt,
    PvDmt,    //!< virtualized / nested only
};

/** @return display name used in the paper's figures. */
std::string designName(Design design, bool virtualized);

/** Shared testbed knobs (Table 3 defaults). */
struct TestbedConfig
{
    ThpMode thp = ThpMode::Never;  //!< guest process + host THP
    int ptLevels = 4;
    HierarchyConfig hierarchy{};
    PwcConfig pwc{};
    MappingConfig mapping{};
    TlbConfig l1dTlb{"l1d-tlb", 64, 4};
    TlbConfig l1iTlb{"l1i-tlb", 128, 8};
    TlbConfig stlb{"stlb", 1536, 12};
    /** Extra physical slack beyond the working set. */
    Addr slackBytes = Addr{1} << 30;
};

/**
 * Scale the capacity of every translation-related structure (TLBs,
 * PWCs, caches) by `structure_scale`, keeping associativity and
 * geometry. Used when working sets are scaled down from the paper's
 * 62-155 GB so that TLB/PWC/cache *reach relative to the working
 * set* — the first-order determinant of translation behaviour —
 * is preserved. (A 1536-entry STLB over a 2 GB set behaves nothing
 * like one over a 128 GB set.)
 */
TestbedConfig scaledTestbedConfig(double structure_scale,
                                  ThpMode thp = ThpMode::Never);

/** Native-environment testbed. */
class NativeTestbed
{
  public:
    NativeTestbed(Addr footprint_bytes, const TestbedConfig &config);
    ~NativeTestbed();

    AddressSpace &proc() { return *proc_; }
    MemoryHierarchy &caches() { return caches_; }
    TlbHierarchy &tlbs() { return tlbs_; }
    PhysicalMemory &mem() { return mem_; }
    BuddyAllocator &allocator() { return alloc_; }

    /** Set up TEA/mapping managers (call before workload setup). */
    void attachDmt();

    /** Build the mechanism for a design (call after setup). */
    TranslationMechanism &build(Design design);

    /**
     * Register every owned structure (allocator, caches, TLBs, page
     * table, TEA state, walker PWCs) with the invariant auditor.
     * Call after build() so the design's walkers are covered too.
     * The auditor must outlive this testbed.
     */
    void attachAuditor(InvariantAuditor &auditor);

    /**
     * Append every translation counter (TLB, PWC, DMT fetcher,
     * caches) to `g` under the canonical names the event tracer
     * reconstructs (see obs/replay.hh). Counters from structures the
     * annotation-aware walkers own are included; baseline-internal
     * caches (FPT/ECPT/ASAP-native/Agile) are not, matching the zero
     * annotations those designs emit.
     */
    void translationStats(StatGroup &g);

    /**
     * TEA/mapping management counters (creates, deletes, migrations,
     * reconciles, ...) under `tea.*` / `mapping.*` names. A separate
     * surface from translationStats() on purpose: management
     * operations are not per-access events, so these keys stay out
     * of the event-replay differential contract (obs/replay.hh).
     */
    void managementStats(StatGroup &g);

    const DmtNativeFetcher *dmtFetcher() const { return dmt_.get(); }
    TeaManager *teaManager() { return teaMgr_.get(); }
    MappingManager *mappingManager() { return mapMgr_.get(); }
    DmtRegisterFile &registers() { return regs_; }

  private:
    TestbedConfig config_;
    PhysicalMemory mem_;
    BuddyAllocator alloc_;
    MemoryHierarchy caches_;
    TlbHierarchy tlbs_;
    std::unique_ptr<AddressSpace> proc_;
    // DMT state.
    std::unique_ptr<LocalTeaSource> teaSrc_;
    std::unique_ptr<TeaManager> teaMgr_;
    DmtRegisterFile regs_;
    std::unique_ptr<MappingManager> mapMgr_;
    // Design structures.
    std::unique_ptr<RadixWalker> radix_;
    std::unique_ptr<FlatPageTable> fpt_;
    std::unique_ptr<FptNativeWalker> fptWalker_;
    std::unique_ptr<EcptTable> ecpt_;
    std::unique_ptr<EcptNativeWalker> ecptWalker_;
    std::unique_ptr<AsapNativeWalker> asap_;
    std::unique_ptr<RadixWalker> dmtFallback_;
    std::unique_ptr<DmtNativeFetcher> dmt_;
};

/** Single-level virtualization testbed. */
class VirtTestbed
{
  public:
    VirtTestbed(Addr footprint_bytes, const TestbedConfig &config);
    ~VirtTestbed();

    /** The guest workload process. */
    AddressSpace &proc() { return vm_->guestSpace(); }
    VirtualMachine &vm() { return *vm_; }
    MemoryHierarchy &caches() { return caches_; }
    TlbHierarchy &tlbs() { return tlbs_; }
    PhysicalMemory &hostMem() { return hostMem_; }
    BuddyAllocator &hostAllocator() { return hostAlloc_; }

    /**
     * Set up host+guest TEA/mapping managers before workload setup.
     * @param pv use the KVM_HC_ALLOC_TEA path (pvDMT)
     */
    void attachDmt(bool pv);

    TranslationMechanism &build(Design design);

    /** Register all owned structures; call after build(). */
    void attachAuditor(InvariantAuditor &auditor);

    /** Translation counters under canonical names (see obs/). */
    void translationStats(StatGroup &g);

    /** Host+guest `tea.*` / `mapping.*` management counters. */
    void managementStats(StatGroup &g);

    const DmtVirtFetcher *dmtFetcher() const { return dmt_.get(); }
    const ShadowPager *shadowPager() const { return shadow_.get(); }
    TeaHypercall *hypercall() { return hypercall_.get(); }
    GteaTable &gteaTable() { return gteaTable_; }
    TeaManager *guestTeaManager() { return guestTeaMgr_.get(); }
    MappingManager *guestMappingManager() { return guestMapMgr_.get(); }
    DmtRegisterFile &guestRegisters() { return guestRegs_; }
    DmtRegisterFile &hostRegisters() { return hostRegs_; }

  private:
    TestbedConfig config_;
    PhysicalMemory hostMem_;
    BuddyAllocator hostAlloc_;
    MemoryHierarchy caches_;
    TlbHierarchy tlbs_;
    std::unique_ptr<VirtualMachine> vm_;
    // DMT state (host container side).
    std::unique_ptr<LocalTeaSource> hostTeaSrc_;
    std::unique_ptr<TeaManager> hostTeaMgr_;
    DmtRegisterFile hostRegs_;
    std::unique_ptr<MappingManager> hostMapMgr_;
    // DMT state (guest side).
    GteaTable gteaTable_;
    std::unique_ptr<TeaHypercall> hypercall_;
    std::unique_ptr<TeaFrameSource> guestTeaSrc_;
    std::unique_ptr<TeaManager> guestTeaMgr_;
    DmtRegisterFile guestRegs_;
    std::unique_ptr<MappingManager> guestMapMgr_;
    bool pv_ = false;
    // Design structures.
    std::unique_ptr<NestedWalker> nested_;
    std::unique_ptr<ShadowPager> shadow_;
    std::unique_ptr<RadixWalker> shadowWalker_;
    std::unique_ptr<FlatPageTable> guestFpt_, hostFpt_;
    std::unique_ptr<FptVirtWalker> fptWalker_;
    std::unique_ptr<EcptTable> guestEcpt_, hostEcpt_;
    std::unique_ptr<EcptVirtWalker> ecptWalker_;
    std::unique_ptr<ShadowPager> agileShadow_;
    std::unique_ptr<AgileWalker> agile_;
    std::unique_ptr<AsapVirtWalker> asap_;
    std::unique_ptr<NestedWalker> dmtFallback_;
    std::unique_ptr<DmtVirtFetcher> dmt_;
};

/** Nested-virtualization testbed (L2 on L1 on L0). */
class NestedTestbed
{
  public:
    NestedTestbed(Addr footprint_bytes, const TestbedConfig &config);
    ~NestedTestbed();

    /** The L2 workload process. */
    AddressSpace &proc() { return stack_->l2Space(); }
    NestedStack &stack() { return *stack_; }
    MemoryHierarchy &caches() { return caches_; }
    TlbHierarchy &tlbs() { return tlbs_; }
    PhysicalMemory &l0Mem() { return l0Mem_; }
    BuddyAllocator &l0Allocator() { return l0Alloc_; }

    /** Set up all three levels of pvDMT state (before setup). */
    void attachPvDmt();

    TranslationMechanism &build(Design design);

    /** Register all owned structures; call after build(). */
    void attachAuditor(InvariantAuditor &auditor);

    /** Translation counters under canonical names (see obs/). */
    void translationStats(StatGroup &g);

    /** L0/L1/L2 `tea.*` / `mapping.*` management counters. */
    void managementStats(StatGroup &g);

    const DmtNestedFetcher *dmtFetcher() const { return dmt_.get(); }
    const ShadowPager *shadowPager() const { return shadow_.get(); }
    NestedTeaHypercall *l2Hypercall() { return l2Hypercall_.get(); }
    /** The L2 process's architectural register file (task state). */
    DmtRegisterFile &registers() { return l2Regs_; }

  private:
    TestbedConfig config_;
    PhysicalMemory l0Mem_;
    BuddyAllocator l0Alloc_;
    MemoryHierarchy caches_;
    TlbHierarchy tlbs_;
    std::unique_ptr<NestedStack> stack_;
    // pvDMT state: L0 container.
    std::unique_ptr<LocalTeaSource> l0TeaSrc_;
    std::unique_ptr<TeaManager> l0TeaMgr_;
    DmtRegisterFile l0Regs_;
    std::unique_ptr<MappingManager> l0MapMgr_;
    // L1 container (pv to L0).
    GteaTable l1Gtable_;
    std::unique_ptr<TeaHypercall> l1Hypercall_;
    std::unique_ptr<TeaFrameSource> l1TeaSrc_;
    std::unique_ptr<TeaManager> l1TeaMgr_;
    DmtRegisterFile l1Regs_;
    std::unique_ptr<MappingManager> l1MapMgr_;
    // L2 process (cascaded pv).
    GteaTable l2Gtable_;
    std::unique_ptr<NestedTeaHypercall> l2Hypercall_;
    std::unique_ptr<TeaFrameSource> l2TeaSrc_;
    std::unique_ptr<TeaManager> l2TeaMgr_;
    DmtRegisterFile l2Regs_;
    std::unique_ptr<MappingManager> l2MapMgr_;
    // Designs.
    std::unique_ptr<ShadowPager> shadow_;
    std::unique_ptr<NestedWalker> nested_;
    std::unique_ptr<DmtNestedFetcher> dmt_;
};

} // namespace dmt

#endif // DMT_SIM_TESTBED_HH
