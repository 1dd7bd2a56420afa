#include "sim/testbed.hh"

#include "common/log.hh"

namespace dmt
{

std::string
designName(Design design, bool virtualized)
{
    switch (design) {
      case Design::Vanilla:
        return virtualized ? "Vanilla KVM" : "Vanilla Linux";
      case Design::Shadow: return "Shadow Paging";
      case Design::Fpt: return "FPT";
      case Design::Ecpt: return "ECPT";
      case Design::Agile: return "Agile Paging";
      case Design::Asap: return "ASAP";
      case Design::Dmt: return "DMT";
      case Design::PvDmt: return "pvDMT";
    }
    return "?";
}

namespace
{

/** Size physical memory generously around a working set. */
Addr
sizeMem(Addr footprint, Addr slack)
{
    return pageAlignUp(footprint + footprint / 4 + slack);
}

/** ECPT ways start small; elastic resizing grows only the size
 *  classes a workload actually populates, so probes against an
 *  unused class stay confined to a cache-resident region. */
constexpr std::uint64_t ecptInitialSlots = 4096;

std::vector<PageSize>
ecptSizes(ThpMode thp)
{
    if (thp == ThpMode::Always)
        return {PageSize::Size4K, PageSize::Size2M};
    return {PageSize::Size4K};
}

void
mirrorToFpt(const AddressSpace &space, FlatPageTable &fpt)
{
    space.pageTable().forEachLeaf(
        [&](Addr va, Pfn pfn, PageSize size) { fpt.map(va, pfn, size); });
}

void
mirrorToEcpt(const AddressSpace &space, EcptTable &ecpt)
{
    space.pageTable().forEachLeaf(
        [&](Addr va, Pfn pfn, PageSize size) {
            ecpt.insert(va, pfn, size);
        });
}

MappingConfig
mappingFor(const TestbedConfig &cfg)
{
    MappingConfig mapping = cfg.mapping;
    mapping.tea2m = cfg.thp == ThpMode::Always;
    return mapping;
}

} // namespace

namespace
{

/** Largest power of two <= v (v >= 1). */
std::uint64_t
pow2Floor(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

TlbConfig
scaleTlb(TlbConfig cfg, double s)
{
    const std::uint64_t sets = cfg.entries / cfg.associativity;
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(sets) * s + 0.5);
    const std::uint64_t newSets = pow2Floor(std::max<std::uint64_t>(
        1, scaled));
    cfg.entries = static_cast<int>(newSets) * cfg.associativity;
    return cfg;
}

CacheConfig
scaleCache(CacheConfig cfg, double s)
{
    const std::uint64_t sets =
        cfg.sizeBytes / (static_cast<std::uint64_t>(cfg.lineBytes) *
                         cfg.associativity);
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(sets) * s + 0.5);
    const std::uint64_t newSets = pow2Floor(std::max<std::uint64_t>(
        2, scaled));
    cfg.sizeBytes = newSets *
                    static_cast<std::uint64_t>(cfg.lineBytes) *
                    cfg.associativity;
    return cfg;
}

int
scaleCount(int n, double s)
{
    return std::max(1, static_cast<int>(n * s + 0.5));
}

} // namespace

TestbedConfig
scaledTestbedConfig(double structure_scale, ThpMode thp)
{
    TestbedConfig cfg;
    cfg.thp = thp;
    const double s = structure_scale;
    cfg.l1dTlb = scaleTlb(cfg.l1dTlb, s);
    cfg.l1iTlb = scaleTlb(cfg.l1iTlb, s);
    cfg.stlb = scaleTlb(cfg.stlb, s);
    cfg.hierarchy.l1d = scaleCache(cfg.hierarchy.l1d, s);
    cfg.hierarchy.l2 = scaleCache(cfg.hierarchy.l2, s);
    cfg.hierarchy.llc = scaleCache(cfg.hierarchy.llc, s);
    cfg.pwc.entriesForL3Table = scaleCount(cfg.pwc.entriesForL3Table, s);
    cfg.pwc.entriesForL2Table = scaleCount(cfg.pwc.entriesForL2Table, s);
    cfg.pwc.entriesForL1Table = scaleCount(cfg.pwc.entriesForL1Table, s);
    return cfg;
}

// ------------------------------------------------------- NativeTestbed

NativeTestbed::NativeTestbed(Addr footprint_bytes,
                             const TestbedConfig &config)
    : config_(config),
      mem_(sizeMem(footprint_bytes, config.slackBytes)),
      alloc_(mem_.size() >> pageShift), caches_(config.hierarchy),
      tlbs_(config.l1dTlb, config.l1iTlb, config.stlb)
{
    AddressSpaceConfig procCfg;
    procCfg.ptLevels = config.ptLevels;
    procCfg.thp = config.thp;
    proc_ = std::make_unique<AddressSpace>(mem_, alloc_, procCfg);
}

NativeTestbed::~NativeTestbed()
{
    // The mapping manager observes the VMA tree and the TEA manager
    // is the page table's frame provider: tear down in reverse.
    mapMgr_.reset();
    dmt_.reset();
    teaMgr_.reset();
    proc_.reset();
}

void
NativeTestbed::attachDmt()
{
    DMT_ASSERT(!teaMgr_, "attachDmt called twice");
    teaSrc_ = std::make_unique<LocalTeaSource>(alloc_);
    teaMgr_ =
        std::make_unique<TeaManager>(proc_->pageTable(), *teaSrc_);
    mapMgr_ = std::make_unique<MappingManager>(
        *proc_, *teaMgr_, regs_, mappingFor(config_));
}

TranslationMechanism &
NativeTestbed::build(Design design)
{
    switch (design) {
      case Design::Vanilla:
        radix_ = std::make_unique<RadixWalker>(proc_->pageTable(),
                                               caches_, config_.pwc);
        return *radix_;
      case Design::Fpt:
        fpt_ = std::make_unique<FlatPageTable>(mem_, alloc_);
        mirrorToFpt(*proc_, *fpt_);
        fptWalker_ =
            std::make_unique<FptNativeWalker>(*fpt_, caches_);
        return *fptWalker_;
      case Design::Ecpt:
        ecpt_ = std::make_unique<EcptTable>(
            mem_, alloc_, ecptSizes(config_.thp), 2,
            ecptInitialSlots);
        mirrorToEcpt(*proc_, *ecpt_);
        ecptWalker_ =
            std::make_unique<EcptNativeWalker>(*ecpt_, caches_);
        return *ecptWalker_;
      case Design::Asap:
        asap_ = std::make_unique<AsapNativeWalker>(
            proc_->pageTable(), caches_, config_.pwc);
        return *asap_;
      case Design::Dmt:
        DMT_ASSERT(teaMgr_ != nullptr,
                   "attachDmt must precede workload setup");
        dmtFallback_ = std::make_unique<RadixWalker>(
            proc_->pageTable(), caches_, config_.pwc);
        dmt_ = std::make_unique<DmtNativeFetcher>(
            regs_, proc_->pageTable(), mem_, caches_,
            *dmtFallback_);
        return *dmt_;
      default:
        fatal("design %s is not available natively",
              designName(design, false).c_str());
    }
}

void
NativeTestbed::attachAuditor(InvariantAuditor &auditor)
{
    alloc_.attachAuditor(auditor, "buddy");
    caches_.attachAuditor(auditor, "caches");
    tlbs_.attachAuditor(
        auditor,
        [this](Addr va) -> std::optional<Tlb::Mapping> {
            const auto tr = proc_->pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return Tlb::Mapping{tr->pa, tr->size};
        },
        "tlb");
    proc_->pageTable().attachAuditor(auditor, "radix-pt");
    if (teaMgr_)
        teaMgr_->attachAuditor(auditor, "tea");
    if (mapMgr_)
        mapMgr_->attachAuditor(auditor, "mapping");
    if (radix_)
        radix_->attachAuditor(auditor, "pwc");
    if (dmtFallback_)
        dmtFallback_->attachAuditor(auditor, "dmt-pwc");
}

// --------------------------------------------------------- VirtTestbed

VirtTestbed::VirtTestbed(Addr footprint_bytes,
                         const TestbedConfig &config)
    : config_(config),
      hostMem_(sizeMem(footprint_bytes,
                       2 * config.slackBytes + (Addr{1} << 30))),
      hostAlloc_(hostMem_.size() >> pageShift),
      caches_(config.hierarchy),
      tlbs_(config.l1dTlb, config.l1iTlb, config.stlb)
{
    VmConfig vmCfg;
    vmCfg.vmBytes = pageAlignUp(footprint_bytes +
                                footprint_bytes / 8 +
                                config.slackBytes);
    vmCfg.hostThp = config.thp;
    vmCfg.guestThp = config.thp;
    vmCfg.ptLevels = config.ptLevels;
    vm_ = std::make_unique<VirtualMachine>(hostMem_, hostAlloc_,
                                           vmCfg);
}

VirtTestbed::~VirtTestbed()
{
    // Design structures first: they free memory back into the VM's
    // allocators.
    dmt_.reset();
    dmtFallback_.reset();
    asap_.reset();
    agile_.reset();
    agileShadow_.reset();
    ecptWalker_.reset();
    guestEcpt_.reset();
    hostEcpt_.reset();
    fptWalker_.reset();
    guestFpt_.reset();
    hostFpt_.reset();
    shadowWalker_.reset();
    shadow_.reset();
    nested_.reset();
    // Then the DMT management layers, then the hypercall (whose
    // spliced frames outlive the guest TEA manager), then the VM.
    hostMapMgr_.reset();
    guestMapMgr_.reset();
    guestTeaMgr_.reset();
    hostTeaMgr_.reset();
    hypercall_.reset();
    vm_.reset();
}

void
VirtTestbed::attachDmt(bool pv)
{
    DMT_ASSERT(!hostTeaMgr_, "attachDmt called twice");
    pv_ = pv;
    // Host (container) side: plain contiguous allocation.
    hostTeaSrc_ = std::make_unique<LocalTeaSource>(hostAlloc_);
    hostTeaMgr_ = std::make_unique<TeaManager>(
        vm_->containerSpace().pageTable(), *hostTeaSrc_);
    MappingConfig hostMapping = mappingFor(config_);
    hostMapMgr_ = std::make_unique<MappingManager>(
        vm_->containerSpace(), *hostTeaMgr_, hostRegs_, hostMapping);

    // Guest side: hypercall-backed under pvDMT.
    if (pv) {
        hypercall_ = std::make_unique<TeaHypercall>(
            *vm_, hostAlloc_, gteaTable_);
        guestTeaSrc_ = std::make_unique<PvTeaSource>(
            *hypercall_, vm_->guestAllocator());
    } else {
        guestTeaSrc_ =
            std::make_unique<LocalTeaSource>(vm_->guestAllocator());
    }
    guestTeaMgr_ = std::make_unique<TeaManager>(
        vm_->guestSpace().pageTable(), *guestTeaSrc_);
    guestMapMgr_ = std::make_unique<MappingManager>(
        vm_->guestSpace(), *guestTeaMgr_, guestRegs_,
        mappingFor(config_));
}

TranslationMechanism &
VirtTestbed::build(Design design)
{
    // gpaToHva(0) is the VM's constant gPA->hVA base offset.
    const NestedWalker::GpaToHostVa gpaToHva{vm_->gpaToHva(0)};
    switch (design) {
      case Design::Vanilla:
        nested_ = std::make_unique<NestedWalker>(
            vm_->guestSpace().pageTable(),
            vm_->containerSpace().pageTable(), gpaToHva, caches_,
            config_.pwc, "Vanilla KVM");
        return *nested_;
      case Design::Shadow:
        shadow_ = std::make_unique<ShadowPager>(
            hostMem_, hostAlloc_, vm_->guestSpace(), vm_->guestMem());
        shadow_->syncAll();
        shadowWalker_ = std::make_unique<RadixWalker>(
            shadow_->table(), caches_, config_.pwc,
            "Shadow Paging");
        return *shadowWalker_;
      case Design::Fpt:
        guestFpt_ = std::make_unique<FlatPageTable>(
            vm_->guestMem(), vm_->guestAllocator());
        mirrorToFpt(vm_->guestSpace(), *guestFpt_);
        hostFpt_ =
            std::make_unique<FlatPageTable>(hostMem_, hostAlloc_);
        mirrorToFpt(vm_->containerSpace(), *hostFpt_);
        fptWalker_ = std::make_unique<FptVirtWalker>(
            *guestFpt_, *hostFpt_, *vm_, caches_);
        return *fptWalker_;
      case Design::Ecpt:
        guestEcpt_ = std::make_unique<EcptTable>(
            vm_->guestMem(), vm_->guestAllocator(),
            ecptSizes(config_.thp), 2, ecptInitialSlots);
        mirrorToEcpt(vm_->guestSpace(), *guestEcpt_);
        hostEcpt_ = std::make_unique<EcptTable>(
            hostMem_, hostAlloc_, ecptSizes(config_.thp), 2,
            ecptInitialSlots);
        mirrorToEcpt(vm_->containerSpace(), *hostEcpt_);
        ecptWalker_ = std::make_unique<EcptVirtWalker>(
            *guestEcpt_, *hostEcpt_, *vm_, caches_);
        return *ecptWalker_;
      case Design::Agile:
        agileShadow_ = std::make_unique<ShadowPager>(
            hostMem_, hostAlloc_, vm_->guestSpace(), vm_->guestMem());
        agileShadow_->syncAll();
        agile_ = std::make_unique<AgileWalker>(
            agileShadow_->table(), vm_->guestSpace().pageTable(),
            vm_->containerSpace().pageTable(), gpaToHva, caches_,
            config_.pwc);
        return *agile_;
      case Design::Asap:
        asap_ = std::make_unique<AsapVirtWalker>(
            vm_->guestSpace().pageTable(),
            vm_->containerSpace().pageTable(), gpaToHva, caches_,
            config_.pwc);
        return *asap_;
      case Design::Dmt:
      case Design::PvDmt: {
        DMT_ASSERT(hostTeaMgr_ != nullptr,
                   "attachDmt must precede workload setup");
        DMT_ASSERT((design == Design::PvDmt) == pv_,
                   "attachDmt pv flag does not match the design");
        dmtFallback_ = std::make_unique<NestedWalker>(
            vm_->guestSpace().pageTable(),
            vm_->containerSpace().pageTable(), gpaToHva, caches_,
            config_.pwc);
        dmt_ = std::make_unique<DmtVirtFetcher>(
            guestRegs_, hostRegs_, *vm_, hostMem_, caches_,
            *dmtFallback_, pv_ ? &gteaTable_ : nullptr);
        return *dmt_;
      }
    }
    fatal("unhandled design");
}

void
VirtTestbed::attachAuditor(InvariantAuditor &auditor)
{
    hostAlloc_.attachAuditor(auditor, "host-buddy");
    vm_->guestAllocator().attachAuditor(auditor, "guest-buddy");
    caches_.attachAuditor(auditor, "caches");
    tlbs_.attachAuditor(
        auditor,
        [this](Addr va) -> std::optional<Tlb::Mapping> {
            // The guest-most page table is the authority on what the
            // TLB may cache; when a shadow pager is active its table
            // decides instead, because shadowing can splinter guest
            // huge pages whose host backing is not contiguous.
            const ShadowPager *sp =
                shadow_ ? shadow_.get() : agileShadow_.get();
            if (sp) {
                const auto str = sp->table().translate(va);
                if (!str)
                    return std::nullopt;
                return Tlb::Mapping{str->pa, str->size};
            }
            const auto tr =
                vm_->guestSpace().pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            // Through the container table, not gpaToHostPa(), so an
            // unbacked guest frame is reported instead of panicking.
            const auto htr = vm_->containerSpace().pageTable().translate(
                vm_->gpaToHva(tr->pa));
            if (!htr)
                return std::nullopt;
            return Tlb::Mapping{htr->pa, tr->size};
        },
        "tlb");
    vm_->guestSpace().pageTable().attachAuditor(auditor, "guest-pt");
    vm_->containerSpace().pageTable().attachAuditor(auditor,
                                                    "host-pt");
    if (guestTeaMgr_)
        guestTeaMgr_->attachAuditor(auditor, "guest-tea");
    if (hostTeaMgr_)
        hostTeaMgr_->attachAuditor(auditor, "host-tea");
    if (guestMapMgr_)
        guestMapMgr_->attachAuditor(auditor, "guest-mapping");
    if (hostMapMgr_)
        hostMapMgr_->attachAuditor(auditor, "host-mapping");
    if (nested_)
        nested_->attachAuditor(auditor, "pwc-2d");
    if (dmtFallback_)
        dmtFallback_->attachAuditor(auditor, "dmt-pwc-2d");
    if (shadowWalker_)
        shadowWalker_->attachAuditor(auditor, "shadow-pwc");
    if (shadow_)
        shadow_->table().attachAuditor(auditor, "shadow-pt");
    if (agileShadow_)
        agileShadow_->table().attachAuditor(auditor,
                                            "agile-shadow-pt");
}

// ------------------------------------------------------- NestedTestbed

NestedTestbed::NestedTestbed(Addr footprint_bytes,
                             const TestbedConfig &config)
    : config_(config),
      l0Mem_(sizeMem(footprint_bytes,
                     4 * config.slackBytes + (Addr{2} << 30))),
      l0Alloc_(l0Mem_.size() >> pageShift), caches_(config.hierarchy),
      tlbs_(config.l1dTlb, config.l1iTlb, config.stlb)
{
    NestedConfig stackCfg;
    stackCfg.l2Bytes = pageAlignUp(footprint_bytes +
                                   footprint_bytes / 8 +
                                   config.slackBytes);
    stackCfg.l1Bytes = pageAlignUp(stackCfg.l2Bytes +
                                   stackCfg.l2Bytes / 8 +
                                   config.slackBytes);
    stackCfg.l0Thp = config.thp;
    stackCfg.l1Thp = config.thp;
    stackCfg.l2Thp = config.thp;
    stack_ = std::make_unique<NestedStack>(l0Mem_, l0Alloc_,
                                           stackCfg);
}

NestedTestbed::~NestedTestbed()
{
    dmt_.reset();
    nested_.reset();
    shadow_.reset();
    l0MapMgr_.reset();
    l1MapMgr_.reset();
    l2MapMgr_.reset();
    l2TeaMgr_.reset();
    l1TeaMgr_.reset();
    l0TeaMgr_.reset();
    l2Hypercall_.reset();
    l1Hypercall_.reset();
    stack_.reset();
}

void
NestedTestbed::attachPvDmt()
{
    DMT_ASSERT(!l0TeaMgr_, "attachPvDmt called twice");
    // L0 container: local TEAs.
    l0TeaSrc_ = std::make_unique<LocalTeaSource>(l0Alloc_);
    l0TeaMgr_ = std::make_unique<TeaManager>(
        stack_->vm1().containerSpace().pageTable(), *l0TeaSrc_);
    l0MapMgr_ = std::make_unique<MappingManager>(
        stack_->vm1().containerSpace(), *l0TeaMgr_, l0Regs_,
        mappingFor(config_));
    // L1 container: pv TEAs via the single-level hypercall.
    l1Hypercall_ = std::make_unique<TeaHypercall>(
        stack_->vm1(), l0Alloc_, l1Gtable_);
    l1TeaSrc_ = std::make_unique<PvTeaSource>(
        *l1Hypercall_, stack_->vm1().guestAllocator());
    l1TeaMgr_ = std::make_unique<TeaManager>(
        stack_->l1Container().pageTable(), *l1TeaSrc_);
    l1MapMgr_ = std::make_unique<MappingManager>(
        stack_->l1Container(), *l1TeaMgr_, l1Regs_,
        mappingFor(config_));
    // L2 process: cascaded pv TEAs.
    l2Hypercall_ = std::make_unique<NestedTeaHypercall>(
        *stack_, l0Alloc_, l2Gtable_);
    l2TeaSrc_ = std::make_unique<NestedPvTeaSource>(
        *l2Hypercall_, stack_->l2Allocator());
    l2TeaMgr_ = std::make_unique<TeaManager>(
        stack_->l2Space().pageTable(), *l2TeaSrc_);
    l2MapMgr_ = std::make_unique<MappingManager>(
        stack_->l2Space(), *l2TeaMgr_, l2Regs_,
        mappingFor(config_));
}

TranslationMechanism &
NestedTestbed::build(Design design)
{
    // l2paToL1va(0) is the stack's constant L2PA->L1VA base offset.
    const NestedWalker::GpaToHostVa l2paToL1va{stack_->l2paToL1va(0)};
    switch (design) {
      case Design::Vanilla:
        shadow_ = stack_->makeL2ShadowPager(l0Mem_, l0Alloc_);
        nested_ = std::make_unique<NestedWalker>(
            stack_->l2Space().pageTable(), shadow_->table(),
            l2paToL1va, caches_, config_.pwc, "Vanilla Nested KVM");
        return *nested_;
      case Design::PvDmt:
        DMT_ASSERT(l0TeaMgr_ != nullptr,
                   "attachPvDmt must precede workload setup");
        shadow_ = stack_->makeL2ShadowPager(l0Mem_, l0Alloc_);
        nested_ = std::make_unique<NestedWalker>(
            stack_->l2Space().pageTable(), shadow_->table(),
            l2paToL1va, caches_, config_.pwc, "Vanilla Nested KVM");
        dmt_ = std::make_unique<DmtNestedFetcher>(
            l2Regs_, l1Regs_, l0Regs_, *stack_, l0Mem_, caches_,
            *nested_, l2Gtable_, l1Gtable_);
        return *dmt_;
      default:
        fatal("design %s is not modelled under nested virtualization",
              designName(design, true).c_str());
    }
}

void
NestedTestbed::attachAuditor(InvariantAuditor &auditor)
{
    l0Alloc_.attachAuditor(auditor, "l0-buddy");
    stack_->vm1().guestAllocator().attachAuditor(auditor, "l1-buddy");
    stack_->l2Allocator().attachAuditor(auditor, "l2-buddy");
    caches_.attachAuditor(auditor, "caches");
    tlbs_.attachAuditor(
        auditor,
        [this](Addr va) -> std::optional<Tlb::Mapping> {
            const auto tr =
                stack_->l2Space().pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            // Table by table, as NestedStack::audit walks the chain, so
            // a lost backing is reported instead of panicking.
            const auto tr1 =
                stack_->l1Container().pageTable().translate(
                    stack_->l2paToL1va(tr->pa));
            if (!tr1)
                return std::nullopt;
            const auto tr0 =
                stack_->vm1().containerSpace().pageTable().translate(
                    stack_->vm1().gpaToHva(tr1->pa));
            if (!tr0)
                return std::nullopt;
            return Tlb::Mapping{tr0->pa, tr->size};
        },
        "tlb");
    stack_->attachAuditor(auditor, "nested");
    stack_->l2Space().pageTable().attachAuditor(auditor, "l2-pt");
    stack_->l1Container().pageTable().attachAuditor(auditor, "l1-pt");
    stack_->vm1().containerSpace().pageTable().attachAuditor(
        auditor, "l0-pt");
    if (l2TeaMgr_)
        l2TeaMgr_->attachAuditor(auditor, "l2-tea");
    if (l1TeaMgr_)
        l1TeaMgr_->attachAuditor(auditor, "l1-tea");
    if (l0TeaMgr_)
        l0TeaMgr_->attachAuditor(auditor, "l0-tea");
    if (l2MapMgr_)
        l2MapMgr_->attachAuditor(auditor, "l2-mapping");
    if (l1MapMgr_)
        l1MapMgr_->attachAuditor(auditor, "l1-mapping");
    if (l0MapMgr_)
        l0MapMgr_->attachAuditor(auditor, "l0-mapping");
    if (nested_)
        nested_->attachAuditor(auditor, "pwc-2d");
    if (shadow_)
        shadow_->table().attachAuditor(auditor, "shadow-pt");
}

namespace
{

void
setCounter(StatGroup &g, const std::string &name, std::uint64_t v)
{
    g.scalar(name).inc(static_cast<double>(v));
}

/** TLB + cache-hierarchy counters shared by every environment. */
void
addStructureStats(StatGroup &g, const TlbHierarchy &tlbs,
                  const MemoryHierarchy &caches)
{
    setCounter(g, "tlb.l1d.hits", tlbs.l1d().hits());
    setCounter(g, "tlb.l1d.misses", tlbs.l1d().misses());
    setCounter(g, "tlb.stlb.hits", tlbs.stlb().hits());
    setCounter(g, "tlb.stlb.misses", tlbs.stlb().misses());
    setCounter(g, "cache.l1d.hits", caches.l1d().hits());
    setCounter(g, "cache.l1d.misses", caches.l1d().misses());
    setCounter(g, "cache.l2.hits", caches.l2().hits());
    setCounter(g, "cache.l2.misses", caches.l2().misses());
    setCounter(g, "cache.llc.hits", caches.llc().hits());
    setCounter(g, "cache.llc.misses", caches.llc().misses());
    setCounter(g, "hierarchy.accesses", caches.accesses());
    setCounter(g, "hierarchy.memory_accesses",
               caches.memoryAccesses());
}

void
addPwcStats(StatGroup &g, const std::string &prefix,
            std::uint64_t hits, std::uint64_t misses)
{
    setCounter(g, prefix + ".hits", hits);
    setCounter(g, prefix + ".misses", misses);
}

void
addFetcherStats(StatGroup &g, const FetcherStats &s)
{
    setCounter(g, "dmt.requests", s.requests);
    setCounter(g, "dmt.direct", s.direct);
    setCounter(g, "dmt.fallbacks", s.fallbacks);
    setCounter(g, "dmt.isolation_faults", s.isolationFaults);
}

// TEA/mapping management counters. Deliberately a separate surface
// from translationStats(): management operations are not per-access
// events, so these keys must never enter the event-replay
// (events_check) differential contract. Registering every field
// here is what the dmtlint `stat-registration` rule checks for.

void
addTeaStats(StatGroup &g, const std::string &prefix,
            const TeaManager *mgr)
{
    const TeaStats s = mgr ? mgr->stats() : TeaStats{};
    setCounter(g, prefix + ".creates", s.creates);
    setCounter(g, prefix + ".deletes", s.deletes);
    setCounter(g, prefix + ".expands_in_place", s.expandsInPlace);
    setCounter(g, prefix + ".migrations", s.migrations);
    setCounter(g, prefix + ".migrated_table_pages",
               s.migratedTablePages);
    setCounter(g, prefix + ".alloc_failures", s.allocFailures);
    setCounter(g, prefix + ".adopted_tables", s.adoptedTables);
}

void
addMappingStats(StatGroup &g, const std::string &prefix,
                const MappingManager *mgr)
{
    const MappingStats s = mgr ? mgr->stats() : MappingStats{};
    setCounter(g, prefix + ".reconciles", s.reconciles);
    setCounter(g, prefix + ".merges", s.merges);
    setCounter(g, prefix + ".splits", s.splits);
    setCounter(g, prefix + ".uncovered", s.uncovered);
}

} // namespace

void
NativeTestbed::translationStats(StatGroup &g)
{
    addStructureStats(g, tlbs_, caches_);
    std::uint64_t guestHits = 0, guestMisses = 0;
    for (RadixWalker *w : {radix_.get(), dmtFallback_.get()}) {
        if (!w)
            continue;
        guestHits += w->pwc().hits();
        guestMisses += w->pwc().misses();
    }
    addPwcStats(g, "pwc.guest", guestHits, guestMisses);
    addPwcStats(g, "pwc.nested", 0, 0);
    addFetcherStats(g, dmt_ ? dmt_->stats() : FetcherStats{});
}

void
VirtTestbed::translationStats(StatGroup &g)
{
    addStructureStats(g, tlbs_, caches_);
    std::uint64_t guestHits = 0, guestMisses = 0;
    std::uint64_t nestedHits = 0, nestedMisses = 0;
    // ASAP delegates its 2-D walks to an embedded NestedWalker whose
    // annotations flow through unchanged, so its PWCs count here too.
    for (NestedWalker *w :
         {nested_.get(), dmtFallback_.get(),
          asap_ ? &asap_->nested() : nullptr}) {
        if (!w)
            continue;
        guestHits += w->guestPwc().hits();
        guestMisses += w->guestPwc().misses();
        nestedHits += w->nestedPwc().hits();
        nestedMisses += w->nestedPwc().misses();
    }
    if (shadowWalker_) {
        guestHits += shadowWalker_->pwc().hits();
        guestMisses += shadowWalker_->pwc().misses();
    }
    addPwcStats(g, "pwc.guest", guestHits, guestMisses);
    addPwcStats(g, "pwc.nested", nestedHits, nestedMisses);
    addFetcherStats(g, dmt_ ? dmt_->stats() : FetcherStats{});
}

void
NestedTestbed::translationStats(StatGroup &g)
{
    addStructureStats(g, tlbs_, caches_);
    std::uint64_t guestHits = 0, guestMisses = 0;
    std::uint64_t nestedHits = 0, nestedMisses = 0;
    if (nested_) {
        guestHits = nested_->guestPwc().hits();
        guestMisses = nested_->guestPwc().misses();
        nestedHits = nested_->nestedPwc().hits();
        nestedMisses = nested_->nestedPwc().misses();
    }
    addPwcStats(g, "pwc.guest", guestHits, guestMisses);
    addPwcStats(g, "pwc.nested", nestedHits, nestedMisses);
    addFetcherStats(g, dmt_ ? dmt_->stats() : FetcherStats{});
}

void
NativeTestbed::managementStats(StatGroup &g)
{
    addTeaStats(g, "tea", teaMgr_.get());
    addMappingStats(g, "mapping", mapMgr_.get());
}

void
VirtTestbed::managementStats(StatGroup &g)
{
    addTeaStats(g, "tea.host", hostTeaMgr_.get());
    addMappingStats(g, "mapping.host", hostMapMgr_.get());
    addTeaStats(g, "tea.guest", guestTeaMgr_.get());
    addMappingStats(g, "mapping.guest", guestMapMgr_.get());
}

void
NestedTestbed::managementStats(StatGroup &g)
{
    addTeaStats(g, "tea.l0", l0TeaMgr_.get());
    addMappingStats(g, "mapping.l0", l0MapMgr_.get());
    addTeaStats(g, "tea.l1", l1TeaMgr_.get());
    addMappingStats(g, "mapping.l1", l1MapMgr_.get());
    addTeaStats(g, "tea.l2", l2TeaMgr_.get());
    addMappingStats(g, "mapping.l2", l2MapMgr_.get());
}

} // namespace dmt
