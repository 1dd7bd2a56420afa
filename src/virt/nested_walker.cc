#include "virt/nested_walker.hh"

#include <algorithm>

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

NestedWalker::NestedWalker(const RadixPageTable &guest_pt,
                           const RadixPageTable &host_pt,
                           GpaToHostVa gpa_to_hva,
                           MemoryHierarchy &caches,
                           const PwcConfig &pwc_config,
                           std::string name)
    : guestPt_(guest_pt), hostPt_(host_pt),
      gpaToHva_(std::move(gpa_to_hva)), caches_(caches),
      guestPwc_(pwc_config), nestedPwc_(pwc_config),
      name_(std::move(name))
{
    DMT_ASSERT((gpaToHva_.baseHva & (gigaPageSize - 1)) == 0,
               "guest-physical space must sit at a 1 GB-aligned "
               "host VA");
}

NestedWalker::~NestedWalker()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

void
NestedWalker::attachAuditor(InvariantAuditor &auditor,
                            const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "nested walker already audited");
    auditor_ = &auditor;
    // The guest-dimension PWC caches the *host* frame of each guest
    // table page, so its oracle composes a guest-table lookup with a
    // host translation of that table's guest-physical address.
    auto guestOracle = [this](Addr gva,
                              int t) -> std::optional<Pfn> {
        const auto gframe = guestPt_.tableFrameAt(gva, t);
        if (!gframe)
            return std::nullopt;
        const auto htr =
            hostPt_.translate(gpaToHva_(*gframe << pageShift));
        if (!htr)
            return std::nullopt;
        return static_cast<Pfn>(htr->pa >> pageShift);
    };
    auto hostOracle = [this](Addr hva,
                             int t) -> std::optional<Pfn> {
        return hostPt_.tableFrameAt(hva, t);
    };
    auditHookId_ = auditor.registerHook(
        name,
        [this, guestOracle, hostOracle](AuditSink &sink) {
            guestPwc_.audit(sink, guestOracle, "guest-pwc");
            nestedPwc_.audit(sink, hostOracle, "nested-pwc");
        });
}

Addr
NestedWalker::hostWalk(Addr gpa, WalkRecord &rec, PageSize *leaf_size)
{
    const Addr hva = gpaToHva_(gpa);
    // The host walk resumes at the deepest host table the nested PWC
    // points at, reading only the PTEs it charges.
    const auto hit = nestedPwc_.lookup(
        hva, hostPt_.levels(),
        static_cast<Pfn>(hostPt_.rootPa() >> pageShift));
    const auto path =
        hostPt_.walkPathFrom(hva, hit.startLevel, hit.tablePfn);
    DMT_ASSERT(pteIsPresent(path.back().pte),
               "host page fault during nested walk (gpa 0x%llx)",
               static_cast<unsigned long long>(gpa));
    rec.latency += nestedPwc_.latency();
    ++rec.nestedWalks;
    if (hit.hit)
        ++rec.nestedPwcHits;
    else
        ++rec.nestedPwcMisses;
    for (const auto &step : path) {
        const Cycles cost = caches_.access(step.pteAddr);
        rec.latency += cost;
        ++rec.seqRefs;
        if (recordSteps_) {
            const int slot = slotBase_ >= 0
                                 ? slotBase_ + (4 - step.level) + 1
                                 : -1;
            rec.steps.push_back(
                {'h', static_cast<std::int8_t>(step.level), cost,
                 static_cast<std::int8_t>(slot), step.pteAddr});
        }
        if (step.level > 1 && !pteIsHuge(step.pte))
            nestedPwc_.fill(hva, step.level - 1, ptePfn(step.pte));
    }
    const auto &leaf = path.back();
    PageSize size = PageSize::Size4K;
    if (leaf.level == 2)
        size = PageSize::Size2M;
    else if (leaf.level == 3)
        size = PageSize::Size1G;
    if (leaf_size)
        *leaf_size = size;
    const Addr offset = hva & (pageBytesOf(size) - 1);
    return (ptePfn(leaf.pte) << pageShift) + offset;
}

WalkRecord
NestedWalker::walk(Addr gva)
{
    WalkRecord rec;
    rec.path = TranslationPath::Nested;

    // The guest-dimension PWC caches *host* frames of guest tables,
    // skipping both the upper guest levels and their host walks.
    const auto ghit =
        guestPwc_.lookup(gva, guestPt_.levels(), /*root_pfn=*/0);
    rec.latency += guestPwc_.latency();
    rec.pwcStartLevel = static_cast<std::int8_t>(ghit.startLevel);
    if (ghit.hit)
        ++rec.pwcHits;
    else
        ++rec.pwcMisses;

    // Each guest PTE is read where the walk charges it: at its host
    // address, through the host table's read window. The guest frame
    // of the next table comes from the PTE above it (the root's from
    // the guest CR3); a PWC hit supplies the first table's host frame
    // directly.
    Pfn tableGuestFrame =
        static_cast<Pfn>(guestPt_.rootPa() >> pageShift);
    std::uint64_t pte = 0;
    int level = ghit.startLevel;
    for (;; --level) {
        const Addr offset =
            static_cast<Addr>(RadixPageTable::indexAt(gva, level)) *
            pteSize;
        // Host frame of the table holding this guest PTE.
        Pfn tableHostFrame;
        slotBase_ = 5 * (4 - level);
        if (ghit.hit && level == ghit.startLevel) {
            tableHostFrame = ghit.tablePfn;
        } else {
            const Addr slotHpa =
                hostWalk((tableGuestFrame << pageShift) + offset, rec);
            tableHostFrame = slotHpa >> pageShift;
            if (level <= 3)
                guestPwc_.fill(gva, level, tableHostFrame);
        }
        const Addr pteHpa = (tableHostFrame << pageShift) | offset;
        const Cycles cost = caches_.access(pteHpa);
        rec.latency += cost;
        ++rec.seqRefs;
        if (recordSteps_)
            rec.steps.push_back(
                {'g', static_cast<std::int8_t>(level), cost,
                 static_cast<std::int8_t>(5 * (4 - level) + 5),
                 pteHpa});
        pte = hostPt_.readWord(pteHpa);
        DMT_ASSERT(pteIsPresent(pte),
                   "guest page fault during nested walk (gva 0x%llx)",
                   static_cast<unsigned long long>(gva));
        if (level == 1 || pteIsHuge(pte))
            break;
        tableGuestFrame = ptePfn(pte);
    }

    // Final host walk for the data page's guest-physical address.
    PageSize gsize = PageSize::Size4K;
    if (level == 2)
        gsize = PageSize::Size2M;
    else if (level == 3)
        gsize = PageSize::Size1G;
    const Addr dataGpa = (ptePfn(pte) << pageShift) +
                         (gva & (pageBytesOf(gsize) - 1));
    slotBase_ = 20;
    PageSize hsize = PageSize::Size4K;
    rec.pa = hostWalk(dataGpa, rec, &hsize);
    slotBase_ = -1;
    rec.size = gsize;
    // The guest page is one physical run only as far as the host
    // leaf backing it reaches (guest-physical space sits at a
    // 1 GB-aligned host offset, so the leaves nest).
    rec.linearSize = std::min(gsize, hsize);
    return rec;
}

Addr
NestedWalker::resolve(Addr gva)
{
    const auto gtr = guestPt_.translate(gva);
    DMT_ASSERT(gtr.has_value(), "resolve: gva 0x%llx unmapped",
               static_cast<unsigned long long>(gva));
    const auto htr = hostPt_.translate(gpaToHva_(gtr->pa));
    DMT_ASSERT(htr.has_value(), "resolve: gpa 0x%llx not backed",
               static_cast<unsigned long long>(gtr->pa));
    return htr->pa;
}

} // namespace dmt
