/**
 * @file
 * The vanilla x86-64 hardware page walker (native environment).
 *
 * Walks the radix tree sequentially upon a TLB miss, starting at the
 * deepest table pointer the page walk cache holds (Figure 1 of the
 * paper) and reading only the PTEs from there down. This
 * is both the "Vanilla Linux" baseline and the fallback path used by
 * DMT when a VA is not covered by any VMA-to-TEA register.
 */

#ifndef DMT_SIM_RADIX_WALKER_HH
#define DMT_SIM_RADIX_WALKER_HH

#include <string>

#include "mem/memory_hierarchy.hh"
#include "pt/radix_page_table.hh"
#include "sim/mechanism.hh"
#include "tlb/pwc.hh"

namespace dmt
{

class InvariantAuditor;

/**
 * Native sequential radix page walker with a PWC.
 *
 * `final`, with walk()/resolve() defined inline below: the simulator
 * instantiates its commit pass per concrete mechanism (see
 * translation_sim.cc), and sealing the class lets those calls
 * devirtualize and inline instead of going through `Mechanism*`.
 */
class RadixWalker final : public TranslationMechanism
{
  public:
    /**
     * @param pt the process page table
     * @param caches the memory hierarchy PTE fetches go through
     * @param pwc_config page-walk-cache geometry
     */
    RadixWalker(const RadixPageTable &pt, MemoryHierarchy &caches,
                const PwcConfig &pwc_config = {},
                std::string name = "Vanilla Linux");

    std::string name() const override { return name_; }

    WalkRecord walk(Addr va) override;

    Addr resolve(Addr va) override;

    void flush() override { pwc_.flush(); }

    PageWalkCache &pwc() { return pwc_; }

    ~RadixWalker() override;

    /**
     * Register a hook auditing this walker's PWC against the page
     * table it walks (every cached pointer must name the frame the
     * table currently occupies). The auditor must outlive the walker.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "pwc");

  private:
    const RadixPageTable &pt_;
    MemoryHierarchy &caches_;
    PageWalkCache pwc_;
    std::string name_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

inline WalkRecord
RadixWalker::walk(Addr va)
{
    WalkRecord rec;
    rec.path = TranslationPath::Radix;
    // Consult the PWC first: the walk resumes at the deepest table
    // pointer it holds, so only the PTEs it charges are read.
    const auto hit =
        pwc_.lookup(va, pt_.levels(),
                    static_cast<Pfn>(pt_.rootPa() >> pageShift));
    rec.latency += pwc_.latency();
    rec.pwcStartLevel = static_cast<std::int8_t>(hit.startLevel);
    if (hit.hit)
        ++rec.pwcHits;
    else
        ++rec.pwcMisses;
    const auto path = pt_.walkPathFrom(va, hit.startLevel, hit.tablePfn);
    DMT_ASSERT(pteIsPresent(path.back().pte),
               "page fault during simulated walk at va 0x%llx",
               static_cast<unsigned long long>(va));

    for (const auto &step : path) {
        const Cycles cost = caches_.access(step.pteAddr);
        rec.latency += cost;
        ++rec.seqRefs;
        if (recordSteps_)
            rec.steps.push_back(
                {'n', static_cast<std::int8_t>(step.level), cost, -1,
                 step.pteAddr});
        // Fill the PWC with the table pointer this PTE yields.
        if (step.level > 1 && !pteIsHuge(step.pte))
            pwc_.fill(va, step.level - 1, ptePfn(step.pte));
    }

    const auto &leaf = path.back();
    PageSize size = PageSize::Size4K;
    if (leaf.level == 2)
        size = PageSize::Size2M;
    else if (leaf.level == 3)
        size = PageSize::Size1G;
    rec.size = size;
    rec.linearSize = size;
    const Addr offset = va & (pageBytesOf(size) - 1);
    rec.pa = (ptePfn(leaf.pte) << pageShift) + offset;
    return rec;
}

inline Addr
RadixWalker::resolve(Addr va)
{
    const auto tr = pt_.translate(va);
    DMT_ASSERT(tr.has_value(), "resolve: va 0x%llx unmapped",
               static_cast<unsigned long long>(va));
    return tr->pa;
}

} // namespace dmt

#endif // DMT_SIM_RADIX_WALKER_HH
