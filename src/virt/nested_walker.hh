/**
 * @file
 * The two-dimensional (nested) hardware page walker of Figure 2.
 *
 * Translating a guest VA requires walking the guest page table, where
 * every guest PTE access is itself a guest-physical address that must
 * be resolved through the host page table — up to 24 sequential
 * memory references for 4-level tables. Guest-dimension and
 * host-dimension page walk caches (PWC and nested PWC, Table 3) skip
 * the upper levels they have seen before: each dimension's walk
 * starts at the deepest table pointer its PWC holds, and every guest
 * PTE is read at the host-physical address the walk charges for it.
 *
 * The same class also implements the *shadow paging* baseline's walk
 * for nested virtualization, by passing the shadow table as the host
 * dimension with an identity gPA->hostVA mapping.
 */

#ifndef DMT_VIRT_NESTED_WALKER_HH
#define DMT_VIRT_NESTED_WALKER_HH

#include <string>

#include "mem/memory_hierarchy.hh"
#include "pt/radix_page_table.hh"
#include "sim/mechanism.hh"
#include "tlb/pwc.hh"

namespace dmt
{

class InvariantAuditor;

/** Hardware-assisted 2-D page walker (Intel EPT / AMD NPT style). */
class NestedWalker : public TranslationMechanism
{
  public:
    /**
     * Maps a guest-physical address into the host table's VA space.
     *
     * Every VM maps guest-physical space at a constant host-VA
     * offset (VirtualMachine::gpaToHva is `gpaBaseHva + gpa`), so
     * this is a plain offset struct rather than a std::function —
     * the 2-D walker calls it up to 20 times per walk and must not
     * pay type erasure or a possible heap allocation for a capture.
     * An offset of zero is the identity mapping shadow paging uses.
     */
    struct GpaToHostVa
    {
        Addr baseHva = 0;

        Addr operator()(Addr gpa) const { return baseHva + gpa; }
    };

    /**
     * @param guest_pt guest page table (gVA -> gPA, entries at gPAs)
     * @param host_pt host page table (hVA -> hPA)
     * @param gpa_to_hva how the host table indexes guest-physical space
     * @param caches shared memory hierarchy
     */
    NestedWalker(const RadixPageTable &guest_pt,
                 const RadixPageTable &host_pt, GpaToHostVa gpa_to_hva,
                 MemoryHierarchy &caches,
                 const PwcConfig &pwc_config = {},
                 std::string name = "Vanilla KVM");

    std::string name() const override { return name_; }

    WalkRecord walk(Addr gva) override;

    Addr resolve(Addr gva) override;

    void
    flush() override
    {
        guestPwc_.flush();
        nestedPwc_.flush();
    }

    PageWalkCache &guestPwc() { return guestPwc_; }
    PageWalkCache &nestedPwc() { return nestedPwc_; }

    ~NestedWalker() override;

    /**
     * Register a hook auditing both dimensions' PWCs: nested-PWC
     * pointers against the host table, and guest-PWC pointers (host
     * frames of guest tables) against the gTEA-style composition of
     * a guest-table lookup and a host translation. The auditor must
     * outlive the walker.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "pwc-2d");

    /**
     * Walk the host dimension for one guest-physical address from the
     * deepest host table the nested PWC points at, charging every
     * reference into `rec`. The host leaf size is stored through
     * `leaf_size` when it is non-null.
     * @return the host-physical address backing gpa
     */
    Addr hostWalk(Addr gpa, WalkRecord &rec,
                  PageSize *leaf_size = nullptr);

  private:
    const RadixPageTable &guestPt_;
    const RadixPageTable &hostPt_;
    GpaToHostVa gpaToHva_;
    MemoryHierarchy &caches_;
    PageWalkCache guestPwc_;   //!< caches host frames of guest tables
    PageWalkCache nestedPwc_;  //!< host-dimension partial walks
    std::string name_;
    /** Figure 2 slot base of the host walk in flight (-1 = none). */
    int slotBase_ = -1;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

} // namespace dmt

#endif // DMT_VIRT_NESTED_WALKER_HH
