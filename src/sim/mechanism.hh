/**
 * @file
 * The pluggable translation-mechanism interface.
 *
 * Every design evaluated in the paper — the vanilla x86 radix walker,
 * nested paging, shadow paging, DMT/pvDMT, ECPT, FPT, Agile Paging,
 * ASAP — implements this interface. The translation simulator invokes
 * walk() on every TLB miss and aggregates the returned records.
 */

#ifndef DMT_SIM_MECHANISM_HH
#define DMT_SIM_MECHANISM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dmt
{

/** One timed step of a page walk (for the Fig. 16 breakdown). */
struct WalkStepCost
{
    char dim;       //!< 'g' guest, 'h' host, 'n' native/flat, 'd' DMT
    std::int8_t level;  //!< radix level, or step ordinal for DMT
    Cycles cycles;  //!< time charged for this step
    /** Logical position in the canonical 24-step 2-D walk of
     *  Figure 2 (1-24), or -1 when not applicable. */
    std::int8_t slot = -1;
    /** Physical address the step fetched from (0 when unknown —
     *  baselines that predate the event tracer may not fill it). */
    Addr pa = 0;
};

/** Which hot path served a walk (event-tracing classification). */
enum class TranslationPath : std::uint8_t
{
    Other = 0,        //!< baselines without per-path annotations
    Radix = 1,        //!< native x86 radix walk
    Nested = 2,       //!< 2-D (nested / shadow-on-nested) walk
    DmtDirect = 3,    //!< served by the DMT register file
    DmtFallback = 4,  //!< DMT probe missed, x86 walker finished it
};

/** The outcome of one full translation (page walk). */
struct WalkRecord
{
    Cycles latency = 0;      //!< total sequential latency
    int seqRefs = 0;         //!< length of the dependent access chain
    int parallelRefs = 0;    //!< extra refs issued in parallel
    Addr pa = 0;             //!< final translated physical address
    PageSize size = PageSize::Size4K;  //!< leaf page size
    /**
     * Largest aligned span around va known to map onto one physical
     * run. The TLB entry the walk fills (at `size`) carries `pa` for
     * its whole page only when this covers it. Walkers that track
     * every dimension's leaf set it (the leaf size natively, the
     * smallest leaf of the chain under virtualization); 4 KB is
     * always safe.
     */
    PageSize linearSize = PageSize::Size4K;
    bool fellBack = false;   //!< served by the x86 walker fallback
    /** Per-step costs; filled only when step recording is enabled. */
    std::vector<WalkStepCost> steps;

    // Event-tracing annotations (consumed by src/obs). Walkers fill
    // these unconditionally: each is a single byte store per walk,
    // which keeps the tracing-off path free of extra branches. The
    // differential test in tests/test_events.cc holds them to exact
    // agreement with the owning structures' ScalarStat counters.
    TranslationPath path = TranslationPath::Other;
    /** PWC depth reached: first level still fetched (-1 = no PWC). */
    std::int8_t pwcStartLevel = -1;
    std::uint8_t pwcHits = 0;        //!< guest/native PWC lookups hit
    std::uint8_t pwcMisses = 0;      //!< guest/native PWC lookups missed
    std::uint8_t nestedPwcHits = 0;  //!< host-dimension PWC hits
    std::uint8_t nestedPwcMisses = 0;
    std::uint8_t nestedWalks = 0;    //!< host-dimension walks issued
    std::uint8_t dmtProbes = 0;      //!< parallel TEA probes issued
    std::uint8_t dmtFaults = 0;      //!< pvDMT gTEA isolation faults
    bool gteaPath = false;           //!< went through a gTEA table

    /** The TLB entry for this walk can carry `pa` for its page. */
    bool linear() const { return linearSize >= size; }
};

/** A translation design under evaluation. */
class TranslationMechanism
{
  public:
    virtual ~TranslationMechanism() = default;

    /** Short identifier, e.g. "pvDMT" or "Vanilla KVM". */
    virtual std::string name() const = 0;

    /**
     * Translate va after a TLB miss, charging all memory references
     * to the cache hierarchy.
     *
     * @param va the (guest-most) virtual address
     * @return the walk record (latency, refs, final PA, page size)
     */
    virtual WalkRecord walk(Addr va) = 0;

    /**
     * Resolve va to its final physical address *functionally* (no
     * latency, no cache effects) — used by the simulator to charge
     * the data access of a TLB hit whose entry is not linear
     * (WalkRecord::linearSize), and by tests as ground truth.
     */
    virtual Addr resolve(Addr va) = 0;

    /** Enable per-step cost recording (Fig. 16). */
    void recordSteps(bool on) { recordSteps_ = on; }

    /** Flush any walker-private caching state (context switch). */
    virtual void flush() {}

  protected:
    bool recordSteps_ = false;
};

} // namespace dmt

#endif // DMT_SIM_MECHANISM_HH
