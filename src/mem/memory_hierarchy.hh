/**
 * @file
 * Three-level cache hierarchy plus main memory, with the round-trip
 * latencies of the paper's Table 3 (Intel Xeon Gold 6138):
 *
 *   L1D  32 KB / 8-way,  4 cycles RT
 *   L2    1 MB / 16-way, 14 cycles RT
 *   LLC  22 MB / 11-way, 54 cycles RT
 *   DRAM               200 cycles RT
 *
 * Both data accesses and page-walk PTE accesses go through this
 * hierarchy, so PTE cacheability — the effect at the heart of the
 * paper's Figure 16 — emerges from workload behaviour.
 */

#ifndef DMT_MEM_MEMORY_HIERARCHY_HH
#define DMT_MEM_MEMORY_HIERARCHY_HH

#include <cstdint>

#include "check/audit.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"

namespace dmt
{

class InvariantAuditor;

/** Configuration for the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1d{"l1d", 32 * 1024, 8, 64, 4};
    CacheConfig l2{"l2", 1024 * 1024, 16, 64, 14};
    CacheConfig llc{"llc", 22 * 1024 * 1024, 11, 64, 54};
    Cycles memoryRoundTrip = 200;
};

/** Which level of the hierarchy served an access. */
enum class HitLevel
{
    L1,
    L2,
    LLC,
    Memory,
};

/**
 * Per-access tally of cache probe outcomes, mirroring exactly the
 * increments applied to the Cache objects' own hit/miss counters.
 * The event tracer (src/obs) attaches one of these per simulated
 * access; when no tally is attached the hierarchy skips the updates.
 * Lives here rather than in obs/ so mem/ needs no obs dependency.
 */
struct CacheTally
{
    std::uint32_t l1dHits = 0;
    std::uint32_t l1dMisses = 0;
    std::uint32_t l2Hits = 0;
    std::uint32_t l2Misses = 0;
    std::uint32_t llcHits = 0;
    std::uint32_t llcMisses = 0;
    std::uint32_t memAccesses = 0;

    void reset() { *this = CacheTally{}; }
};

/** The cache hierarchy; charges cycles per physical access. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config = {});

    /**
     * Perform one physical memory access (fills all levels on miss).
     * Defined inline below — the per-access cascade is the hottest
     * code in the simulator and must inline into its callers.
     *
     * @param pa physical address
     * @return the round-trip latency in cycles
     */
    Cycles access(Addr pa);

    /** Like access() but also reports which level hit. */
    Cycles access(Addr pa, HitLevel &level);

    /**
     * Charge an access without allocating on miss (losing parallel
     * probes: their data is discarded, so real hardware would not
     * keep the line; in the scaled-down hierarchy the fills would
     * otherwise be a disproportionate pollution source).
     */
    Cycles accessClean(Addr pa);

    /**
     * Warm a line into the hierarchy without charging latency to the
     * caller (used by the ASAP prefetcher model).
     */
    void prefetch(Addr pa);

    /** Invalidate a line everywhere (e.g. after PTE migration). */
    void invalidate(Addr pa);

    /** Drop all cached content. */
    void flush();

    /**
     * Register one audit hook covering all three cache levels and
     * start ticking fill events. The auditor must outlive this
     * hierarchy.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "caches");

    ~MemoryHierarchy();

    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }
    const HierarchyConfig &config() const { return config_; }

    Counter accesses() const { return accesses_; }
    Counter memoryAccesses() const { return memAccesses_; }

    /**
     * Attach (or detach, with nullptr) a per-access probe tally the
     * hierarchy updates alongside its own counters. Owned by the
     * caller; the event tracer resets it per simulated access.
     */
    void setEventTally(CacheTally *tally) { tally_ = tally; }

  private:
    /**
     * Mirror one resolved access into the event tally: a hit at
     * `level` implies exactly one miss at every level above it,
     * matching the Cache counters bumped on the way down. Out of
     * line so the tracing-off hot path pays only the single
     * `if (tally_)` at the call site.
     */
    static void tallyLevel(CacheTally &tally, HitLevel level);

    HierarchyConfig config_;
    // Direct members (no unique_ptr indirection): every access()
    // touches all levels that miss, so keep them on one allocation.
    Cache l1d_;
    Cache l2_;
    Cache llc_;
    Counter accesses_ = 0;
    Counter memAccesses_ = 0;
    CacheTally *tally_ = nullptr;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

inline Cycles
MemoryHierarchy::access(Addr pa)
{
    HitLevel level;
    return access(pa, level);
}

inline Cycles
MemoryHierarchy::access(Addr pa, HitLevel &level)
{
    ++accesses_;
    Cycles cost;
    // Fused probe+fill per level: on a miss every level below fills
    // anyway, so accessFill() saves the second set scan. Per-cache
    // counter and LRU evolution is identical to the split
    // access()/insert() cascade this replaces.
    if (l1d_.accessFill(pa)) {
        level = HitLevel::L1;
        cost = config_.l1d.roundTrip;
    } else if (l2_.accessFill(pa)) {
        level = HitLevel::L2;
        cost = config_.l2.roundTrip;
    } else if (llc_.accessFill(pa)) {
        level = HitLevel::LLC;
        cost = config_.llc.roundTrip;
    } else {
        ++memAccesses_;
        level = HitLevel::Memory;
        DMT_AUDIT_EVENT(auditor_);
        cost = config_.memoryRoundTrip;
    }
    if (tally_) [[unlikely]]
        tallyLevel(*tally_, level);
    return cost;
}

inline Cycles
MemoryHierarchy::accessClean(Addr pa)
{
    ++accesses_;
    HitLevel level;
    Cycles cost;
    if (l1d_.access(pa)) {
        level = HitLevel::L1;
        cost = config_.l1d.roundTrip;
    } else if (l2_.access(pa)) {
        level = HitLevel::L2;
        cost = config_.l2.roundTrip;
    } else if (llc_.access(pa)) {
        level = HitLevel::LLC;
        cost = config_.llc.roundTrip;
    } else {
        ++memAccesses_;
        level = HitLevel::Memory;
        cost = config_.memoryRoundTrip;
    }
    if (tally_) [[unlikely]]
        tallyLevel(*tally_, level);
    return cost;
}

} // namespace dmt

#endif // DMT_MEM_MEMORY_HIERARCHY_HH
