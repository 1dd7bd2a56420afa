/**
 * @file
 * Page Walk Cache (PWC) — MMU caches for partial radix walks.
 *
 * Per Table 3: three fully-associative levels with 2, 4, and 32
 * entries caching pointers produced by L4, L3, and L2 PTEs
 * respectively, 1-cycle access. A hit at the L2-pointer level lets the
 * walker fetch only the leaf PTE. The same structure, instantiated a
 * second time and indexed by guest-physical address, serves as the
 * nested PWC for the host dimension of 2-D walks.
 */

#ifndef DMT_TLB_PWC_HH
#define DMT_TLB_PWC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "tlb/set_sweep.hh"

namespace dmt
{

class AuditSink;

/** Configuration: entries for the caches of L3/L2/L1 table pointers. */
struct PwcConfig
{
    /** entriesFor[t] = capacity of the cache of level-t table bases;
     *  index 3 caches L3-table pointers (from L4 PTEs), etc. */
    int entriesForL3Table = 2;
    int entriesForL2Table = 4;
    int entriesForL1Table = 32;
    Cycles latency = 1;
};

/** Result of a PWC probe. */
struct PwcHit
{
    /** The level of the first PTE the walker still has to fetch
     *  (1..rootLevel). rootLevel means a complete miss. */
    int startLevel;
    /** Frame of the table holding that PTE (root frame on miss). */
    Pfn tablePfn;
    /** Whether a cached pointer was found. Mirrors exactly which of
     *  hits()/misses() the lookup bumped, so walkers can annotate
     *  per-walk event records without re-deriving it from levels. */
    bool hit = false;
};

/** Three-level page walk cache. */
class PageWalkCache
{
  public:
    explicit PageWalkCache(const PwcConfig &config = {});

    /**
     * Probe for the deepest cached table pointer on the path of va.
     *
     * @param va the address being walked
     * @param root_level the tree's root level (4 or 5)
     * @param root_pfn frame of the root table (CR3)
     */
    PwcHit lookup(Addr va, int root_level, Pfn root_pfn);

    /**
     * Cache a table pointer discovered during a walk.
     *
     * @param va the walked address
     * @param table_level level of the table pointed to (1, 2, or 3)
     * @param table_pfn its frame
     */
    void fill(Addr va, int table_level, Pfn table_pfn);

    /**
     * Check (without LRU update) whether a level-1-table pointer for
     * va is resident — i.e. whether the walker could localise the
     * leaf PTE without any memory reference.
     */
    bool probeLeafPointer(Addr va) const;

    /**
     * Check (without LRU update) whether any lower-level table
     * pointer (L1 or L2) for va is resident — a walk from here is
     * one or two references.
     */
    bool probeLowPointer(Addr va) const;

    /** Drop all entries (context switch). */
    void flush();

    /**
     * Ground-truth source an audit validates entries against: the
     * frame of the table at `table_level` on the walk path of `va`
     * (nullopt if that table no longer exists). The native walker
     * wires RadixPageTable::tableFrameAt; the nested walker resolves
     * guest-table frames through the host dimension.
     */
    using Oracle =
        std::function<std::optional<Pfn>(Addr va, int table_level)>;

    /**
     * Audit-layer entry point: report duplicate tags within a way
     * array, LRU stamps ahead of the clock, and — when an oracle is
     * supplied — entries pointing at tables the oracle says moved or
     * vanished.
     * @param name reported in violation messages (e.g. "pwc:nested")
     */
    void audit(AuditSink &sink, const Oracle &oracle,
               const char *name = "pwc") const;

    Cycles latency() const { return config_.latency; }
    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }

  private:
    /**
     * One fully-associative bank in struct-of-arrays form: the
     * lookup sweep streams over contiguous 8-byte tags (the L1-table
     * bank is 32 entries — a 1 KB struct walk as AoS, four cache
     * lines of tags as SoA). A way is invalid iff its tag is
     * `kInvalidTag` (real tags are VA prefixes shifted right ≥ 21
     * bits and cannot reach it) and then keeps `lastUse == 0`, below
     * every valid stamp (the clock pre-increments), so the fill's
     * victim choice is a plain first-minimum scan of lastUse — the
     * same first-invalid-else-LRU the AoS scan produced.
     */
    struct Bank
    {
        std::vector<Addr> tags;
        std::vector<Pfn> pfn;
        std::vector<std::uint64_t> lastUse;

        void
        reset(std::size_t entries)
        {
            tags.assign(entries, kInvalidTag);
            pfn.assign(entries, 0);
            lastUse.assign(entries, 0);
        }
    };

    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Tag for a table at `table_level` on the path of va. */
    static Addr
    tagFor(Addr va, int table_level)
    {
        // A table at level t covers 2^(12 + 9t) bytes; the tag is the
        // VA with that span's offset stripped.
        return va >> (pageShift + 9 * table_level);
    }

    /** @return the bank for a table level (1..3). */
    Bank &bankFor(int table_level);
    const Bank &bankFor(int table_level) const;

    PwcConfig config_;
    Bank l3_;  //!< pointers to L3 tables
    Bank l2_;  //!< pointers to L2 tables
    Bank l1_;  //!< pointers to L1 tables
    std::uint64_t tick_ = 0;
    Counter hits_ = 0;
    Counter misses_ = 0;
};

inline PageWalkCache::Bank &
PageWalkCache::bankFor(int table_level)
{
    switch (table_level) {
      case 3: return l3_;
      case 2: return l2_;
      case 1: return l1_;
      default: panic("PWC caches table levels 1-3 only (got %d)",
                     table_level);
    }
}

inline const PageWalkCache::Bank &
PageWalkCache::bankFor(int table_level) const
{
    switch (table_level) {
      case 3: return l3_;
      case 2: return l2_;
      case 1: return l1_;
      default: panic("PWC caches table levels 1-3 only (got %d)",
                     table_level);
    }
}

inline PwcHit
PageWalkCache::lookup(Addr va, int root_level, Pfn root_pfn)
{
    ++tick_;
    // Deepest first: a cached L1-table pointer means only the leaf
    // PTE remains to be fetched. One key sweep per bank; the
    // duplicate-tag invariant (audited) makes the last match the
    // only match.
    for (int t = 1; t <= 3; ++t) {
        Bank &bank = bankFor(t);
        const Addr tag = tagFor(va, t);
        const int entries = static_cast<int>(bank.tags.size());
        const int match = lastEqualIndex(bank.tags.data(), entries, tag);
        if (match >= 0) {
            bank.lastUse[match] = tick_;
            ++hits_;
            return {t, bank.pfn[match], true};
        }
    }
    ++misses_;
    return {root_level, root_pfn, false};
}

inline void
PageWalkCache::fill(Addr va, int table_level, Pfn table_pfn)
{
    if (table_level < 1 || table_level > 3)
        return;  // the root is always reachable via CR3
    ++tick_;
    Bank &bank = bankFor(table_level);
    const Addr tag = tagFor(va, table_level);
    const int entries = static_cast<int>(bank.tags.size());
    const int match = lastEqualIndex(bank.tags.data(), entries, tag);
    if (match >= 0) {
        bank.pfn[match] = table_pfn;
        bank.lastUse[match] = tick_;
        return;
    }
    // First-minimum victim: picks the first invalid way (stamp 0) if
    // any, else the true LRU way, ties to the lowest index — exactly
    // the AoS scan's choice.
    const std::size_t victim = static_cast<std::size_t>(
        firstMinIndex(bank.lastUse.data(), entries));
    bank.tags[victim] = tag;
    bank.pfn[victim] = table_pfn;
    bank.lastUse[victim] = tick_;
}

} // namespace dmt

#endif // DMT_TLB_PWC_HH
