/**
 * @file
 * Set-associative, page-size-aware TLB model.
 *
 * Entries tag the virtual page number at the entry's own page size, so
 * a single 2 MB entry covers 512 4 KB pages — the reach effect that
 * makes THP matter in the paper's evaluation. Lookups probe all
 * supported page sizes (as hardware does for a unified TLB), but a
 * per-size residency count lets them skip set scans for sizes that
 * have no entries at all — a 4 KB-only run never pays for the 2 MB
 * and 1 GB probes.
 *
 * An entry is a cached translation, as in hardware: it carries the
 * physical frame the walk produced, so a hit yields the VA's physical
 * address without consulting the page tables. The frame is usable
 * only when the entry is *linear* — its whole page maps onto one
 * physical run (a guest 2 MB page on host 4 KB frames is not). Any
 * page-table change must therefore shoot the affected entries down.
 */

#ifndef DMT_TLB_TLB_HH
#define DMT_TLB_TLB_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "common/types.hh"
#include "tlb/set_sweep.hh"

namespace dmt
{

class AuditSink;
class InvariantAuditor;

/** Configuration of one TLB level. */
struct TlbConfig
{
    std::string name;
    int entries = 64;
    int associativity = 4;
};

/** One TLB (L1 D/I or the L2 STLB). */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** What a hit yields for the looked-up VA. */
    struct Hit
    {
        PageSize size;  //!< the entry's page size
        /** The entry maps its whole page onto one physical run. */
        bool linear;
        Addr pa;        //!< the VA's physical address, when linear
    };

    /**
     * Probe for the page containing va at any page size.
     * @return the hit entry's size and translation, or nullopt on
     *         miss. The hit entry is promoted to MRU.
     */
    std::optional<Hit> lookup(Addr va);

    /**
     * Read-only probe: like lookup() but with no LRU promotion and
     * no hit/miss counter update. This is what audit sweeps use so
     * an instrumented run does not perturb replacement state.
     */
    std::optional<PageSize> probe(Addr va) const;

    /**
     * Install a translation for the page of `size` containing va.
     * `pa` is va's physical address; it is carried for the whole
     * entry only when `linear`. Without one, hits on the entry tell
     * the caller to translate the VA itself.
     */
    void insert(Addr va, PageSize size, Addr pa = 0,
                bool linear = false);

    /**
     * insert() of a page the caller knows is absent: its lookup(va)
     * just missed at every size and nothing was installed since. The
     * entry goes straight to the victim way, without the search for
     * an existing entry that insert() makes first; the result is the
     * same. Filling a resident page would duplicate it (audited).
     */
    void fill(Addr va, PageSize size, Addr pa = 0, bool linear = false);

    /** Invalidate the entry covering va, if any. */
    void invalidate(Addr va);

    /** Drop everything (context switch / TLB shootdown). */
    void flush();

    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }

    /** Hit ratio over all lookups so far (0 if none). */
    double hitRatio() const;

    const TlbConfig &config() const { return config_; }

    /** A VA's ground-truth translation. */
    struct Mapping
    {
        Addr pa;        //!< physical address of the VA's byte
        PageSize size;  //!< page size a TLB entry may cache it at
    };

    /**
     * Ground-truth translation source an audit validates entries
     * against — typically the owning process's page tables. Returns
     * the VA's translation, or nullopt if unmapped.
     */
    using TranslateOracle =
        std::function<std::optional<Mapping>(Addr va)>;

    /**
     * Audit-layer entry point: report every entry whose VPN indexes
     * to a different set than it occupies, every duplicate
     * (vpn, size) pair within a set, every LRU stamp ahead of the
     * TLB's clock, every per-size residency count that disagrees
     * with the actual entries (a stale count would make lookup skip
     * a size that is resident), every entry a read-only probe()
     * cannot find, and — when an oracle is supplied — every entry
     * translating a page the oracle says is no longer mapped (or is
     * mapped at a different size), and every linear entry whose
     * frame is not where the oracle maps the page. Uses probe(),
     * never lookup(), so sweeps do not perturb replacement state.
     */
    void audit(AuditSink &sink, const TranslateOracle &oracle) const;

  private:
    /**
     * Entries live in struct-of-arrays form: one packed 8-byte key
     * per way — `(vpn << 2) | sizeSlot` — plus a parallel LRU-stamp
     * array. The lookup scan is then a branch-light equality sweep
     * over contiguous 8-byte keys (one line for a 4-way set) instead
     * of a 24-byte struct walk with a validity branch per way. An
     * invalid way holds `kInvalidKey`, which no real (vpn, size) can
     * produce, and keeps `lastUse_ == 0` — strictly below any valid
     * stamp (the clock pre-increments) — so victim selection is a
     * first-minimum scan of lastUse_ that picks exactly what the
     * struct scan picked: first invalid way, else true LRU with ties
     * to the lowest way.
     */
    static constexpr std::uint64_t kInvalidKey = ~0ull;

    /**
     * Tag bit of a `frames_` word marking a linear entry; frames are
     * page-aligned, so bit 0 is free.
     */
    static constexpr Addr kLinear = 1;

    /** Index into per-size residency counters. */
    static constexpr std::size_t
    sizeSlot(PageSize size)
    {
        switch (size) {
          case PageSize::Size4K:
            return 0;
          case PageSize::Size2M:
            return 1;
          case PageSize::Size1G:
            return 2;
        }
        return 0;  // unreachable
    }

    /** Packed scan key for the page of `size` containing vpn. */
    static std::uint64_t
    keyOf(Vpn vpn, PageSize size)
    {
        return (static_cast<std::uint64_t>(vpn) << 2) | sizeSlot(size);
    }

    /** Set index for a VPN (same set array for all sizes). */
    std::size_t setIndex(Vpn vpn) const { return vpn & (numSets_ - 1); }

    /** Scan one set for a packed key; returns way or -1. */
    int findIn(std::size_t set, std::uint64_t key) const;

    /**
     * Way-count-specialized bodies behind findIn()/insert()/fill():
     * with a compile-time trip count (kAssoc == 0 falls back to the
     * runtime bound) the key sweep and the victim scan unroll and
     * vectorize. kSearch selects insert()'s search for an existing
     * entry; fill() skips it.
     */
    template <int kAssoc>
    int findInTpl(std::size_t set, std::uint64_t key) const;
    template <int kAssoc, bool kSearch>
    void insertTpl(Addr va, PageSize size, Addr frame);
    /** insert() (kSearch) or fill(): the associativity dispatch. */
    template <bool kSearch>
    void install(Addr va, PageSize size, Addr pa, bool linear);

    TlbConfig config_;
    std::size_t numSets_;
    std::vector<std::uint64_t> keys_;     //!< packed, set-major
    std::vector<std::uint64_t> lastUse_;  //!< LRU stamps, same layout
    /**
     * Physical base of each entry's page, or'd with kLinear when the
     * entry is linear (same layout). Unused for non-linear entries.
     */
    std::vector<Addr> frames_;
    /**
     * Valid entries per page size. lookup()/probe()/invalidate()
     * skip the set scan for any size with zero residents, so a
     * 4 KB-only workload pays for exactly one probe per access.
     */
    std::array<std::uint32_t, 3> sizeCount_{};
    std::uint64_t tick_ = 0;
    Counter hits_ = 0;
    Counter misses_ = 0;
};

template <int kAssoc>
int
Tlb::findInTpl(std::size_t set, std::uint64_t key) const
{
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    const std::size_t base = set * assoc;
    // Sweep the contiguous packed keys: invalid ways hold the
    // unmatchable sentinel, and duplicate (vpn, size) pairs are
    // impossible (audited), so the last match is the only match.
    return lastEqualIndex(&keys_[base], assoc, key);
}

inline int
Tlb::findIn(std::size_t set, std::uint64_t key) const
{
    // One predictable jump buys a compile-time scan bound; the
    // default arm keeps arbitrary geometries working.
    switch (config_.associativity) {
      case 4:
        return findInTpl<4>(set, key);
      case 8:
        return findInTpl<8>(set, key);
      case 12:
        return findInTpl<12>(set, key);
      case 16:
        return findInTpl<16>(set, key);
      default:
        return findInTpl<0>(set, key);
    }
}

inline std::optional<Tlb::Hit>
Tlb::lookup(Addr va)
{
    ++tick_;
    for (PageSize size :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeCount_[sizeSlot(size)] == 0)
            continue;  // no entries at this size anywhere
        const Vpn vpn = va >> pageShiftOf(size);
        const std::size_t set = setIndex(vpn);
        const int way = findIn(set, keyOf(vpn, size));
        if (way >= 0) {
            const std::size_t idx = set * config_.associativity + way;
            lastUse_[idx] = tick_;
            ++hits_;
            const Addr frame = frames_[idx];
            return Hit{size, (frame & kLinear) != 0,
                       (frame & ~kLinear) |
                           (va & (pageBytesOf(size) - 1))};
        }
    }
    ++misses_;
    return std::nullopt;
}

template <int kAssoc, bool kSearch>
void
Tlb::insertTpl(Addr va, PageSize size, Addr frame)
{
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    ++tick_;
    const Vpn vpn = va >> pageShiftOf(size);
    const std::size_t set = setIndex(vpn);
    const std::size_t base = set * assoc;
    if constexpr (kSearch) {
        if (const int way = findInTpl<kAssoc>(set, keyOf(vpn, size));
            way >= 0) {
            lastUse_[base + way] = tick_;
            frames_[base + way] = frame;
            return;
        }
    }
    // First-minimum scan of the stamps: invalid ways sit at 0, below
    // every valid stamp, so this picks the first invalid way if one
    // exists and the true LRU way otherwise.
    const std::size_t victim =
        base + static_cast<std::size_t>(
                   firstMinIndex(&lastUse_[base], assoc));
    if (keys_[victim] != kInvalidKey)
        --sizeCount_[keys_[victim] & 3];
    ++sizeCount_[sizeSlot(size)];
    keys_[victim] = keyOf(vpn, size);
    lastUse_[victim] = tick_;
    frames_[victim] = frame;
}

template <bool kSearch>
void
Tlb::install(Addr va, PageSize size, Addr pa, bool linear)
{
    const Addr frame =
        linear ? pageAlignDown(pa, size) | kLinear : Addr{0};
    switch (config_.associativity) {
      case 4:
        return insertTpl<4, kSearch>(va, size, frame);
      case 8:
        return insertTpl<8, kSearch>(va, size, frame);
      case 12:
        return insertTpl<12, kSearch>(va, size, frame);
      case 16:
        return insertTpl<16, kSearch>(va, size, frame);
      default:
        return insertTpl<0, kSearch>(va, size, frame);
    }
}

inline void
Tlb::insert(Addr va, PageSize size, Addr pa, bool linear)
{
    install<true>(va, size, pa, linear);
}

inline void
Tlb::fill(Addr va, PageSize size, Addr pa, bool linear)
{
    install<false>(va, size, pa, linear);
}

/**
 * The three-TLB structure of Table 3: L1I, L1D, shared L2 STLB.
 * Only the data path is exercised by the translation simulator.
 */
class TlbHierarchy
{
  public:
    /** Which level served a lookup. */
    enum class Result
    {
        L1Hit,
        L2Hit,
        Miss,
    };

    /** What one data-side lookup found. */
    struct Lookup
    {
        Result level = Result::Miss;
        PageSize size = PageSize::Size4K;  //!< the hit entry's size
        /** The hit entry is linear, so `pa` is the VA's translation. */
        bool linear = false;
        Addr pa = 0;
    };

    TlbHierarchy();
    TlbHierarchy(const TlbConfig &l1d, const TlbConfig &l1i,
                 const TlbConfig &stlb);

    /**
     * Probe L1D then the STLB. An STLB hit refills the L1D with the
     * entry's size and translation (a search-free Tlb::fill: the L1D
     * lookup just missed).
     */
    Lookup lookupData(Addr va);

    /**
     * Install a completed walk into L1D and STLB: the page of `size`
     * containing va, translated to `pa`, carried for the whole entry
     * only when `linear` (WalkRecord::linear()).
     */
    void insertData(Addr va, PageSize size, Addr pa, bool linear);

    /**
     * insertData() right after lookupData(va) missed at both levels,
     * with no TLB change in between (the simulator's walk-and-fill):
     * Tlb::fill() at each level, so neither searches its set again.
     * Leaves the TLBs exactly as insertData() would.
     */
    void fillData(Addr va, PageSize size, Addr pa, bool linear);

    /** Flush all levels. */
    void flush();

    /**
     * Register one audit hook covering all three TLBs. The oracle
     * (may be null for structure-only audits) supplies ground truth
     * for staleness checks; the auditor must outlive this hierarchy.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       Tlb::TranslateOracle oracle,
                       const std::string &name = "tlb");

    ~TlbHierarchy();

    Tlb &l1d() { return l1d_; }
    Tlb &l1i() { return l1i_; }
    Tlb &stlb() { return stlb_; }
    const Tlb &l1d() const { return l1d_; }
    const Tlb &stlb() const { return stlb_; }

  private:
    Tlb l1d_;
    Tlb l1i_;
    Tlb stlb_;
    Tlb::TranslateOracle oracle_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

inline TlbHierarchy::Lookup
TlbHierarchy::lookupData(Addr va)
{
    if (const auto hit = l1d_.lookup(va))
        return {Result::L1Hit, hit->size, hit->linear, hit->pa};
    if (const auto hit = stlb_.lookup(va)) {
        l1d_.fill(va, hit->size, hit->pa, hit->linear);
        DMT_AUDIT_EVENT(auditor_);
        return {Result::L2Hit, hit->size, hit->linear, hit->pa};
    }
    return {};
}

inline void
TlbHierarchy::insertData(Addr va, PageSize size, Addr pa, bool linear)
{
    l1d_.insert(va, size, pa, linear);
    stlb_.insert(va, size, pa, linear);
    DMT_AUDIT_EVENT(auditor_);
}

inline void
TlbHierarchy::fillData(Addr va, PageSize size, Addr pa, bool linear)
{
    l1d_.fill(va, size, pa, linear);
    stlb_.fill(va, size, pa, linear);
    DMT_AUDIT_EVENT(auditor_);
}

} // namespace dmt

#endif // DMT_TLB_TLB_HH
