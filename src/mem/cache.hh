/**
 * @file
 * A functional set-associative cache with LRU replacement.
 *
 * This models hit/miss behaviour only; latency is charged by the
 * MemoryHierarchy based on which level hits. Used for L1D, L2, and the
 * shared LLC (Table 3 of the paper).
 */

#ifndef DMT_MEM_CACHE_HH
#define DMT_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dmt
{

class AuditSink;

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name;       //!< for stats/debugging
    Addr sizeBytes;         //!< total capacity
    int associativity;      //!< ways per set
    int lineBytes = 64;     //!< cache line size
    Cycles roundTrip = 0;   //!< access latency when this level hits
};

/**
 * Set-associative cache with true-LRU replacement.
 *
 * Each set is kept in recency order: way 0 holds the most recently
 * used line, and the valid lines are followed by the invalid ways. A
 * hit moves its line to way 0, a fill shifts the set down one way and
 * drops the last (the LRU line, or an invalid way while the set has
 * one), and invalidate() closes the gap it leaves. That is exactly
 * true LRU with fills into an invalid way first, with no per-way
 * stamps: the position is the age.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up a line; on hit, the line is promoted to MRU.
     * Defined inline below: every simulated access runs this several
     * times per hierarchy level, so the body must inline into the
     * MemoryHierarchy cascade rather than cost a cross-TU call.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Insert the line containing addr, evicting the LRU way. */
    void insert(Addr addr);

    /**
     * Fused access()-then-insert(): look up a line and, on miss, fill
     * it in the same set scan. Exactly equivalent to `access(addr)`
     * followed (on miss) by `insert(addr)` — same hit/miss counters
     * and set order — but with one scan instead of two. The
     * hierarchy uses this for every level that both probes and fills.
     * @return true on hit.
     */
    bool accessFill(Addr addr);

    /** Invalidate the line containing addr if present. */
    void invalidate(Addr addr);

    /** @return true if the line is resident (no LRU update). */
    bool probe(Addr addr) const;

    /** Drop all contents. */
    void flush();

    /**
     * Audit-layer entry point: report every resident line whose tag
     * does not index to the set it occupies, duplicate tags within a
     * set (phantom extra occupancy), and every valid way that follows
     * an invalid one (a broken recency order, which would let a fill
     * evict a live line while an invalid way is free).
     */
    void audit(AuditSink &sink) const;

    const CacheConfig &config() const { return config_; }
    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }

  private:
    friend class AuditCorruptor;

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /**
     * Hot-path bodies specialized on the way count: access()/
     * accessFill() dispatch to an instantiation whose scan and shift
     * loops have compile-time trip counts (kAssoc == 0 is the generic
     * runtime-bound fallback), so they unroll instead of looping on a
     * loaded bound.
     */
    template <int kAssoc> bool accessTpl(Addr addr);
    template <int kAssoc> bool accessFillTpl(Addr addr);

    /** Move the line in `way` to the front of `set`. */
    static void
    promote(Addr *set, int way)
    {
        const Addr tag = set[way];
        for (int w = way; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = tag;
    }

    CacheConfig config_;
    std::size_t numSets_;
    int lineShift_;
    /**
     * Set-major tags, each set in recency order (way 0 is MRU). A way
     * is invalid iff its tag is `invalidAddr` (real tags are
     * `addr >> lineShift_` and cannot reach it), and invalid ways
     * only ever trail the valid ones.
     */
    std::vector<Addr> tags_;
    Counter hits_ = 0;
    Counter misses_ = 0;
};

inline std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

inline Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

template <int kAssoc>
bool
Cache::accessTpl(Addr addr)
{
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    const Addr tag = tagOf(addr);
    Addr *set = &tags_[setIndex(addr) * assoc];
    // Recently used lines sit at the front, so a hit usually ends the
    // scan within a way or two. Invalid ways hold the unmatchable
    // sentinel, so no validity check.
    for (int w = 0; w < assoc; ++w) {
        if (set[w] == tag) {
            promote(set, w);
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

inline bool
Cache::access(Addr addr)
{
    // One predictable jump buys compile-time loop bounds; the
    // default arm keeps arbitrary geometries working.
    switch (config_.associativity) {
      case 4:
        return accessTpl<4>(addr);
      case 8:
        return accessTpl<8>(addr);
      case 11:
        return accessTpl<11>(addr);
      case 12:
        return accessTpl<12>(addr);
      case 16:
        return accessTpl<16>(addr);
      default:
        return accessTpl<0>(addr);
    }
}

template <int kAssoc>
bool
Cache::accessFillTpl(Addr addr)
{
    if (accessTpl<kAssoc>(addr))
        return true;
    // Miss: the new line becomes MRU and the last way (the LRU line,
    // or an invalid way while the set has one) drops off the end.
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    Addr *set = &tags_[setIndex(addr) * assoc];
    for (int w = assoc - 1; w > 0; --w)
        set[w] = set[w - 1];
    set[0] = tagOf(addr);
    return false;
}

inline bool
Cache::accessFill(Addr addr)
{
    switch (config_.associativity) {
      case 4:
        return accessFillTpl<4>(addr);
      case 8:
        return accessFillTpl<8>(addr);
      case 11:
        return accessFillTpl<11>(addr);
      case 12:
        return accessFillTpl<12>(addr);
      case 16:
        return accessFillTpl<16>(addr);
      default:
        return accessFillTpl<0>(addr);
    }
}

} // namespace dmt

#endif // DMT_MEM_CACHE_HH
