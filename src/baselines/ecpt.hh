/**
 * @file
 * Elastic Cuckoo Page Tables (Skarlatos et al., ASPLOS'20) and their
 * nested extension (Stojkovic et al., ASPLOS'22) — the strongest
 * hash-based comparison point in the paper.
 *
 * An ECPT is a d-ary cuckoo hash table per page size mapping VPN to
 * PTE. A translation probes all ways of all active size classes *in
 * parallel* (one dependent step), at the price of hash computation
 * and parallel lookup bandwidth; inserts displace entries cuckoo-
 * style and the table doubles ("elastic" full rehash) when insertion
 * fails. Nested ECPT takes three dependent steps, each with
 * multiplicative parallelism.
 *
 * Simplifications vs. the full papers (both favour ECPT): no cuckoo
 * walk caches are modelled, and only the size classes a workload
 * actually uses are probed.
 */

#ifndef DMT_BASELINES_ECPT_HH
#define DMT_BASELINES_ECPT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/memory.hh"
#include "mem/memory_hierarchy.hh"
#include "os/buddy_allocator.hh"
#include "sim/mechanism.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

/** Cycles charged for hash computation per probe step. */
constexpr Cycles ecptHashCycles = 2;

/** Cuckoo-walk-cache lookup cost per step. */
constexpr Cycles ecptCwcCycles = 1;

/** Fraction of steps where the CWC pinpoints way+size (a single
 *  probe); the rest issue the full parallel probe set. */
constexpr int ecptCwcHitPercent = 90;

/** One elastic cuckoo hash table for one page size class. */
class EcptWay;

/** The full ECPT of one address space. */
class EcptTable
{
  public:
    /**
     * @param mem memory the table entries live in
     * @param allocator frame source for the ways' arrays
     * @param sizes active page-size classes
     * @param ways cuckoo ways per size class (paper: 2)
     * @param initial_slots starting slots per way
     */
    EcptTable(Memory &mem, BuddyAllocator &allocator,
              std::vector<PageSize> sizes, int ways = 2,
              std::uint64_t initial_slots = 1024);

    ~EcptTable();

    EcptTable(const EcptTable &) = delete;
    EcptTable &operator=(const EcptTable &) = delete;

    /** Insert a translation (cuckoo insert; may trigger a resize). */
    void insert(Addr va, Pfn pfn, PageSize size);

    /** Functional lookup. */
    struct Hit
    {
        std::uint64_t pte;
        PageSize size;
        Addr entryAddr;
    };
    std::optional<Hit> find(Addr va) const;

    /** Most probes one lookup issues: 4 ways x 3 size classes. */
    static constexpr int maxProbes = 12;

    /**
     * All entry addresses a hardware probe of va touches, stored at
     * `out` (room for maxProbes).
     * @return their number
     */
    int probeAddrs(Addr va, Addr *out) const;

    Counter resizes() const { return resizes_; }
    Counter kicks() const { return kicks_; }

    /** Total frames backing the ways (memory overhead metric). */
    std::uint64_t framePages() const;

  private:
    struct Way
    {
        Pfn basePfn = 0;
        std::uint64_t slots = 0;
        std::uint64_t used = 0;
        std::uint64_t seed = 0;
        PageSize size = PageSize::Size4K;
    };

    /** 16-byte slots: [tag | valid] then [pte]. */
    static constexpr Addr slotBytes = 16;

    std::uint64_t hashOf(const Way &way, Vpn vpn) const;
    Addr slotAddr(const Way &way, std::uint64_t idx) const;
    /**
     * Cuckoo-insert; on failure `vpn`/`pte` hold the *pending*
     * (possibly displaced) entry the caller must re-insert.
     */
    bool tryInsert(Way *ways, int n_ways, Vpn &vpn,
                   std::uint64_t &pte, int max_kicks);
    void resize(PageSize size);
    std::vector<Way> &waysOf(PageSize size);
    const std::vector<Way> &waysOf(PageSize size) const;
    bool classEmpty(const std::vector<Way> &ws) const;
    void allocWay(Way &way, std::uint64_t slots);
    void freeWay(Way &way);

    Memory &mem_;
    BuddyAllocator &allocator_;
    std::vector<PageSize> sizes_;
    int numWays_;
    std::vector<Way> ways4k_, ways2m_, ways1g_;
    Counter resizes_ = 0;
    Counter kicks_ = 0;
};

/** Native ECPT translation: one parallel probe step. */
class EcptNativeWalker : public TranslationMechanism
{
  public:
    EcptNativeWalker(const EcptTable &table, MemoryHierarchy &caches);

    std::string name() const override { return "ECPT"; }
    WalkRecord walk(Addr va) override;
    Addr resolve(Addr va) override;

  private:
    const EcptTable &table_;
    MemoryHierarchy &caches_;
    Counter walkCount_ = 0;
};

/**
 * Nested ECPT for single-level virtualization: three dependent
 * steps — host-resolve the guest probe addresses, read the guest
 * entry, host-resolve the data page — each with way x size
 * parallelism (up to 81 parallel probes in the original design).
 */
class EcptVirtWalker : public TranslationMechanism
{
  public:
    /**
     * @param guest_table guest ECPT (entries at guest-physical addrs)
     * @param host_table host ECPT (gPA-as-host-VA -> hPA)
     * @param vm the virtualization level (for gPA -> hVA)
     */
    EcptVirtWalker(const EcptTable &guest_table,
                   const EcptTable &host_table, VirtualMachine &vm,
                   MemoryHierarchy &caches);

    std::string name() const override { return "ECPT"; }
    WalkRecord walk(Addr gva) override;
    Addr resolve(Addr gva) override;

  private:
    /** One host probe step. @return hPA of gpa. */
    Addr hostStep(Addr gpa, Cycles &latency, int &probes);

    /** True when the CWC misses and all ways must be probed. */
    bool fullProbe() const;

    const EcptTable &guestTable_;
    const EcptTable &hostTable_;
    VirtualMachine &vm_;
    MemoryHierarchy &caches_;
    Counter walkCount_ = 0;
};

} // namespace dmt

#endif // DMT_BASELINES_ECPT_HH
