/**
 * @file
 * x86-64 radix page table, materialised in simulated physical memory.
 *
 * Supports 4-level (default) and 5-level trees, 4 KB / 2 MB / 1 GB
 * leaf pages, huge-page promotion/demotion, and — crucially for DMT —
 * a pluggable TableFrameProvider that lets the OS decide *where* leaf
 * page-table pages live in physical memory. DMT's TEA manager
 * implements the provider so last-level PTEs land inside contiguous
 * TEAs; there is never a second copy of any PTE.
 *
 * Level numbering follows the paper's Figure 1: level 4 is the root
 * (PML4), level 1 holds 4 KB leaf PTEs. 2 MB leaves live at level 2,
 * 1 GB leaves at level 3.
 */

#ifndef DMT_PT_RADIX_PAGE_TABLE_HH
#define DMT_PT_RADIX_PAGE_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "mem/memory.hh"
#include "os/buddy_allocator.hh"
#include "pt/pte.hh"

namespace dmt
{

class AuditSink;
class InvariantAuditor;

/**
 * Policy hook controlling physical placement of page-table pages.
 *
 * When the OS maps a page whose covering table page at `level` does
 * not exist yet, the radix table asks the provider for a frame. A
 * nullopt reply falls back to scattered buddy allocation — exactly the
 * vanilla-Linux behaviour.
 */
class TableFrameProvider
{
  public:
    virtual ~TableFrameProvider() = default;

    /**
     * @param level radix level of the table page (1 = 4 KB-leaf PT)
     * @param span_base VA of the start of the region the table covers
     * @return a frame to use, or nullopt for default allocation
     */
    virtual std::optional<Pfn> provideTableFrame(int level,
                                                 Addr span_base) = 0;

    /** Notification that a provided table frame was released. */
    virtual void releaseTableFrame(int level, Addr span_base,
                                   Pfn pfn) = 0;
};

/** Result of a successful translation. */
struct Translation
{
    Pfn pfn;            //!< frame of the (huge) page
    PageSize size;      //!< leaf page size
    Addr pa;            //!< full physical address of the byte
};

/** One step of a page walk: which PTE was read, at which level. */
struct WalkStep
{
    int level;          //!< 4 (or 5) down to leaf level
    Addr pteAddr;       //!< physical address of the PTE
    std::uint64_t pte;  //!< its value
};

/**
 * Fixed-capacity sequence of walk steps. A radix walk touches at
 * most one PTE per level (5 with LA57), so the path lives entirely
 * on the caller's stack — walkPath() is called once per TLB miss on
 * every simulated design and must not allocate. Only the steps
 * pushed are ever read, so the rest are left uninitialised: zeroing
 * them would cost a 128-byte store per walk, five per 2-D walk.
 */
class WalkPath
{
  public:
    static constexpr std::size_t capacity = 5;

    void
    push_back(const WalkStep &step)
    {
        DMT_ASSERT(count_ < capacity, "walk path overflow");
        steps_[count_++] = step;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    const WalkStep &operator[](std::size_t i) const
    {
        return steps_[i];
    }
    const WalkStep &back() const { return steps_[count_ - 1]; }

    const WalkStep *begin() const { return steps_.data(); }
    const WalkStep *end() const { return steps_.data() + count_; }

  private:
    std::array<WalkStep, capacity> steps_;
    std::size_t count_ = 0;
};

/** x86-64 radix page table. */
class RadixPageTable
{
  public:
    /**
     * @param mem backing physical memory for the entries
     * @param allocator frame source for table pages
     * @param levels 4 or 5
     */
    RadixPageTable(Memory &mem, BuddyAllocator &allocator,
                   int levels = 4);

    ~RadixPageTable();

    RadixPageTable(const RadixPageTable &) = delete;
    RadixPageTable &operator=(const RadixPageTable &) = delete;

    /** Set (or clear, with nullptr) the table placement policy. */
    void setFrameProvider(TableFrameProvider *provider);

    /**
     * Map a virtual page to a physical frame.
     * @param va page-aligned (to `size`) virtual address
     * @param pfn frame number (in units of 4 KB frames)
     * @param size leaf size
     */
    void map(Addr va, Pfn pfn, PageSize size = PageSize::Size4K);

    /**
     * Data-frame source for mapSpan4K(): stores n frames at `out`,
     * the same frames n single-frame allocations would return.
     */
    using DrawFrames = std::function<void(std::uint64_t n, Pfn *out)>;

    /**
     * Map every unmapped 4 KB page of [va, end) to a frame from
     * draw_frames, in ascending VA order. The range must be page
     * aligned and lie inside one leaf-table span (2 MB).
     *
     * Leaf for leaf this is `if (!translate(p)) map(p, frame)` for
     * every page p with frames drawn one at a time: the same leaves,
     * one leafEpoch() bump and audit event per new leaf, and the same
     * allocation order (the first data frame before any table page
     * the span still lacks). It walks root to leaf once per span,
     * draws the span's frames in at most two calls and writes each
     * run of new leaves with one writeWords(). A leaf table it links
     * gets its first leaf before the second draw, so no audit tick
     * sees it empty. A huge leaf covering the span already maps all
     * of it.
     *
     * @return the number of leaves mapped
     */
    std::uint64_t mapSpan4K(Addr va, Addr end,
                            const DrawFrames &draw_frames);

    /**
     * @return true if no leaf maps any byte of va's 2 MB span: the
     *         pmd_none() test a huge-page fault makes before mapping
     *         a huge page there.
     */
    bool spanEmpty(Addr va) const { return leafTableOf(va) == noTable; }

    /** One table page's entries. */
    using TableWords = std::array<std::uint64_t, ptesPerPage>;

    /**
     * The entries of the 4 KB-leaf table covering va's 2 MB span,
     * read with one walk and at most one readWords(): a pointer into
     * the read window when it covers the page, else `buf`. Valid
     * until the page is next written.
     * @return nullptr if no leaf table covers the span: nothing maps
     *         it, or one huge leaf maps all of it.
     */
    const std::uint64_t *leafTableEntries(Addr va, TableWords &buf) const;

    /** Unmap the page containing va; no-op if not mapped. */
    void unmap(Addr va);

    /** @return the translation for va, if mapped. */
    std::optional<Translation> translate(Addr va) const;

    /**
     * Record the PTE physical addresses a hardware walker would touch
     * translating va, root first.
     *
     * The walk stops early at a huge-page leaf or at a non-present
     * entry (the last step reports the terminating entry). Returned
     * by value in a fixed-capacity WalkPath — no heap allocation on
     * the per-TLB-miss path.
     */
    WalkPath
    walkPath(Addr va) const
    {
        return walkPathFrom(va, levels_, rootPfn_);
    }

    /**
     * walkPath() resumed below the root, as a hardware walker resumes
     * at the table pointer its page walk cache holds: the steps from
     * va's entry in the level-`level` table at frame `table_pfn` down
     * to the leaf, with the same early stops. The walkers start here
     * so they read only the PTEs they charge; the frame must be the
     * one the tree holds at that level (a coherent PWC entry).
     */
    WalkPath walkPathFrom(Addr va, int level, Pfn table_pfn) const;

    /**
     * Read an aligned word of the memory this table lives in, through
     * its read window. The 2-D walker reads each guest PTE this way,
     * at the host-physical address it charges for it, instead of
     * through the guest's translated view.
     */
    std::uint64_t readWord(Addr pa) const { return win_.read(mem_, pa); }

    /**
     * Physical address of the *leaf* PTE for va, without walking —
     * what the DMT fetcher computes from a VMA-to-TEA mapping. Used by
     * tests to validate fetcher arithmetic against the real tree.
     * @return nullopt if the covering leaf table does not exist.
     */
    std::optional<Addr> leafPteAddr(Addr va, PageSize size) const;

    /**
     * Promote 512 4 KB mappings to one 2 MB mapping (THP collapse).
     * All 512 PTEs must be present and physically contiguous.
     * @return true on success.
     */
    bool promote2M(Addr va);

    /** Demote a 2 MB mapping back to 512 4 KB PTEs. */
    bool demote2M(Addr va);

    /**
     * Rewrite the frame number of an existing leaf mapping in place
     * (compaction support). Page size must match the existing leaf.
     */
    void updateLeaf(Addr va, Pfn new_pfn);

    /**
     * Re-point the 4 KB leaves of [va, end) at first_pfn,
     * first_pfn + 1, ...: leaf for leaf what updateLeaf() on each page
     * in ascending order does, one leafEpoch() bump and audit event
     * per leaf included, with one walk, one readWords() and one
     * writeWords() of the range's slots. The range must be page
     * aligned, lie inside one leaf-table span (2 MB) and be mapped
     * by 4 KB leaves throughout.
     *
     * @param displaced receives each leaf's previous frame, in order;
     *        must have room for the range's pages
     */
    void updateLeafSpan(Addr va, Addr end, Pfn first_pfn,
                        Pfn *displaced);

    /**
     * Move the leaf table page covering va to a new frame (TEA
     * migration support). Copies entries and repoints the parent.
     */
    void relocateLeafTable(Addr va, int level, Pfn new_pfn);

    /**
     * Move the leaf table page covering va to a freshly allocated
     * scattered frame (used when a TEA is torn down while mappings
     * are still live).
     */
    void relocateLeafTableToScattered(Addr va, int level);

    /**
     * Visit every leaf mapping in ascending VA order, calling
     * fn(va, pfn, size) with the leaf's base VA. One pass over the
     * tree instead of a translate() per 4 KB page; the callback must
     * not modify this table. VAs are rebuilt from the radix indices
     * (no sign extension), exactly the bits map() consumed.
     */
    template <typename Fn>
    void
    forEachLeaf(Fn &&fn) const
    {
        visitLeaves(rootPfn_, levels_, 0, fn);
    }

    /**
     * Count of leaf-mapping changes so far: map(), unmap(),
     * updateLeaf(), promote2M() and demote2M() each bump it. Anything
     * that memoizes this table's translations is exact while the
     * epoch it recorded is still current. Moving a table page
     * (relocateLeafTable*) changes no translation and keeps it.
     */
    std::uint64_t leafEpoch() const { return leafEpoch_; }

    /** @return frame of the table at `level` on va's path, if any. */
    std::optional<Pfn> tableFrameAt(Addr va, int level) const;

    /** @return root table physical address (the CR3 value). */
    Addr rootPa() const { return rootPfn_ << pageShift; }

    int levels() const { return levels_; }

    /**
     * Tear the tree down for an owner that frees its frames in bulk.
     * Every table page is zeroed and counted out of tablePages(), as
     * unmap() pruning would; one the frame provider owns goes back to
     * the provider, and every other one is appended to `out` as a
     * one-frame run for the caller to free, e.g. with the owner's own
     * frames in one BuddyAllocator::freeRuns(). Read the leaves
     * first: afterwards the table is dead, and only its destructor,
     * which then frees nothing, may be called.
     */
    void releaseTables(std::vector<FrameRun> &out);

    /** Number of table pages currently allocated (all levels). */
    std::uint64_t tablePages() const { return tablePages_; }

    /** Bytes of physical memory consumed by table pages. */
    std::uint64_t tableBytes() const { return tablePages_ * pageSize; }

    /** Count of currently mapped leaf pages (any size). */
    std::uint64_t mappedLeaves() const { return mappedLeaves_; }

    /** @return radix index of va at the given level. */
    static int
    indexAt(Addr va, int level)
    {
        const int shift = pageShift + 9 * (level - 1);
        return static_cast<int>((va >> shift) & 0x1ff);
    }

    /** @return leaf level for a page size (1, 2, or 3); the inverse
     *  of leafSizeAt(). */
    static int
    leafLevel(PageSize size)
    {
        switch (size) {
          case PageSize::Size4K: return 1;
          case PageSize::Size2M: return 2;
          case PageSize::Size1G: return 3;
        }
        return 1;
    }

    /** @return base of the VA span covered by a table at `level`. */
    static Addr spanBase(Addr va, int level);

    /** @return bytes of VA covered by one table page at `level`. */
    static Addr spanBytes(int level);

    /**
     * Audit-layer entry point: re-derive the tree's shape by a full
     * recursive traversal and report every structural invariant that
     * no longer holds — table frames not marked FrameKind::PageTable,
     * frames referenced twice, huge leaves at impossible levels or
     * with misaligned frames, unpruned empty tables, provider-owned
     * frames that vanished from the tree, and traversal counts that
     * disagree with the tablePages()/mappedLeaves() accounting.
     */
    void audit(AuditSink &sink) const;

    /**
     * Register this table's audit hook and start ticking mutation
     * events. The auditor must outlive this table.
     * @param name hook name (distinguishes guest/host/native tables)
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "radix-pt");

  private:
    /** Allocate a zeroed table page for `level` covering span_base. */
    Pfn allocTable(int level, Addr span_base);

    /** Release a table page (notifying the provider if it owns it). */
    void freeTable(int level, Addr span_base, Pfn pfn);

    /**
     * Zero a table page the tree no longer references and count it
     * out; hand it back if the provider owns it.
     * @return true if the frame is the allocator's to free
     */
    bool retireTable(int level, Addr span_base, Pfn pfn);

    /** @return PA of the entry slot for va within a table page. */
    static Addr
    entrySlot(Pfn table_pfn, Addr va, int level)
    {
        return (table_pfn << pageShift) +
               static_cast<Addr>(indexAt(va, level)) * pteSize;
    }

    /**
     * Walk to the table at target_level for va, allocating missing
     * intermediate tables when `create` is set.
     * @return the table frame, or nullopt.
     */
    std::optional<Pfn> tableFor(Addr va, int target_level,
                                bool create);

    /**
     * Read-only walk to the table at target_level for va.
     * @return nullopt if any intermediate entry is absent or a huge
     *         leaf terminates the path early.
     */
    std::optional<Pfn> findTable(Addr va, int target_level) const;

    /** leafTableOf() replies that are never frame numbers. */
    static constexpr Pfn noTable = ~Pfn{0};
    static constexpr Pfn hugeLeaf = ~Pfn{0} - 1;

    /**
     * Read-only walk to the 4 KB-leaf table covering va.
     * @return its frame; noTable if it does not exist yet; hugeLeaf
     *         if a huge leaf maps va's whole span instead.
     */
    Pfn leafTableOf(Addr va) const;

    /**
     * Write a new leaf PTE into an empty slot and account for it:
     * panics if the slot is taken, then bumps mappedLeaves(), the
     * leaf epoch and the audit event counter.
     */
    void setLeaf(Addr slot, Addr va, Pfn pfn, int level);

    /**
     * Write n new 4 KB leaves into the empty slots first..first+n-1
     * of a leaf table with one writeWords(), then account for each
     * as setLeaf() does (the counters first, so a sweep at any of
     * the n audit ticks sees them agree with the tree).
     */
    void setLeafRun(Pfn table_pfn, int first, const Pfn *pfns, int n);

    /**
     * @return the entries of a table page: a pointer into the read
     *         window when it covers the page, else `buf` filled by one
     *         readWords(). Valid until the page is next written.
     */
    const std::uint64_t *
    tableEntries(Pfn table_pfn, TableWords &buf) const
    {
        const Addr pa = table_pfn << pageShift;
        if (const std::uint64_t *entries = win_.page(pa))
            return entries;
        mem_.readWords(pa, buf.data(), buf.size());
        return buf.data();
    }

    /** @return true if a table page holds no present entries. */
    bool tableEmpty(Pfn table_pfn) const;

    /** Post-order traversal behind releaseTables(). */
    void releaseSubtree(Pfn table_pfn, int level, Addr span_base,
                        std::vector<FrameRun> &out);

    /** Recursive traversal behind audit(). */
    void auditSubtree(Pfn table_pfn, int level, AuditSink &sink,
                      std::unordered_map<Pfn, int> &seen,
                      std::uint64_t &tables,
                      std::uint64_t &leaves) const;

    /** Free empty tables on the path to va, bottom-up. */
    void pruneEmptyTables(Addr va);

    /** @return the page size of a leaf found at `level`. */
    static PageSize
    leafSizeAt(int level)
    {
        return level == 1   ? PageSize::Size4K
               : level == 2 ? PageSize::Size2M
                            : PageSize::Size1G;
    }

    /** Recursive traversal behind forEachLeaf(). */
    template <typename Fn>
    void
    visitLeaves(Pfn table_pfn, int level, Addr span_base, Fn &fn) const
    {
        TableWords buf{};
        const std::uint64_t *entries = tableEntries(table_pfn, buf);
        const int entryShift = pageShift + 9 * (level - 1);
        for (int i = 0; i < ptesPerPage; ++i) {
            const std::uint64_t pte = entries[i];
            if (!pteIsPresent(pte))
                continue;
            const Addr va =
                span_base + (static_cast<Addr>(i) << entryShift);
            if (level == 1 || pteIsHuge(pte))
                fn(va, ptePfn(pte), leafSizeAt(level));
            else
                visitLeaves(ptePfn(pte), level - 1, va, fn);
        }
    }

    Memory &mem_;
    /**
     * Cached zero-copy read window over mem_ (empty for translated
     * guest views). The per-TLB-miss PTE chases read through this —
     * one indexed load instead of a virtual read64() per level.
     */
    Memory::ReadWindow win_;
    BuddyAllocator &allocator_;
    TableFrameProvider *provider_ = nullptr;
    int levels_;
    Pfn rootPfn_;
    std::uint64_t tablePages_ = 0;
    std::uint64_t mappedLeaves_ = 0;
    std::uint64_t leafEpoch_ = 0;
    /** Table frames owned by the provider: pfn -> (level, spanBase). */
    std::unordered_map<Pfn, std::pair<int, Addr>> providerOwned_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

inline WalkPath
RadixPageTable::walkPathFrom(Addr va, int level, Pfn table_pfn) const
{
    WalkPath steps;
    Pfn cur = table_pfn;
    for (; level >= 1; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = win_.read(mem_, slot);
        steps.push_back({level, slot, pte});
        if (!pteIsPresent(pte) || (level == 1) || pteIsHuge(pte))
            break;
        cur = ptePfn(pte);
    }
    return steps;
}

} // namespace dmt

#endif // DMT_PT_RADIX_PAGE_TABLE_HH
