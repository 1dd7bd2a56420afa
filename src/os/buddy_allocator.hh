/**
 * @file
 * Binary buddy physical-frame allocator with Linux-style extensions.
 *
 * This is the substrate under both the conventional page-table
 * allocator (scattered 4 KB table pages) and DMT's TEA allocator
 * (arbitrary-length contiguous runs via allocContig(), the analogue of
 * Linux's alloc_contig_pages()). It also provides:
 *
 *  - frame "kinds" (movable / unmovable / page-table), because only
 *    movable frames may be relocated by compaction;
 *  - a free-memory fragmentation index (FMFI) per order, matching the
 *    Linux extfrag index used by the paper's §6.3 experiment;
 *  - two-finger compaction with a relocation hook so page tables can
 *    be fixed up when data frames move.
 *
 * First fit (allocContig) and the in-place checks scan the per-frame
 * kinds only inside 512-frame chunks that a per-chunk free-frame
 * count says can hold an answer, so they never sweep used memory.
 */

#ifndef DMT_OS_BUDDY_ALLOCATOR_HH
#define DMT_OS_BUDDY_ALLOCATOR_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dmt
{

class AuditSink;
class InvariantAuditor;

/** What a physical frame is being used for. */
enum class FrameKind : std::uint8_t
{
    Free = 0,
    Movable,    //!< application data; compaction may relocate it
    Unmovable,  //!< kernel data; pinned
    PageTable,  //!< page-table or TEA page; pinned
};

/** A run of physically consecutive frames. */
struct FrameRun
{
    Pfn base = 0;
    std::uint64_t pages = 0;
};

/** Buddy allocator over a flat physical frame range [0, numFrames). */
class BuddyAllocator
{
  public:
    /** Called when compaction relocates a movable frame. */
    using RelocationHook = std::function<void(Pfn from, Pfn to)>;

    /**
     * @param num_frames number of 4 KB frames managed
     * @param max_order largest block order (default 18 = 1 GB blocks)
     */
    explicit BuddyAllocator(Pfn num_frames, int max_order = 18);

    ~BuddyAllocator();

    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    /**
     * Allocate a naturally aligned block of 2^order frames.
     * @return base frame number, or nullopt if no block is available.
     */
    std::optional<Pfn> allocPages(int order, FrameKind kind);

    /**
     * Allocate n single frames at once: exactly the frames, in the
     * same order, and the same free lists afterwards as n calls to
     * allocPages(0, kind). Each block taken (the smallest non-empty
     * order, lowest block first) is used from its base up; the tail
     * of a block left partly used goes back as the maximal aligned
     * blocks its splits would have left.
     *
     * @param out receives the n frames in allocation order; must have
     *        room for n
     * @return false, allocating nothing, if fewer than n frames are
     *         free
     */
    bool allocFrames(std::uint64_t n, FrameKind kind, Pfn *out);

    /** Free a block previously returned by allocPages(). */
    void freePages(Pfn base, int order);

    /**
     * Allocate an arbitrary-length run of physically contiguous frames
     * (first fit, low addresses first) — the alloc_contig_pages()
     * analogue used for TEAs.
     *
     * @return base frame of the run, or nullopt if no run exists.
     */
    std::optional<Pfn> allocContig(std::uint64_t n_pages, FrameKind kind);

    /** Free a run previously returned by allocContig(). */
    void freeContig(Pfn base, std::uint64_t n_pages);

    /**
     * Free a set of owned frames given as runs in any order, as a
     * dying owner does: sorts the runs, merges touching ones and
     * frees each merged run with one freeContig(), double-free check
     * included. Panics if two runs overlap. Maximal coalescing leaves
     * the same free lists as freeing every frame on its own. No
     * interval sweep sees the set half freed.
     */
    void freeRuns(std::vector<FrameRun> runs);

    /**
     * Try to grow an existing contiguous allocation in place by
     * claiming the frames immediately after it.
     * @return true on success (the frames are now owned by the caller).
     */
    bool expandInPlace(Pfn base, std::uint64_t cur_pages,
                       std::uint64_t extra_pages, FrameKind kind);

    /**
     * Shrink a contiguous allocation in place, releasing its tail.
     */
    void shrinkInPlace(Pfn base, std::uint64_t cur_pages,
                       std::uint64_t new_pages);

    /**
     * Run two-finger compaction: migrate movable frames from high
     * addresses into free space at low addresses, invoking the
     * relocation hook for each move.
     *
     * @param max_moves bound on relocations (0 = unlimited)
     * @return the number of frames relocated
     */
    std::uint64_t compact(std::uint64_t max_moves = 0);

    /** Register the hook compaction uses to fix up mappings. */
    void setRelocationHook(RelocationHook hook);

    /**
     * Linux-style fragmentation index for a given order in [0, 1]:
     * ~0 when the requested order is easily satisfied, ~1 when free
     * memory exists only as fragments smaller than the request.
     * @return -1 if the request could be satisfied outright.
     */
    double fragmentationIndex(int order) const;

    Pfn numFrames() const { return numFrames_; }
    std::uint64_t freeFrames() const { return freeFrames_; }
    int maxOrder() const { return maxOrder_; }

    /** @return the kind of a frame. */
    FrameKind kindOf(Pfn pfn) const;

    /** @return true if the frame is free. */
    bool isFree(Pfn pfn) const;

    /** @return number of free blocks at exactly the given order. */
    std::size_t freeBlocksAt(int order) const;

    /** Verify internal invariants; panics on corruption (for tests). */
    void checkConsistency() const;

    /**
     * Audit-layer entry point: report (rather than panic on) every
     * broken free-list or accounting invariant — misaligned,
     * overlapping, or out-of-range free blocks; uncoalesced buddies;
     * frames marked free but absent from every free list (the
     * signature of a double free); accounted frames not summing to
     * the configured physical size; and a chunk whose free-frame
     * count disagrees with its frames' kinds.
     */
    void audit(AuditSink &sink) const;

    /**
     * Register this allocator's audit hook and start ticking mutation
     * events. The auditor must outlive this allocator.
     * @param name hook name (distinguishes multiple allocators)
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "buddy");

  private:
    /** Remove a specific free block from the free structures. */
    void removeFreeBlock(Pfn base, int order);

    /** Insert a free block, coalescing with buddies where possible. */
    void insertFreeBlock(Pfn base, int order);

    /** Add an arbitrary frame range back as maximal aligned blocks. */
    void freeFrameRange(Pfn base, std::uint64_t n);

    /**
     * Find the free block containing pfn.
     * @return {base, order}; panics if the frame is not free.
     */
    std::pair<Pfn, int> findFreeBlockContaining(Pfn pfn) const;

    /**
     * Claim every frame of [start, end) out of the free structures.
     * All frames must currently be free.
     */
    void claimRange(Pfn start, Pfn end, FrameKind kind);

    /**
     * Mark the frames of a range that is uniformly free and becomes
     * used (kind != Free), or is uniformly used and becomes free
     * (kind == Free): every caller flips one of the two ways, so the
     * chunk counts move by the range's overlap with each chunk.
     */
    void setKind(Pfn base, std::uint64_t n, FrameKind kind);

    /** @return the first free frame in [from, to), or `to`. */
    Pfn firstFree(Pfn from, Pfn to) const;

    /** @return the first allocated frame in [from, to), or `to`. */
    Pfn firstUsed(Pfn from, Pfn to) const;

    /** Frames per chunk of the free-frame summary (log2). */
    static constexpr int chunkShift = 9;
    static constexpr Pfn chunkMask = (Pfn{1} << chunkShift) - 1;

    /** @return the frames of chunk c (fewer in a ragged last one). */
    std::uint64_t
    chunkFrames(std::size_t c) const
    {
        return std::min<std::uint64_t>(
            chunkMask + 1, numFrames_ - (Pfn{c} << chunkShift));
    }

    Pfn numFrames_;
    int maxOrder_;
    std::uint64_t freeFrames_ = 0;
    std::vector<std::set<Pfn>> freeLists_;  //!< per order, base-sorted
    std::vector<FrameKind> kinds_;          //!< per frame
    std::vector<std::uint16_t> chunkFree_;  //!< free frames per chunk
    RelocationHook relocHook_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;

    /** Corruption-injection backdoor for tests/test_audit.cc. */
    friend class AuditCorruptor;
};

} // namespace dmt

#endif // DMT_OS_BUDDY_ALLOCATOR_HH
