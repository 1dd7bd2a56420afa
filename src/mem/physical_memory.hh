/**
 * @file
 * Sparse simulated physical memory, frame-granular.
 *
 * Backing store for page tables, TEAs, and any other structure whose
 * *content* the simulator must read back (the page walkers really read
 * PTE values from here). Data pages do not need content, so the store
 * only accounts 4 KB frames that were written.
 *
 * Storage is a frame directory over the process-wide FramePool: each
 * simulated 4 KB frame maps to a pool slot, and an unmaterialised
 * frame maps to the pool's zero slot, so its words read as zero and
 * read64 stays two loads (directory entry, then word) with no
 * materialisation branch on the walkers' per-PTE path. The directory
 * is a demand-backed anonymous mapping (4 bytes per simulated frame,
 * nothing zeroed up front); host memory otherwise follows the
 * materialised frames, and the slots go back to the pool, zeroed,
 * when a frame is dropped for good or the memory is destroyed.
 */

#ifndef DMT_MEM_PHYSICAL_MEMORY_HH
#define DMT_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/frame_pool.hh"
#include "mem/memory.hh"

namespace dmt
{

/** Word-addressable sparse physical memory. */
class PhysicalMemory : public Memory
{
  public:
    /**
     * @param size_bytes total physical memory capacity; accesses beyond
     *        it panic (they indicate a simulator bug, e.g. a walker
     *        chasing a garbage pointer).
     */
    explicit PhysicalMemory(Addr size_bytes);
    ~PhysicalMemory() override;

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    /** Read an aligned 64-bit word; unwritten words read as zero. */
    std::uint64_t
    read64(Addr pa) const override
    {
        checkAccess(pa);
        return *wordAt(pa);
    }

    /** The directory and the pool double as a zero-copy window. */
    ReadWindow
    readWindow() const override
    {
        return {dir_, pool_.words(), size_};
    }

    /** Write an aligned 64-bit word. */
    void write64(Addr pa, std::uint64_t value) override;

    /** Copy n words out, a frame at a time. */
    void readWords(Addr pa, std::uint64_t *out,
                   std::size_t n) const override;

    /**
     * write64() of each word, accounted a frame at a time: a frame
     * that only receives zeros while unmaterialised stays so.
     */
    void writeWords(Addr pa, const std::uint64_t *in,
                    std::size_t n) override;

    /**
     * Zero-fill a byte range (e.g. a freshly allocated table page).
     * Unlike writing zeros, a whole frame zeroed here is dropped: it
     * no longer counts as materialised.
     */
    void zeroRange(Addr pa, Addr bytes) override;

    /**
     * Move `bytes` bytes from src to dst (used by TEA migration).
     * Ranges must not overlap.
     */
    void copyRange(Addr dst, Addr src, Addr bytes) override;

    Addr size() const { return size_; }

    /** @return true if pa is a valid address in this memory. */
    bool contains(Addr pa) const { return pa < size_; }

    /**
     * @return the number of materialised *nonzero* words. Writing
     *         zero (to a fresh or an existing word) never inflates
     *         this count; it is the simulated-content footprint, not
     *         the allocation footprint.
     */
    std::size_t wordsInUse() const { return nonzeroWords_; }

    /** @return the number of materialised 4 KB frames. */
    std::size_t framesInUse() const { return framesInUse_; }

  private:
    /// Frame geometry: 4 KB frames of 512 words.
    static constexpr int frameShift = 12;
    static constexpr Addr frameBytes = Addr{1} << frameShift;
    static constexpr Addr frameMask = frameBytes - 1;
    static_assert(frameShift == pageShift &&
                      frameBytes / 8 == FramePool::frameWords,
                  "a frame is one pool slot and one ReadWindow page");

    using Slot = FramePool::Slot;

    void checkAccess(Addr pa) const;
    void checkRange(Addr pa, Addr bytes, const char *what) const;

    /** @return the word at in-range pa (the zero slot if unbacked). */
    std::uint64_t *
    wordAt(Addr pa) const
    {
        return pool_.frame(dir_[pa >> frameShift]) +
               ((pa & frameMask) >> 3);
    }

    /** Back a frame with a zero slot; @return the slot. */
    Slot materialise(std::size_t frame);

    /** Zero a word-aligned span that lies within a single frame. */
    void zeroWithinFrame(Addr pa, Addr bytes);

    /** Drop a whole frame back to the unmaterialised (zero) state. */
    void dropFrame(Addr frame);

    Addr size_;
    FramePool &pool_;
    /**
     * Frame directory: simulated frame number -> pool slot, with
     * FramePool::zeroSlot for a frame that is not materialised (no
     * nonzero value written since it was created or last dropped).
     */
    Slot *dir_ = nullptr;
    std::size_t dirBytes_ = 0;
    /** Every slot taken from the pool: the destructor gives these. */
    std::vector<Slot> slots_;
    /** Slots of dropped frames, zero, taken before the pool's. */
    std::vector<Slot> spare_;
    std::size_t nonzeroWords_ = 0;
    std::size_t framesInUse_ = 0;
};

} // namespace dmt

#endif // DMT_MEM_PHYSICAL_MEMORY_HH
