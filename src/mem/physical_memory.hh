/**
 * @file
 * Sparse simulated physical memory, frame-granular.
 *
 * Backing store for page tables, TEAs, and any other structure whose
 * *content* the simulator must read back (the page walkers really read
 * PTE values from here). Data pages do not need content, so the store
 * only accounts 4 KB frames that were written.
 *
 * Storage is one flat word array over the whole physical address
 * space, demand-backed by the host kernel (anonymous, no-reserve
 * mapping): untouched spans share the kernel's zero page, so a 4 GB
 * simulated memory costs host RAM only for the frames actually
 * written. read64 is then a single indexed load — no frame-pointer
 * chase and no materialisation branch on the walkers' per-PTE path.
 * Frame-granular accounting (materialised frames, nonzero words)
 * lives in small side arrays that only the write paths touch. Words
 * in unmaterialised frames read as zero, preserving the zero-fill
 * contract of the old frame-directory store.
 */

#ifndef DMT_MEM_PHYSICAL_MEMORY_HH
#define DMT_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
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
        return words_[pa >> 3];
    }

    /** The flat word store doubles as a zero-copy read window. */
    ReadWindow
    readWindow() const override
    {
        return {words_, size_};
    }

    /** Pull the word's backing storage into host caches. */
    void
    hostPrefetch64(Addr pa) const override
    {
        // Out-of-range addresses are left for read64() to diagnose.
        if (pa < size_)
            __builtin_prefetch(&words_[pa >> 3], 0, 1);
    }

    /** Write an aligned 64-bit word. */
    void write64(Addr pa, std::uint64_t value) override;

    /** Copy n words out of the flat store. */
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
    static constexpr std::size_t frameWords = frameBytes / 8;

    void checkAccess(Addr pa) const;
    void checkRange(Addr pa, Addr bytes, const char *what) const;

    /** Zero a word-aligned span that lies within a single frame. */
    void zeroWithinFrame(Addr pa, Addr bytes);

    /** Drop a whole frame back to the unmaterialised (zero) state. */
    void dropFrame(Addr frame);

    Addr size_;
    /** Flat word store, one slot per aligned word of the space. */
    std::uint64_t *words_ = nullptr;
    std::size_t mappedBytes_ = 0;
    /**
     * Per-frame accounting: whether a frame counts as materialised
     * (a nonzero value was ever written and not since dropped) and
     * how many of its words are currently nonzero. Only the write
     * paths consult these; reads go straight to the word store.
     */
    std::vector<std::uint8_t> frameLive_;
    std::vector<std::uint32_t> frameNonzero_;
    std::size_t nonzeroWords_ = 0;
    std::size_t framesInUse_ = 0;
};

} // namespace dmt

#endif // DMT_MEM_PHYSICAL_MEMORY_HH
