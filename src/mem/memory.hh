/**
 * @file
 * Abstract word-addressable memory interface.
 *
 * Page tables are built against this interface rather than against
 * PhysicalMemory directly so that a *guest* page table can store its
 * entries in guest-physical space: a view object translates each
 * guest-physical access into the backing host-physical access. That is
 * exactly how nested paging composes on real hardware, and it lets the
 * same RadixPageTable implementation serve every virtualization level.
 */

#ifndef DMT_MEM_MEMORY_HH
#define DMT_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace dmt
{

/** Word-addressable memory (physical, or a translated view). */
class Memory
{
  public:
    virtual ~Memory() = default;

    /**
     * Optional zero-copy read window. When the implementation keeps
     * its words in 4 KB frames of 512 aligned words, found through a
     * directory of frame numbers, it returns {directory, pool, bytes}:
     * frame f's words start at pool + 512 * directory[f]. Otherwise
     * it returns {nullptr, nullptr, 0} (the default — e.g. translated
     * guest views) and readers must go through read64() or
     * readWords(). Hot read loops (the walkers' PTE chases) cache the
     * window once and turn each aligned in-range read into two loads,
     * skipping the virtual call. The window is read-only; writes
     * always go through write64() or writeWords() so the backing
     * store's accounting stays correct.
     */
    struct ReadWindow
    {
        const std::uint32_t *directory = nullptr;
        const std::uint64_t *pool = nullptr;
        Addr bytes = 0;

        /** read64(pa) for aligned pa, via the window when possible. */
        std::uint64_t
        read(const Memory &mem, Addr pa) const
        {
            if (pa < bytes && bytes - pa >= 8) [[likely]]
                return frame(pa)[(pa & pageMask) >> 3];
            return mem.read64(pa);
        }

        /**
         * @return the 512 words of the 4 KB page at page-aligned pa,
         *         or nullptr when the window does not cover it.
         */
        const std::uint64_t *
        page(Addr pa) const
        {
            if (pa < bytes && bytes - pa >= pageSize)
                return frame(pa);
            return nullptr;
        }

      private:
        const std::uint64_t *
        frame(Addr pa) const
        {
            return pool + (std::size_t{directory[pa >> pageShift]}
                           << (pageShift - 3));
        }
    };

    virtual ReadWindow readWindow() const { return {}; }

    /** Read an aligned 64-bit word; unwritten words read as zero. */
    virtual std::uint64_t read64(Addr pa) const = 0;

    /** Write an aligned 64-bit word. */
    virtual void write64(Addr pa, std::uint64_t value) = 0;

    /**
     * Read n consecutive words starting at aligned pa into out:
     * read64() of each, in one call.
     */
    virtual void readWords(Addr pa, std::uint64_t *out,
                           std::size_t n) const = 0;

    /**
     * Write n consecutive words starting at aligned pa: write64() of
     * each in ascending order, with the same accounting, in one call.
     */
    virtual void writeWords(Addr pa, const std::uint64_t *in,
                            std::size_t n) = 0;

    /** Zero-fill an aligned byte range. */
    virtual void zeroRange(Addr pa, Addr bytes) = 0;

    /** Copy a non-overlapping aligned byte range. */
    virtual void copyRange(Addr dst, Addr src, Addr bytes) = 0;
};

} // namespace dmt

#endif // DMT_MEM_MEMORY_HH
