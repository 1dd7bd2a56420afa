/**
 * @file
 * The process-wide pool of 4 KB host frames behind every
 * PhysicalMemory.
 *
 * One no-reserve anonymous region, reserved once per process and
 * sized from the machine's physical memory, holds 512-word frames
 * back to back. A PhysicalMemory maps each simulated frame it
 * materialises to a slot of this pool, so host memory follows the
 * materialised frames rather than the simulated address range, and a
 * slot one memory releases is taken again by the next one — on any
 * thread — without a fresh host page fault.
 *
 * Contract: a free slot is all zeros and its nonzero() count is 0.
 * give() restores that by zeroing only slots whose count is nonzero.
 * Slot 0 is never handed out; it stays a frame of zeros that
 * unmaterialised frames read through.
 *
 * Slot numbers are a host-side detail: which slot backs a frame
 * depends on what other memories (and threads) did before, so no
 * slot number may reach a report, a stat or an event.
 */

#ifndef DMT_MEM_FRAME_POOL_HH
#define DMT_MEM_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dmt
{

/** Shared pool of zero-on-release 4 KB host frames. */
class FramePool
{
  public:
    using Slot = std::uint32_t;

    /** Words per frame (4 KB of 64-bit words). */
    static constexpr std::size_t frameWords = 512;
    /** The permanent frame of zeros; never taken, never written. */
    static constexpr Slot zeroSlot = 0;

    /** @return the pool of this process, reserved on first use. */
    static FramePool &shared();

    ~FramePool();

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    /** @return word 0 of slot 0; slot s starts frameWords * s later. */
    const std::uint64_t *words() const { return words_; }

    /** @return the words of a slot the caller holds. */
    std::uint64_t *
    frame(Slot s)
    {
        return words_ + std::size_t{s} * frameWords;
    }

    /**
     * @return the count of nonzero words in slot s, kept up to date
     *         by the memory that holds the slot (only it touches the
     *         count until it gives the slot back).
     */
    std::uint32_t &nonzero(Slot s) { return nonzero_[s]; }

    /** Zero a slot's words if its count says any are nonzero. */
    void scrub(Slot s);

    /** Take a zero slot; panics when the pool is exhausted. */
    Slot take();

    /** Scrub n held slots and return them to the free list. */
    void give(const Slot *slots, std::size_t n);

    /** @return one past the highest slot ever taken (for tests). */
    Slot highWater() const;

  private:
    FramePool();

    Slot capacity_ = 0;
    std::uint64_t *words_ = nullptr;
    std::uint32_t *nonzero_ = nullptr;

    mutable std::mutex mutex_;
    /** Released slots, all zero; guarded by mutex_. */
    std::vector<Slot> free_;
    /** Next never-taken slot; guarded by mutex_. */
    Slot next_ = zeroSlot + 1;
};

} // namespace dmt

#endif // DMT_MEM_FRAME_POOL_HH
