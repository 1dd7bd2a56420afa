/**
 * @file
 * Guest-physical memory view.
 *
 * Presents a guest's physical address space as a Memory object by
 * translating every access into the backing (host-)physical memory
 * through the page table of the container process that maps it.
 * Guest page tables are built on this view, so their entries are
 * genuinely resident at host physical addresses — which is what the
 * 2-D walker and the DMT fetcher charge cache accesses against.
 * Views compose, which is how the L2 space of nested virtualization
 * is reached through two translation layers.
 */

#ifndef DMT_VIRT_GUEST_MEMORY_VIEW_HH
#define DMT_VIRT_GUEST_MEMORY_VIEW_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"
#include "mem/memory.hh"
#include "pt/radix_page_table.hh"

namespace dmt
{

/**
 * Memory view resolving guest-physical address gpa in [0, bytes) to
 * the backing address table.translate(base_va + gpa).
 *
 * Resolutions are memoized per 4 KB page in a small direct-mapped
 * table. Each entry keeps the table's leafEpoch() it was filled
 * under and is ignored once the epoch moves, so a page whose backing
 * was remapped, re-pointed or unmapped is resolved afresh. A composed
 * view checks only its own table; the view backing it checks its own.
 */
class GuestMemoryView : public Memory
{
  public:
    /**
     * @param backing memory the container table's frames live in
     * @param table container page table mapping guest-physical memory
     * @param base_va page-aligned VA where the container maps gPA 0
     * @param bytes guest-physical size; accesses beyond it panic
     */
    GuestMemoryView(Memory &backing, const RadixPageTable &table,
                    Addr base_va, Addr bytes)
        : backing_(backing), table_(table), baseVa_(base_va),
          bytes_(bytes)
    {
        DMT_ASSERT((base_va & pageMask) == 0,
                   "guest memory must be mapped page aligned");
    }

    /**
     * @return the backing address of a guest-physical address; panics
     *         if it is beyond guest memory or its page is unbacked.
     */
    Addr
    resolve(Addr gpa) const
    {
        const Addr page = gpa >> pageShift;
        const Slot &slot = memo_[page & (memo_.size() - 1)];
        if (slot.page == page && slot.epoch == table_.leafEpoch())
            [[likely]]
            return slot.base | (gpa & pageMask);
        return resolveMiss(gpa);
    }

    /**
     * The container leaf backing gpa, uncached: its frame and size,
     * and in `pa` the backing address of gpa itself. Panics like
     * resolve(). Every page of one leaf is backed linearly, so one
     * call answers for the whole leaf.
     */
    Translation
    backingLeaf(Addr gpa) const
    {
        DMT_ASSERT(gpa < bytes_,
                   "guest physical address 0x%llx beyond VM memory",
                   static_cast<unsigned long long>(gpa));
        const auto tr = table_.translate(baseVa_ + gpa);
        DMT_ASSERT(tr.has_value(),
                   "guest physical memory not backed at gpa 0x%llx",
                   static_cast<unsigned long long>(gpa));
        return *tr;
    }

    /**
     * resolve() for n guest pages at once, by frame number: out[i]
     * is the backing frame of guest frame gpfns[i]. Reads the
     * container's leaf table once per run of pages inside one 2 MB
     * span; a page mapped there by a huge leaf, or not at all, takes
     * resolve() instead, panics included. Fills no memo slot of its
     * own.
     */
    void
    backingFrames(const Pfn *gpfns, std::size_t n, Pfn *out) const
    {
        RadixPageTable::TableWords buf{};
        const std::uint64_t *entries = nullptr;
        Addr span = ~Addr{0};
        for (std::size_t i = 0; i < n; ++i) {
            const Addr gpa = gpfns[i] << pageShift;
            DMT_ASSERT(gpa < bytes_,
                       "guest physical address 0x%llx beyond VM memory",
                       static_cast<unsigned long long>(gpa));
            const Addr va = baseVa_ + gpa;
            if (pageAlignDown(va, PageSize::Size2M) != span) {
                span = pageAlignDown(va, PageSize::Size2M);
                entries = table_.leafTableEntries(va, buf);
            }
            const std::uint64_t pte =
                entries ? entries[RadixPageTable::indexAt(va, 1)] : 0;
            out[i] = pteIsPresent(pte) ? ptePfn(pte)
                                       : resolve(gpa) >> pageShift;
        }
    }

    std::uint64_t
    read64(Addr pa) const override
    {
        return backing_.read64(resolve(pa));
    }

    void
    write64(Addr pa, std::uint64_t value) override
    {
        backing_.write64(resolve(pa), value);
    }

    /** One resolve() and one backing readWords() per page. */
    void
    readWords(Addr pa, std::uint64_t *out, std::size_t n) const override
    {
        while (n > 0) {
            const std::size_t chunk = wordsLeftInPage(pa, n);
            backing_.readWords(resolve(pa), out, chunk);
            pa += Addr{chunk} * 8;
            out += chunk;
            n -= chunk;
        }
    }

    /** One resolve() and one backing writeWords() per page. */
    void
    writeWords(Addr pa, const std::uint64_t *in, std::size_t n) override
    {
        while (n > 0) {
            const std::size_t chunk = wordsLeftInPage(pa, n);
            backing_.writeWords(resolve(pa), in, chunk);
            pa += Addr{chunk} * 8;
            in += chunk;
            n -= chunk;
        }
    }

    /**
     * writeWords() of zeros, a page's worth per call. A backing frame
     * zeroed through the view stays materialised, as under
     * write64(pa, 0); only PhysicalMemory's own zeroRange() drops
     * whole frames.
     */
    void
    zeroRange(Addr pa, Addr bytes) override
    {
        static constexpr std::array<std::uint64_t, pageWords> zeros{};
        DMT_ASSERT(((pa | bytes) & 7) == 0,
                   "zeroRange must be word aligned");
        for (std::size_t n = bytes >> 3; n > 0;) {
            const std::size_t chunk = std::min(n, zeros.size());
            writeWords(pa, zeros.data(), chunk);
            pa += Addr{chunk} * 8;
            n -= chunk;
        }
    }

    /**
     * readWords() then writeWords() through a page-sized bounce
     * buffer: write64(dst, read64(src)) word for word, with the same
     * accounting.
     */
    void
    copyRange(Addr dst, Addr src, Addr bytes) override
    {
        DMT_ASSERT(((dst | src | bytes) & 7) == 0,
                   "copyRange must be word aligned");
        std::array<std::uint64_t, pageWords> buf{};
        for (std::size_t n = bytes >> 3; n > 0;) {
            const std::size_t chunk = std::min(n, buf.size());
            readWords(src, buf.data(), chunk);
            writeWords(dst, buf.data(), chunk);
            dst += Addr{chunk} * 8;
            src += Addr{chunk} * 8;
            n -= chunk;
        }
    }

  private:
    static constexpr std::size_t pageWords = pageSize / 8;

    /** @return min(n, words from pa to the end of its page). */
    static std::size_t
    wordsLeftInPage(Addr pa, std::size_t n)
    {
        return std::min<std::size_t>(
            n, static_cast<std::size_t>((pageSize - (pa & pageMask)) >>
                                        3));
    }

    /** One memoized page: gPA page number -> backing page address. */
    struct Slot
    {
        Addr page = ~Addr{0};  //!< never a valid page number
        std::uint64_t epoch = 0;
        Addr base = 0;
    };

    Addr
    resolveMiss(Addr gpa) const
    {
        const Addr pa = backingLeaf(gpa).pa;
        const Addr page = gpa >> pageShift;
        memo_[page & (memo_.size() - 1)] = {page, table_.leafEpoch(),
                                            pa & ~pageMask};
        return pa;
    }

    Memory &backing_;
    const RadixPageTable &table_;
    Addr baseVa_;
    Addr bytes_;
    mutable std::array<Slot, 1024> memo_{};
};

} // namespace dmt

#endif // DMT_VIRT_GUEST_MEMORY_VIEW_HH
