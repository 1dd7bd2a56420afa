/**
 * @file
 * A process address space: VMA tree + radix page table + demand paging.
 *
 * This is the simulated OS's per-process memory manager. It allocates
 * movable data frames from the buddy allocator, optionally as 2 MB
 * transparent huge pages. The page table is the only record of which
 * frames it owns: every leaf frame is owned except those spliced in
 * by replaceBacking(), which are kept as an ordered map of disjoint
 * frame runs, one per grant until a displaced frame splits its run.
 *
 * For virtualization, the same class serves every level: a guest
 * address space is simply constructed over a guest-physical allocator
 * and a guest-physical memory view.
 */

#ifndef DMT_OS_ADDRESS_SPACE_HH
#define DMT_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hh"
#include "mem/memory.hh"
#include "os/buddy_allocator.hh"
#include "os/vma.hh"
#include "pt/radix_page_table.hh"

namespace dmt
{

/** Transparent-huge-page policy, mirroring Linux. */
enum class ThpMode
{
    Never,   //!< always 4 KB pages
    Always,  //!< use 2 MB pages wherever alignment and size permit
};

/** Configuration of a process address space. */
struct AddressSpaceConfig
{
    int ptLevels = 4;
    ThpMode thp = ThpMode::Never;
    /** Default start of the mmap region for hint-less mmap(). */
    Addr mmapBase = 0x10000000ull;
};

/** One process's virtual address space. */
class AddressSpace
{
  public:
    AddressSpace(Memory &mem, BuddyAllocator &allocator,
                 AddressSpaceConfig config = {});

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    RadixPageTable &pageTable() { return pt_; }
    const RadixPageTable &pageTable() const { return pt_; }
    const AddressSpaceConfig &config() const { return config_; }

    /**
     * Create a VMA of `size` bytes at an OS-chosen address.
     * @param populate fault every page in immediately (the paper's
     *        workloads allocate at initialisation time)
     */
    const Vma &mmap(Addr size, VmaKind kind, bool populate = true);

    /** Create a VMA at a fixed address. */
    const Vma &mmapAt(Addr base, Addr size, VmaKind kind,
                      bool populate = true);

    /** Destroy the VMA at base, unmapping and freeing its frames. */
    void munmap(Addr base);

    /** Grow the VMA at base to new_size, populating the extension. */
    void growVma(Addr base, Addr new_size, bool populate = true);

    /**
     * Fault in the page containing va if not already mapped.
     * @return true if a new mapping was created.
     */
    bool touch(Addr va);

    /**
     * Fault in every page of the given VMA: exactly the mappings and
     * allocation order of touch() on each page in ascending order,
     * at the cost of one page-table walk per 2 MB span.
     */
    void populate(const Vma &vma);

    /**
     * Compaction callback: frame `from` moved to `to`; update the PTE.
     * Wire via BuddyAllocator::setRelocationHook. Finds the leaf with
     * one walk of the whole tree, which suits the test-only use.
     */
    void onFrameRelocated(Pfn from, Pfn to);

    /**
     * Replace the physical backing of `pages` 4 KB pages, from the
     * one containing va up, with the caller-owned frames first_frame,
     * first_frame + 1, ... (the vm_insert_pages analogue used by the
     * pvDMT hypercall to splice a host-contiguous gTEA run into the
     * guest). Every page must be mapped.
     *
     * One 2 MB span at a time: a covering 2 MB mapping is demoted,
     * the span's leaves are re-pointed, and the displaced frames this
     * space owns are freed in one BuddyAllocator::freeRuns(); one
     * that was itself spliced in stays its splicer's. The allocators
     * end as replacing each page on its own would leave them (a
     * demotion's table page is allocated after the previous span's
     * frames are freed). The new frames stay owned by the caller and
     * are never freed by this space, not even when the caller
     * releases them before this space dies; panics if one of them is
     * spliced here already.
     */
    void replaceBacking(Addr va, Pfn first_frame, std::uint64_t pages);

    /** Number of data frames (4 KB units) currently allocated. */
    std::uint64_t dataFrames() const { return dataFrames_; }

    /** Count of 2 MB mappings created by THP. */
    std::uint64_t hugeMappings() const { return hugeMappings_; }

  private:
    /** Allocate one movable 4 KB data frame; fatal when out. */
    Pfn allocDataFrame();

    /**
     * Map the 2 MB region at huge_base with one huge frame if the
     * THP policy, the VMA bounds, an empty region and the allocator
     * all allow it.
     * @return true if the huge page was mapped.
     */
    bool mapHuge(Addr huge_base, const Vma &vma);

    /** Unmap + free frames for every mapped page of a range. */
    void releaseRange(Addr base, Addr size);

    /**
     * Cut the frames of `run` out of the spliced runs, splitting a
     * run that overlaps only part of it, and append to `owned` the
     * parts of `run` that no spliced run covers: this space's own.
     */
    void cutSpliced(FrameRun run, std::vector<FrameRun> &owned);

    Memory &mem_;
    BuddyAllocator &allocator_;
    AddressSpaceConfig config_;
    VmaTree vmas_;
    RadixPageTable pt_;
    /** Frames mapped here but owned by their splicer: disjoint runs,
     *  base -> end (exclusive). */
    std::map<Pfn, Pfn> spliced_;
    std::uint64_t dataFrames_ = 0;
    std::uint64_t hugeMappings_ = 0;
};

} // namespace dmt

#endif // DMT_OS_ADDRESS_SPACE_HH
