#include "os/address_space.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dmt
{

AddressSpace::AddressSpace(Memory &mem, BuddyAllocator &allocator,
                           AddressSpaceConfig config)
    : mem_(mem), allocator_(allocator), config_(config),
      pt_(mem, allocator, config.ptLevels)
{
}

AddressSpace::~AddressSpace()
{
    // Every owned frame goes back in one freeRuns(): the data leaves
    // as runs of physically consecutive frames, with the spliced
    // frames cut out of each 4 KB run by one lower_bound(), and the
    // table pages the page table hands over. The buddy allocator
    // coalesces maximally, so its free lists do not depend on the
    // order or grouping frames come back in.
    std::vector<FrameRun> runs;
    FrameRun run;         // the pending run
    bool run4K = false;   // of 4 KB leaves; a huge leaf is never spliced
    const auto flush = [&] {
        Pfn from = run.base;
        const Pfn end = run.base + run.pages;
        if (run4K) {
            for (auto it = spliced_.lower_bound(from);
                 it != spliced_.end() && *it < end; ++it) {
                if (*it > from)
                    runs.push_back({from, *it - from});
                from = *it + 1;
            }
        }
        if (from < end)
            runs.push_back({from, end - from});
    };
    pt_.forEachLeaf([&](Addr, Pfn pfn, PageSize size) {
        const std::uint64_t pages = pageBytesOf(size) >> pageShift;
        const bool is4K = size == PageSize::Size4K;
        if (run.pages > 0 && is4K == run4K &&
            pfn == run.base + run.pages) {
            run.pages += pages;
            return;
        }
        flush();
        run = {pfn, pages};
        run4K = is4K;
    });
    flush();
    pt_.releaseTables(runs);
    allocator_.freeRuns(std::move(runs));
}

const Vma &
AddressSpace::mmap(Addr size, VmaKind kind, bool populate)
{
    size = pageAlignUp(size);
    const Addr base = vmas_.findFreeRange(config_.mmapBase, size);
    return mmapAt(base, size, kind, populate);
}

const Vma &
AddressSpace::mmapAt(Addr base, Addr size, VmaKind kind, bool populate)
{
    size = pageAlignUp(size);
    const Vma &vma = vmas_.create(base, size, kind);
    if (populate)
        this->populate(vma);
    return vma;
}

void
AddressSpace::munmap(Addr base)
{
    const Vma *vma = vmas_.findByBase(base);
    if (!vma)
        panic("munmap: no VMA at 0x%llx",
              static_cast<unsigned long long>(base));
    releaseRange(vma->base, vma->size);
    vmas_.destroy(base);
}

void
AddressSpace::growVma(Addr base, Addr new_size, bool populate)
{
    vmas_.grow(base, new_size);
    if (populate) {
        const Vma *vma = vmas_.findByBase(base);
        this->populate(*vma);
    }
}

Pfn
AddressSpace::allocDataFrame()
{
    const auto frame = allocator_.allocPages(0, FrameKind::Movable);
    if (!frame)
        fatal("out of physical memory for data pages");
    return *frame;
}

bool
AddressSpace::mapHuge(Addr huge_base, const Vma &vma)
{
    // Like a Linux THP fault: only a 2 MB region that lies wholly
    // inside the VMA and has nothing mapped in it yet gets a huge
    // frame. A region already holding 4 KB leaves stays 4 KB (until
    // a collapse), and contiguity failure falls back to 4 KB too.
    if (config_.thp != ThpMode::Always || huge_base < vma.base ||
        huge_base + hugePageSize > vma.end() ||
        !pt_.spanEmpty(huge_base)) {
        return false;
    }
    const auto frame = allocator_.allocPages(9, FrameKind::Movable);
    if (!frame)
        return false;
    pt_.map(huge_base, *frame, PageSize::Size2M);
    dataFrames_ += 512;
    ++hugeMappings_;
    return true;
}

bool
AddressSpace::touch(Addr va)
{
    if (pt_.translate(va))
        return false;
    const Vma *vma = vmas_.find(va);
    if (!vma)
        panic("touch: segfault at 0x%llx (no VMA)",
              static_cast<unsigned long long>(va));
    if (!mapHuge(pageAlignDown(va, PageSize::Size2M), *vma)) {
        pt_.map(pageAlignDown(va), allocDataFrame(), PageSize::Size4K);
        ++dataFrames_;
    }
    return true;
}

void
AddressSpace::populate(const Vma &vma)
{
    // One step per 2 MB leaf-table span — a huge page or a run of
    // 4 KB slots — leaf for leaf what touch() on every page in
    // ascending order maps, in the same allocation order. A 4 KB
    // span draws its frames in at most two calls, each handing out
    // what as many allocDataFrame() calls would.
    const RadixPageTable::DrawFrames draw = [this](std::uint64_t n,
                                                   Pfn *out) {
        if (!allocator_.allocFrames(n, FrameKind::Movable, out))
            fatal("out of physical memory for data pages");
    };
    for (Addr va = vma.base; va < vma.end();) {
        const Addr span = pageAlignDown(va, PageSize::Size2M);
        const Addr end = std::min(vma.end(), span + hugePageSize);
        if (!mapHuge(span, vma))
            dataFrames_ += pt_.mapSpan4K(va, end, draw);
        va = end;
    }
}

void
AddressSpace::releaseRange(Addr base, Addr size)
{
    Addr va = base;
    const Addr end = base + size;
    while (va < end) {
        const auto tr = pt_.translate(va);
        if (!tr) {
            va += pageSize;
            continue;
        }
        const Addr bytes = pageBytesOf(tr->size);
        const Addr pageBase = pageAlignDown(va, tr->size);
        pt_.unmap(pageBase);
        const int order = tr->size == PageSize::Size2M ? 9 : 0;
        DMT_ASSERT(tr->size != PageSize::Size1G,
                   "1 GB data pages are not allocated by this OS");
        // Spliced frames (replaceBacking) stay owned by their
        // splicer; a 2 MB leaf is never spliced.
        if (order == 9 || spliced_.erase(tr->pfn) == 0) {
            allocator_.freePages(tr->pfn, order);
            dataFrames_ -= (order == 9) ? 512 : 1;
            if (order == 9)
                --hugeMappings_;
        }
        va = pageBase + bytes;
    }
}

void
AddressSpace::replaceBacking(Addr va, Pfn new_frame)
{
    auto tr = pt_.translate(va);
    DMT_ASSERT(tr.has_value(), "replaceBacking: va 0x%llx unmapped",
               static_cast<unsigned long long>(va));
    if (tr->size == PageSize::Size2M) {
        const bool ok =
            pt_.demote2M(pageAlignDown(va, PageSize::Size2M));
        DMT_ASSERT(ok, "demote2M failed in replaceBacking");
        DMT_ASSERT(hugeMappings_ > 0, "huge mapping underflow");
        --hugeMappings_;
        tr = pt_.translate(va);
    }
    DMT_ASSERT(tr->size == PageSize::Size4K,
               "replaceBacking expects 4 KB granularity");
    const Addr pageVa = pageAlignDown(va);
    const Pfn old = tr->pfn;
    pt_.updateLeaf(pageVa, new_frame);
    // Free the displaced frame only if this space owns it. A spliced
    // frame (e.g. a prior gTEA grant re-pointed here) stays owned by
    // its splicer.
    if (spliced_.erase(old) == 0) {
        allocator_.freePages(old, 0);
        DMT_ASSERT(dataFrames_ > 0, "data frame underflow");
        --dataFrames_;
    }
    const bool fresh = spliced_.insert(new_frame).second;
    DMT_ASSERT(fresh, "replaceBacking: frame 0x%llx spliced twice",
               static_cast<unsigned long long>(new_frame));
}

void
AddressSpace::onFrameRelocated(Pfn from, Pfn to)
{
    std::optional<Addr> va;
    pt_.forEachLeaf([&](Addr leaf_va, Pfn pfn, PageSize size) {
        if (pfn != from)
            return;
        DMT_ASSERT(size == PageSize::Size4K,
                   "compaction moves 4 KB frames only");
        va = leaf_va;
    });
    if (!va)
        return;  // frame belongs to another address space
    mem_.copyRange(to << pageShift, from << pageShift, pageSize);
    pt_.updateLeaf(*va, to);
}

} // namespace dmt
