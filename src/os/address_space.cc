#include "os/address_space.hh"

#include <algorithm>
#include <array>
#include <iterator>
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
    // as runs of physically consecutive frames, with the spliced runs
    // cut out of each 4 KB run, and the table pages the page table
    // hands over. The buddy allocator coalesces maximally, so its
    // free lists do not depend on the order or grouping frames come
    // back in.
    std::vector<FrameRun> runs;
    FrameRun run;         // the pending run
    bool run4K = false;   // of 4 KB leaves; a huge leaf is never spliced
    const auto flush = [&] {
        if (run4K)
            cutSpliced(run, runs);
        else if (run.pages > 0)
            runs.push_back(run);
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
        DMT_ASSERT(tr->size != PageSize::Size1G,
                   "1 GB data pages are not allocated by this OS");
        if (tr->size == PageSize::Size2M) {
            // A 2 MB leaf is never spliced.
            allocator_.freePages(tr->pfn, 9);
            dataFrames_ -= 512;
            --hugeMappings_;
        } else {
            // A spliced frame (replaceBacking) stays its splicer's.
            std::vector<FrameRun> owned;
            cutSpliced({tr->pfn, 1}, owned);
            if (!owned.empty()) {
                allocator_.freePages(tr->pfn, 0);
                --dataFrames_;
            }
        }
        va = pageBase + bytes;
    }
}

void
AddressSpace::cutSpliced(FrameRun run, std::vector<FrameRun> &owned)
{
    Pfn from = run.base;
    const Pfn end = run.base + run.pages;
    // The first spliced run that ends after `from`.
    auto it = spliced_.upper_bound(from);
    if (it != spliced_.begin() && std::prev(it)->second > from)
        --it;
    while (it != spliced_.end() && it->first < end) {
        const auto [base, runEnd] = *it;
        it = spliced_.erase(it);
        if (base < from)
            spliced_.emplace(base, from);
        else if (base > from)
            owned.push_back({from, base - from});
        if (runEnd > end) {
            spliced_.emplace(end, runEnd);
            from = end;
            break;
        }
        from = runEnd;
    }
    if (from < end)
        owned.push_back({from, end - from});
}

void
AddressSpace::replaceBacking(Addr va, Pfn first_frame,
                             std::uint64_t pages)
{
    DMT_ASSERT(pages > 0, "replaceBacking: no pages");
    const Addr end = pageAlignDown(va) + (pages << pageShift);
    Pfn frame = first_frame;
    std::array<Pfn, ptesPerPage> displaced{};
    for (Addr at = pageAlignDown(va); at < end;) {
        const Addr span = pageAlignDown(at, PageSize::Size2M);
        const Addr spanEnd = std::min(end, span + hugePageSize);
        if (pt_.demote2M(span)) {
            DMT_ASSERT(hugeMappings_ > 0, "huge mapping underflow");
            --hugeMappings_;
        }
        const std::uint64_t n = (spanEnd - at) >> pageShift;
        pt_.updateLeafSpan(at, spanEnd, frame, displaced.data());
        // Free the displaced frames this space owns, as runs of
        // consecutive frames. A spliced one (e.g. a prior grant
        // re-pointed here) stays owned by its splicer.
        std::vector<FrameRun> owned;
        FrameRun run{displaced[0], 1};
        for (std::uint64_t i = 1; i < n; ++i) {
            if (displaced[i] == run.base + run.pages) {
                ++run.pages;
                continue;
            }
            cutSpliced(run, owned);
            run = {displaced[i], 1};
        }
        cutSpliced(run, owned);
        for (const FrameRun &r : owned) {
            DMT_ASSERT(dataFrames_ >= r.pages, "data frame underflow");
            dataFrames_ -= r.pages;
        }
        allocator_.freeRuns(std::move(owned));
        frame += n;
        at = spanEnd;
    }
    // The grant becomes one spliced run; it may touch, never overlap,
    // the runs of earlier grants.
    const Pfn runEnd = first_frame + pages;
    const auto next = spliced_.lower_bound(first_frame);
    DMT_ASSERT((next == spliced_.end() || next->first >= runEnd) &&
                   (next == spliced_.begin() ||
                    std::prev(next)->second <= first_frame),
               "replaceBacking: frames 0x%llx..0x%llx overlap a "
               "spliced run",
               static_cast<unsigned long long>(first_frame),
               static_cast<unsigned long long>(runEnd - 1));
    spliced_.emplace_hint(next, first_frame, runEnd);
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
