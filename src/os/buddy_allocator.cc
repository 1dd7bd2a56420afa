#include "os/buddy_allocator.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

BuddyAllocator::BuddyAllocator(Pfn num_frames, int max_order)
    : numFrames_(num_frames), maxOrder_(max_order)
{
    DMT_ASSERT(num_frames > 0, "buddy allocator needs frames");
    DMT_ASSERT(max_order >= 0 && max_order < 40, "bad max order");
    freeLists_.resize(maxOrder_ + 1);
    kinds_.assign(numFrames_, FrameKind::Free);
    chunkFree_.resize((numFrames_ + chunkMask) >> chunkShift);
    for (std::size_t c = 0; c < chunkFree_.size(); ++c)
        chunkFree_[c] = static_cast<std::uint16_t>(chunkFrames(c));
    freeFrames_ = numFrames_;
    // Seed the free lists with maximal aligned blocks. Bypass the
    // accounting in freeFrameRange by building blocks directly.
    Pfn base = 0;
    std::uint64_t n = numFrames_;
    while (n > 0) {
        int order = maxOrder_;
        if (base != 0) {
            order = std::min<int>(order, std::countr_zero(base));
        }
        while ((std::uint64_t{1} << order) > n)
            --order;
        freeLists_[order].insert(base);
        base += std::uint64_t{1} << order;
        n -= std::uint64_t{1} << order;
    }
}

BuddyAllocator::~BuddyAllocator()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

void
BuddyAllocator::attachAuditor(InvariantAuditor &auditor,
                              const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "allocator already audited");
    auditor_ = &auditor;
    auditHookId_ = auditor.registerHook(
        name, [this](AuditSink &sink) { audit(sink); });
}

void
BuddyAllocator::setRelocationHook(RelocationHook hook)
{
    relocHook_ = std::move(hook);
}

FrameKind
BuddyAllocator::kindOf(Pfn pfn) const
{
    DMT_ASSERT(pfn < numFrames_, "frame out of range");
    return kinds_[pfn];
}

bool
BuddyAllocator::isFree(Pfn pfn) const
{
    return kindOf(pfn) == FrameKind::Free;
}

std::size_t
BuddyAllocator::freeBlocksAt(int order) const
{
    DMT_ASSERT(order >= 0 && order <= maxOrder_, "order out of range");
    return freeLists_[order].size();
}

void
BuddyAllocator::setKind(Pfn base, std::uint64_t n, FrameKind kind)
{
    DMT_ASSERT(base + n <= numFrames_, "range out of bounds");
    std::memset(kinds_.data() + base, static_cast<int>(kind), n);
    const bool freeing = kind == FrameKind::Free;
    for (Pfn b = base, end = base + n; b < end;) {
        const Pfn chunkEnd = std::min(end, (b | chunkMask) + 1);
        const auto overlap = static_cast<std::uint16_t>(chunkEnd - b);
        std::uint16_t &count = chunkFree_[b >> chunkShift];
        count = static_cast<std::uint16_t>(freeing ? count + overlap
                                                   : count - overlap);
        b = chunkEnd;
    }
}

namespace
{

/**
 * @return the first nonzero byte of [from, to), or `to`. No libc
 * call finds the first byte *unequal* to a value, so this tests eight
 * bytes per load; the byte loops cover the unaligned edges.
 */
Pfn
firstNonZero(const unsigned char *bytes, Pfn from, Pfn to)
{
    for (; from < to && (from & 7) != 0; ++from) {
        if (bytes[from] != 0)
            return from;
    }
    for (; from + 8 <= to; from += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes + from, sizeof(word));
        if (word != 0)
            break;
    }
    for (; from < to; ++from) {
        if (bytes[from] != 0)
            return from;
    }
    return to;
}

} // namespace

Pfn
BuddyAllocator::firstFree(Pfn from, Pfn to) const
{
    // Skip the chunks with no free frame; search the kinds of the
    // others.
    while (from < to) {
        const Pfn chunkEnd = std::min(to, (from | chunkMask) + 1);
        if (chunkFree_[from >> chunkShift] != 0) {
            const void *hit = std::memchr(
                kinds_.data() + from, static_cast<int>(FrameKind::Free),
                chunkEnd - from);
            if (hit) {
                return static_cast<Pfn>(
                    static_cast<const FrameKind *>(hit) - kinds_.data());
            }
        }
        from = chunkEnd;
    }
    return to;
}

Pfn
BuddyAllocator::firstUsed(Pfn from, Pfn to) const
{
    // A chunk with no free frame answers at once, and an all-free
    // one is skipped; only the kinds of mixed chunks are read. Free
    // is 0, so a used frame is a nonzero kind byte.
    const auto *kinds = reinterpret_cast<const unsigned char *>(
        kinds_.data());
    while (from < to) {
        const std::size_t c = from >> chunkShift;
        const Pfn chunkEnd = std::min(to, (from | chunkMask) + 1);
        if (chunkFree_[c] == 0)
            return from;
        if (chunkFree_[c] != chunkFrames(c)) {
            const Pfn used = firstNonZero(kinds, from, chunkEnd);
            if (used != chunkEnd)
                return used;
        }
        from = chunkEnd;
    }
    return to;
}

void
BuddyAllocator::removeFreeBlock(Pfn base, int order)
{
    auto erased = freeLists_[order].erase(base);
    DMT_ASSERT(erased == 1, "free block (0x%llx, order %d) not found",
               static_cast<unsigned long long>(base), order);
}

void
BuddyAllocator::insertFreeBlock(Pfn base, int order)
{
    // Coalesce with the buddy while possible.
    while (order < maxOrder_) {
        const Pfn buddy = base ^ (Pfn{1} << order);
        if (buddy + (Pfn{1} << order) > numFrames_)
            break;
        auto it = freeLists_[order].find(buddy);
        if (it == freeLists_[order].end())
            break;
        freeLists_[order].erase(it);
        base = std::min(base, buddy);
        ++order;
    }
    freeLists_[order].insert(base);
}

std::optional<Pfn>
BuddyAllocator::allocPages(int order, FrameKind kind)
{
    DMT_ASSERT(order >= 0 && order <= maxOrder_, "order out of range");
    DMT_ASSERT(kind != FrameKind::Free, "cannot allocate as Free");
    int o = order;
    while (o <= maxOrder_ && freeLists_[o].empty())
        ++o;
    if (o > maxOrder_)
        return std::nullopt;
    const Pfn base = *freeLists_[o].begin();
    freeLists_[o].erase(freeLists_[o].begin());
    // Split back down, returning the upper halves to the free lists.
    while (o > order) {
        --o;
        freeLists_[o].insert(base + (Pfn{1} << o));
    }
    const std::uint64_t n = std::uint64_t{1} << order;
    setKind(base, n, kind);
    freeFrames_ -= n;
    DMT_AUDIT_EVENT(auditor_);
    return base;
}

bool
BuddyAllocator::allocFrames(std::uint64_t n, FrameKind kind, Pfn *out)
{
    DMT_ASSERT(kind != FrameKind::Free, "cannot allocate as Free");
    if (n > freeFrames_)
        return false;
    while (n > 0) {
        // Successive order-0 allocations drain the lowest block of
        // the smallest non-empty order from its base up: each split
        // hands the next call the frame right after the last one.
        int o = 0;
        while (freeLists_[o].empty()) {
            ++o;
            DMT_ASSERT(o <= maxOrder_, "free frame count corrupt");
        }
        const Pfn base = *freeLists_[o].begin();
        freeLists_[o].erase(freeLists_[o].begin());
        const std::uint64_t size = std::uint64_t{1} << o;
        const std::uint64_t take = std::min(n, size);
        for (Pfn pfn = base; pfn < base + take; ++pfn)
            *out++ = pfn;
        setKind(base, take, kind);
        freeFrames_ -= take;
        n -= take;
        // The splits leave the tail as blocks aligned to their own
        // size; every buddy below them is taken, so none coalesce.
        for (Pfn b = base + take; b < base + size;) {
            const int bo = std::countr_zero(b);
            freeLists_[bo].insert(b);
            b += Pfn{1} << bo;
        }
    }
    DMT_AUDIT_EVENT(auditor_);
    return true;
}

void
BuddyAllocator::freePages(Pfn base, int order)
{
    DMT_ASSERT(order >= 0 && order <= maxOrder_, "order out of range");
    const std::uint64_t n = std::uint64_t{1} << order;
    DMT_ASSERT(base + n <= numFrames_, "free out of bounds");
    const Pfn twice = firstFree(base, base + n);
    DMT_ASSERT(twice == base + n, "double free of frame 0x%llx",
               static_cast<unsigned long long>(twice));
    setKind(base, n, FrameKind::Free);
    freeFrames_ += n;
    insertFreeBlock(base, order);
    DMT_AUDIT_EVENT(auditor_);
}

std::pair<Pfn, int>
BuddyAllocator::findFreeBlockContaining(Pfn pfn) const
{
    for (int order = 0; order <= maxOrder_; ++order) {
        const Pfn base = pfn & ~((Pfn{1} << order) - 1);
        if (freeLists_[order].count(base))
            return {base, order};
    }
    panic("frame 0x%llx marked free but not in any free list",
          static_cast<unsigned long long>(pfn));
}

void
BuddyAllocator::claimRange(Pfn start, Pfn end, FrameKind kind)
{
    Pfn i = start;
    while (i < end) {
        const auto [base, order] = findFreeBlockContaining(i);
        removeFreeBlock(base, order);
        const Pfn blockEnd = base + (Pfn{1} << order);
        // Return the pieces of the block outside [start, end).
        if (base < start) {
            Pfn b = base;
            std::uint64_t n = start - base;
            while (n > 0) {
                int o = std::min<int>(maxOrder_, std::countr_zero(b));
                while ((std::uint64_t{1} << o) > n)
                    --o;
                insertFreeBlock(b, o);
                b += Pfn{1} << o;
                n -= std::uint64_t{1} << o;
            }
        }
        if (blockEnd > end) {
            Pfn b = end;
            std::uint64_t n = blockEnd - end;
            while (n > 0) {
                int o = std::min<int>(maxOrder_, std::countr_zero(b));
                while ((std::uint64_t{1} << o) > n)
                    --o;
                insertFreeBlock(b, o);
                b += Pfn{1} << o;
                n -= std::uint64_t{1} << o;
            }
        }
        const Pfn claimFrom = std::max(base, start);
        const Pfn claimTo = std::min(blockEnd, end);
        setKind(claimFrom, claimTo - claimFrom, kind);
        freeFrames_ -= claimTo - claimFrom;
        i = blockEnd;
    }
}

std::optional<Pfn>
BuddyAllocator::allocContig(std::uint64_t n_pages, FrameKind kind)
{
    DMT_ASSERT(n_pages > 0, "zero-length contiguous allocation");
    DMT_ASSERT(kind != FrameKind::Free, "cannot allocate as Free");
    if (n_pages > freeFrames_)
        return std::nullopt;
    // First fit over the frame kinds: jump to the next free frame,
    // then to the first used frame that cuts its run short.
    Pfn i = firstFree(0, numFrames_);
    while (numFrames_ - i >= n_pages) {
        const Pfn runEnd = firstUsed(i, i + n_pages);
        if (runEnd == i + n_pages) {
            claimRange(i, i + n_pages, kind);
            DMT_AUDIT_EVENT(auditor_);
            return i;
        }
        i = firstFree(runEnd + 1, numFrames_);
    }
    return std::nullopt;
}

void
BuddyAllocator::freeFrameRange(Pfn base, std::uint64_t n)
{
    setKind(base, n, FrameKind::Free);
    freeFrames_ += n;
    while (n > 0) {
        int o = maxOrder_;
        if (base != 0)
            o = std::min<int>(o, std::countr_zero(base));
        while ((std::uint64_t{1} << o) > n)
            --o;
        insertFreeBlock(base, o);
        base += Pfn{1} << o;
        n -= std::uint64_t{1} << o;
    }
}

void
BuddyAllocator::freeContig(Pfn base, std::uint64_t n_pages)
{
    DMT_ASSERT(base + n_pages <= numFrames_, "free out of bounds");
    DMT_ASSERT(firstFree(base, base + n_pages) == base + n_pages,
               "double free in contiguous range");
    freeFrameRange(base, n_pages);
    DMT_AUDIT_EVENT(auditor_);
}

void
BuddyAllocator::freeRuns(std::vector<FrameRun> runs)
{
    InvariantAuditor::Pause pause(auditor_);
    std::sort(runs.begin(), runs.end(),
              [](const FrameRun &a, const FrameRun &b) {
                  return a.base < b.base;
              });
    FrameRun merged;
    for (const FrameRun &run : runs) {
        const Pfn end = merged.base + merged.pages;
        if (merged.pages > 0 && run.base < end) {
            panic("freeRuns: frame 0x%llx released twice",
                  static_cast<unsigned long long>(run.base));
        }
        if (merged.pages > 0 && run.base == end) {
            merged.pages += run.pages;
            continue;
        }
        if (merged.pages > 0)
            freeContig(merged.base, merged.pages);
        merged = run;
    }
    if (merged.pages > 0)
        freeContig(merged.base, merged.pages);
}

bool
BuddyAllocator::expandInPlace(Pfn base, std::uint64_t cur_pages,
                              std::uint64_t extra_pages, FrameKind kind)
{
    const Pfn start = base + cur_pages;
    const Pfn end = start + extra_pages;
    if (end > numFrames_ || firstUsed(start, end) != end)
        return false;
    claimRange(start, end, kind);
    DMT_AUDIT_EVENT(auditor_);
    return true;
}

void
BuddyAllocator::shrinkInPlace(Pfn base, std::uint64_t cur_pages,
                              std::uint64_t new_pages)
{
    DMT_ASSERT(new_pages <= cur_pages, "shrink cannot grow");
    if (new_pages == cur_pages)
        return;
    freeFrameRange(base + new_pages, cur_pages - new_pages);
    DMT_AUDIT_EVENT(auditor_);
}

std::uint64_t
BuddyAllocator::compact(std::uint64_t max_moves)
{
    std::uint64_t moves = 0;
    Pfn freeFinger = 0;
    Pfn moveFinger = numFrames_;
    while (true) {
        if (max_moves && moves >= max_moves)
            break;
        freeFinger = firstFree(freeFinger, numFrames_);
        while (moveFinger > 0 &&
               kinds_[moveFinger - 1] != FrameKind::Movable) {
            --moveFinger;
        }
        if (moveFinger == 0 || freeFinger >= moveFinger - 1)
            break;
        const Pfn src = moveFinger - 1;
        const Pfn dst = freeFinger;
        claimRange(dst, dst + 1, FrameKind::Movable);
        if (relocHook_)
            relocHook_(src, dst);
        freeFrameRange(src, 1);
        ++moves;
    }
    DMT_AUDIT_EVENT(auditor_);
    return moves;
}

double
BuddyAllocator::fragmentationIndex(int order) const
{
    DMT_ASSERT(order >= 0 && order <= maxOrder_, "order out of range");
    // If a block of at least the requested order is free, the request
    // is satisfiable outright.
    for (int o = order; o <= maxOrder_; ++o) {
        if (!freeLists_[o].empty())
            return -1.0;
    }
    std::uint64_t blocksTotal = 0;
    for (int o = 0; o <= maxOrder_; ++o)
        blocksTotal += freeLists_[o].size();
    if (blocksTotal == 0)
        return 1.0;  // out of memory entirely
    const double requested =
        static_cast<double>(std::uint64_t{1} << order);
    const double fi =
        1.0 - (1.0 + static_cast<double>(freeFrames_) / requested) /
                  static_cast<double>(blocksTotal);
    return std::clamp(fi, 0.0, 1.0);
}

void
BuddyAllocator::audit(AuditSink &sink) const
{
    std::vector<bool> covered(numFrames_, false);
    std::uint64_t totalFree = 0;
    for (int order = 0; order <= maxOrder_; ++order) {
        const std::uint64_t n = std::uint64_t{1} << order;
        for (Pfn base : freeLists_[order]) {
            DMT_AUDIT_CHECK(sink, (base & (n - 1)) == 0,
                            "misaligned free block 0x%llx at order %d",
                            static_cast<unsigned long long>(base),
                            order);
            if (base + n > numFrames_) {
                sink.fail("free block 0x%llx (order %d) out of range",
                          static_cast<unsigned long long>(base),
                          order);
                continue;
            }
            // An uncoalesced buddy pair means a free was mis-merged.
            if (order < maxOrder_) {
                const Pfn buddy = base ^ (Pfn{1} << order);
                DMT_AUDIT_CHECK(
                    sink,
                    buddy + n > numFrames_ ||
                        freeLists_[order].count(buddy) == 0 ||
                        buddy < base,
                    "uncoalesced buddies 0x%llx/0x%llx at order %d",
                    static_cast<unsigned long long>(base),
                    static_cast<unsigned long long>(buddy), order);
            }
            for (std::uint64_t i = 0; i < n; ++i) {
                DMT_AUDIT_CHECK(sink, !covered[base + i],
                                "overlapping free blocks at 0x%llx",
                                static_cast<unsigned long long>(
                                    base + i));
                DMT_AUDIT_CHECK(
                    sink, kinds_[base + i] == FrameKind::Free,
                    "free block covers allocated frame 0x%llx "
                    "(double free?)",
                    static_cast<unsigned long long>(base + i));
                covered[base + i] = true;
            }
            totalFree += n;
        }
    }
    DMT_AUDIT_CHECK(sink, totalFree == freeFrames_,
                    "free frame accounting mismatch: lists hold "
                    "%llu, counter says %llu",
                    static_cast<unsigned long long>(totalFree),
                    static_cast<unsigned long long>(freeFrames_));
    std::uint64_t allocated = 0;
    std::uint64_t chunkFree = 0;
    for (Pfn i = 0; i < numFrames_; ++i) {
        if (kinds_[i] == FrameKind::Free) {
            DMT_AUDIT_CHECK(sink, covered[i],
                            "free frame 0x%llx not in any free list",
                            static_cast<unsigned long long>(i));
            ++chunkFree;
        } else {
            ++allocated;
        }
        // A stale count would let first fit skip a free run or take
        // a used one.
        if ((i & chunkMask) == chunkMask || i + 1 == numFrames_) {
            const std::size_t c = i >> chunkShift;
            DMT_AUDIT_CHECK(sink, chunkFree_[c] == chunkFree,
                            "chunk %zu summary holds %u free frames, "
                            "its kinds %llu",
                            c, static_cast<unsigned>(chunkFree_[c]),
                            static_cast<unsigned long long>(chunkFree));
            chunkFree = 0;
        }
    }
    DMT_AUDIT_CHECK(sink, allocated + freeFrames_ == numFrames_,
                    "allocated (%llu) + free (%llu) frames != "
                    "physical size (%llu)",
                    static_cast<unsigned long long>(allocated),
                    static_cast<unsigned long long>(freeFrames_),
                    static_cast<unsigned long long>(numFrames_));
}

void
BuddyAllocator::checkConsistency() const
{
    const auto found = InvariantAuditor::runHook(
        [this](AuditSink &sink) { audit(sink); });
    if (!found.empty()) {
        panic("buddy allocator corrupt (%zu violations): %s",
              found.size(), found.front().detail.c_str());
    }
}

} // namespace dmt
