#include "mem/physical_memory.hh"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

#include "common/log.hh"

namespace dmt
{

PhysicalMemory::PhysicalMemory(Addr size_bytes) : size_(size_bytes)
{
    DMT_ASSERT(size_bytes > 0, "physical memory must be non-empty");
    const std::size_t frames =
        static_cast<std::size_t>((size_bytes + frameBytes - 1) >>
                                 frameShift);
    // Round the store up to whole frames so in-range word indexing
    // never runs off the mapping even for a non-frame-multiple size.
    mappedBytes_ = frames * static_cast<std::size_t>(frameBytes);
    // Anonymous no-reserve mapping: every page reads as zero until
    // written, and the kernel commits host RAM only for pages that
    // are. This is what keeps a multi-GB simulated memory cheap while
    // read64 stays a single indexed load.
    void *map = ::mmap(nullptr, mappedBytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                       -1, 0);
    if (map == MAP_FAILED)
        panic("cannot map 0x%llx bytes of simulated physical memory",
              static_cast<unsigned long long>(mappedBytes_));
    words_ = static_cast<std::uint64_t *>(map);
#ifdef MADV_HUGEPAGE
    // A multi-GB sparse mapping touched 8 bytes at a time is host-TLB
    // hostile with 4 KB host pages; huge-page backing keeps read64's
    // single load from stalling on dTLB walks. Advisory only.
    ::madvise(map, mappedBytes_, MADV_HUGEPAGE);
#endif
    frameLive_.assign(frames, 0);
    frameNonzero_.assign(frames, 0);
}

PhysicalMemory::~PhysicalMemory()
{
    if (words_)
        ::munmap(words_, mappedBytes_);
}

void
PhysicalMemory::checkAccess(Addr pa) const
{
    if (pa + 8 > size_)
        panic("physical access 0x%llx beyond memory size 0x%llx",
              static_cast<unsigned long long>(pa),
              static_cast<unsigned long long>(size_));
    if (pa & 7)
        panic("unaligned 64-bit physical access at 0x%llx",
              static_cast<unsigned long long>(pa));
}

void
PhysicalMemory::checkRange(Addr pa, Addr bytes, const char *what) const
{
    if (pa + bytes < pa || pa + bytes > size_)
        panic("%s [0x%llx, +0x%llx) beyond memory size 0x%llx", what,
              static_cast<unsigned long long>(pa),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(size_));
}

void
PhysicalMemory::write64(Addr pa, std::uint64_t value)
{
    checkAccess(pa);
    const std::size_t frame =
        static_cast<std::size_t>(pa >> frameShift);
    if (!frameLive_[frame]) {
        if (value == 0)
            return;  // zero into an unmaterialised frame: no-op
        frameLive_[frame] = 1;
        ++framesInUse_;
    }
    std::uint64_t &slot = words_[pa >> 3];
    if (value != 0 && slot == 0) {
        ++frameNonzero_[frame];
        ++nonzeroWords_;
    } else if (value == 0 && slot != 0) {
        --frameNonzero_[frame];
        --nonzeroWords_;
    }
    slot = value;
}

void
PhysicalMemory::readWords(Addr pa, std::uint64_t *out,
                          std::size_t n) const
{
    if (n == 0)
        return;
    checkAccess(pa);
    checkRange(pa, Addr{n} * 8, "readWords");
    std::memcpy(out, words_ + (pa >> 3), n * 8);
}

void
PhysicalMemory::writeWords(Addr pa, const std::uint64_t *in,
                           std::size_t n)
{
    if (n == 0)
        return;
    checkAccess(pa);
    checkRange(pa, Addr{n} * 8, "writeWords");
    while (n > 0) {
        const std::size_t chunk = std::min<std::size_t>(
            n, static_cast<std::size_t>(
                   (frameBytes - (pa & frameMask)) >> 3));
        const std::size_t frame =
            static_cast<std::size_t>(pa >> frameShift);
        bool live = frameLive_[frame] != 0;
        if (!live) {
            // write64() materialises a frame on its first nonzero
            // word; zeros before it land on zeros and change nothing.
            live = std::any_of(in, in + chunk,
                               [](std::uint64_t v) { return v != 0; });
            if (live) {
                frameLive_[frame] = 1;
                ++framesInUse_;
            }
        }
        if (live) {
            std::uint64_t *to = words_ + (pa >> 3);
            std::size_t delta = 0;  // nonzero words, new minus old
            for (std::size_t w = 0; w < chunk; ++w) {
                delta += (in[w] != 0) ? 1 : 0;
                delta -= (to[w] != 0) ? 1 : 0;
            }
            std::memcpy(to, in, chunk * 8);
            frameNonzero_[frame] += static_cast<std::uint32_t>(delta);
            nonzeroWords_ += delta;
        }
        pa += Addr{chunk} * 8;
        in += chunk;
        n -= chunk;
    }
}

void
PhysicalMemory::zeroWithinFrame(Addr pa, Addr bytes)
{
    const std::size_t frame =
        static_cast<std::size_t>(pa >> frameShift);
    if (!frameLive_[frame] || frameNonzero_[frame] == 0)
        return;
    std::uint64_t *span = words_ + (pa >> 3);
    const std::size_t count = static_cast<std::size_t>(bytes >> 3);
    for (std::size_t w = 0; w < count; ++w) {
        if (span[w] != 0) {
            --frameNonzero_[frame];
            --nonzeroWords_;
        }
    }
    std::memset(span, 0, count * 8);
}

void
PhysicalMemory::dropFrame(Addr frame)
{
    const std::size_t f = static_cast<std::size_t>(frame);
    if (!frameLive_[f])
        return;
    if (frameNonzero_[f] != 0) {
        nonzeroWords_ -= frameNonzero_[f];
        frameNonzero_[f] = 0;
        std::memset(words_ + f * frameWords, 0, frameBytes);
    }
    frameLive_[f] = 0;
    --framesInUse_;
}

void
PhysicalMemory::zeroRange(Addr pa, Addr bytes)
{
    DMT_ASSERT((pa & 7) == 0 && (bytes & 7) == 0,
               "zeroRange must be word aligned");
    checkRange(pa, bytes, "zeroRange");
    const Addr end = pa + bytes;
    while (pa < end) {
        const Addr frameEnd = (pa & ~frameMask) + frameBytes;
        const Addr chunkEnd = std::min(end, frameEnd);
        if (pa == (pa & ~frameMask) && chunkEnd == frameEnd) {
            // Whole frame: drop it (reads as zero again).
            dropFrame(pa >> frameShift);
        } else {
            zeroWithinFrame(pa, chunkEnd - pa);
        }
        pa = chunkEnd;
    }
}

void
PhysicalMemory::copyRange(Addr dst, Addr src, Addr bytes)
{
    DMT_ASSERT((dst & 7) == 0 && (src & 7) == 0 && (bytes & 7) == 0,
               "copyRange must be word aligned");
    DMT_ASSERT(dst + bytes <= src || src + bytes <= dst,
               "copyRange ranges must not overlap");
    checkRange(dst, bytes, "copyRange dst");
    checkRange(src, bytes, "copyRange src");
    while (bytes > 0) {
        // Chunks never straddle a frame boundary on either side.
        const Addr chunk =
            std::min({bytes, frameBytes - (dst & frameMask),
                      frameBytes - (src & frameMask)});
        const std::size_t sf =
            static_cast<std::size_t>(src >> frameShift);
        if (frameNonzero_[sf] == 0) {
            // Source reads as zero: equivalent to zeroing dst.
            if (dst == (dst & ~frameMask) && chunk == frameBytes)
                dropFrame(dst >> frameShift);
            else
                zeroWithinFrame(dst, chunk);
        } else {
            const std::size_t df =
                static_cast<std::size_t>(dst >> frameShift);
            if (!frameLive_[df]) {
                frameLive_[df] = 1;
                ++framesInUse_;
            }
            const std::size_t words =
                static_cast<std::size_t>(chunk >> 3);
            const std::uint64_t *from = words_ + (src >> 3);
            std::uint64_t *to = words_ + (dst >> 3);
            std::size_t delta = 0;  // nonzero words, new minus old
            for (std::size_t w = 0; w < words; ++w) {
                delta += (from[w] != 0) ? 1 : 0;
                delta -= (to[w] != 0) ? 1 : 0;
            }
            std::memcpy(to, from, chunk);
            frameNonzero_[df] += static_cast<std::uint32_t>(delta);
            nonzeroWords_ += delta;
        }
        dst += chunk;
        src += chunk;
        bytes -= chunk;
    }
}

} // namespace dmt
