#include "mem/physical_memory.hh"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

#include "common/log.hh"

namespace dmt
{

PhysicalMemory::PhysicalMemory(Addr size_bytes)
    : size_(size_bytes), pool_(FramePool::shared())
{
    DMT_ASSERT(size_bytes > 0, "physical memory must be non-empty");
    const std::size_t frames =
        static_cast<std::size_t>((size_bytes + frameBytes - 1) >>
                                 frameShift);
    // Anonymous no-reserve mapping: every entry reads as the zero
    // slot until written, and the kernel commits host RAM only for
    // the directory pages that are.
    dirBytes_ = frames * sizeof(Slot);
    void *map = ::mmap(nullptr, dirBytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                       -1, 0);
    if (map == MAP_FAILED)
        panic("cannot map the frame directory of 0x%llx bytes of "
              "simulated physical memory",
              static_cast<unsigned long long>(size_bytes));
    dir_ = static_cast<Slot *>(map);
}

PhysicalMemory::~PhysicalMemory()
{
    pool_.give(slots_.data(), slots_.size());
    ::munmap(dir_, dirBytes_);
}

void
PhysicalMemory::checkAccess(Addr pa) const
{
    if (pa >= size_ || size_ - pa < 8)
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
    if (pa > size_ || bytes > size_ - pa)
        panic("%s [0x%llx, +0x%llx) beyond memory size 0x%llx", what,
              static_cast<unsigned long long>(pa),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(size_));
}

PhysicalMemory::Slot
PhysicalMemory::materialise(std::size_t frame)
{
    Slot slot;
    if (!spare_.empty()) {
        slot = spare_.back();
        spare_.pop_back();
    } else {
        slot = pool_.take();
        slots_.push_back(slot);
    }
    dir_[frame] = slot;
    ++framesInUse_;
    return slot;
}

void
PhysicalMemory::write64(Addr pa, std::uint64_t value)
{
    checkAccess(pa);
    const std::size_t frame =
        static_cast<std::size_t>(pa >> frameShift);
    Slot slot = dir_[frame];
    if (slot == FramePool::zeroSlot) {
        if (value == 0)
            return;  // zero into an unmaterialised frame: no-op
        slot = materialise(frame);
    }
    std::uint64_t &word = pool_.frame(slot)[(pa & frameMask) >> 3];
    std::uint32_t &nonzero = pool_.nonzero(slot);
    if (value != 0 && word == 0) {
        ++nonzero;
        ++nonzeroWords_;
    } else if (value == 0 && word != 0) {
        --nonzero;
        --nonzeroWords_;
    }
    word = value;
}

void
PhysicalMemory::readWords(Addr pa, std::uint64_t *out,
                          std::size_t n) const
{
    if (n == 0)
        return;
    checkAccess(pa);
    checkRange(pa, Addr{n} * 8, "readWords");
    while (n > 0) {
        const std::size_t chunk = std::min<std::size_t>(
            n, static_cast<std::size_t>(
                   (frameBytes - (pa & frameMask)) >> 3));
        std::memcpy(out, wordAt(pa), chunk * 8);
        pa += Addr{chunk} * 8;
        out += chunk;
        n -= chunk;
    }
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
        Slot slot = dir_[frame];
        // write64() materialises a frame on its first nonzero word;
        // zeros before it land on zeros and change nothing.
        if (slot == FramePool::zeroSlot &&
            std::any_of(in, in + chunk,
                        [](std::uint64_t v) { return v != 0; }))
            slot = materialise(frame);
        if (slot != FramePool::zeroSlot) {
            std::uint64_t *to = wordAt(pa);
            std::size_t delta = 0;  // nonzero words, new minus old
            for (std::size_t w = 0; w < chunk; ++w) {
                delta += (in[w] != 0) ? 1 : 0;
                delta -= (to[w] != 0) ? 1 : 0;
            }
            std::memcpy(to, in, chunk * 8);
            pool_.nonzero(slot) += static_cast<std::uint32_t>(delta);
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
    const Slot slot = dir_[pa >> frameShift];
    if (slot == FramePool::zeroSlot || pool_.nonzero(slot) == 0)
        return;
    std::uint64_t *span = wordAt(pa);
    const std::size_t count = static_cast<std::size_t>(bytes >> 3);
    for (std::size_t w = 0; w < count; ++w) {
        if (span[w] != 0) {
            --pool_.nonzero(slot);
            --nonzeroWords_;
        }
    }
    std::memset(span, 0, count * 8);
}

void
PhysicalMemory::dropFrame(Addr frame)
{
    const std::size_t f = static_cast<std::size_t>(frame);
    const Slot slot = dir_[f];
    if (slot == FramePool::zeroSlot)
        return;
    nonzeroWords_ -= pool_.nonzero(slot);
    pool_.scrub(slot);
    dir_[f] = FramePool::zeroSlot;
    spare_.push_back(slot);
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
        const Slot srcSlot = dir_[src >> frameShift];
        if (pool_.nonzero(srcSlot) == 0) {
            // Source reads as zero (the zero slot's count is 0 too):
            // equivalent to zeroing dst.
            if (dst == (dst & ~frameMask) && chunk == frameBytes)
                dropFrame(dst >> frameShift);
            else
                zeroWithinFrame(dst, chunk);
        } else {
            const std::size_t df =
                static_cast<std::size_t>(dst >> frameShift);
            Slot dstSlot = dir_[df];
            if (dstSlot == FramePool::zeroSlot)
                dstSlot = materialise(df);
            const std::size_t words =
                static_cast<std::size_t>(chunk >> 3);
            const std::uint64_t *from = wordAt(src);
            std::uint64_t *to = wordAt(dst);
            std::size_t delta = 0;  // nonzero words, new minus old
            for (std::size_t w = 0; w < words; ++w) {
                delta += (from[w] != 0) ? 1 : 0;
                delta -= (to[w] != 0) ? 1 : 0;
            }
            std::memcpy(to, from, chunk);
            pool_.nonzero(dstSlot) += static_cast<std::uint32_t>(delta);
            nonzeroWords_ += delta;
        }
        dst += chunk;
        src += chunk;
        bytes -= chunk;
    }
}

} // namespace dmt
