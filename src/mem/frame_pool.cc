#include "mem/frame_pool.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include <sys/mman.h>
#include <unistd.h>

#include "common/log.hh"

namespace dmt
{

namespace
{

void *
mapNoReserve(std::size_t bytes, const char *what)
{
    void *map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                       -1, 0);
    if (map == MAP_FAILED)
        panic("cannot reserve 0x%llx bytes for the %s",
              static_cast<unsigned long long>(bytes), what);
    return map;
}

} // namespace

FramePool &
FramePool::shared()
{
    // dmtlint: allow(shared-mutable-static) -- the one host frame pool
    // of the process: its free list is mutex-guarded, a slot is only
    // ever touched by the memory holding it, and slots come back
    // zeroed, so no cell can see what another cell left behind
    static FramePool pool;
    return pool;
}

FramePool::FramePool()
{
    // One slot per 4 KB of the machine's RAM: more frames than that
    // could never be resident at once anyway.
    const long pages = ::sysconf(_SC_PHYS_PAGES);
    const long pageBytes = ::sysconf(_SC_PAGESIZE);
    if (pages <= 0 || pageBytes <= 0)
        panic("cannot size the host frame pool: sysconf reports no "
              "physical memory");
    const unsigned long long frames =
        static_cast<unsigned long long>(pages) *
        static_cast<unsigned long long>(pageBytes) / (frameWords * 8);
    capacity_ = static_cast<Slot>(std::min<unsigned long long>(
        frames, std::numeric_limits<Slot>::max()));

    const std::size_t bytes = std::size_t{capacity_} * frameWords * 8;
    words_ = static_cast<std::uint64_t *>(
        mapNoReserve(bytes, "host frame pool"));
#ifdef MADV_HUGEPAGE
    // Slots are handed out densely from the bottom, so huge host
    // pages here back materialised frames only: they cost no RSS the
    // frames would not, and keep the walkers' loads off dTLB walks.
    // Advisory only.
    ::madvise(words_, bytes, MADV_HUGEPAGE);
#endif
    nonzero_ = static_cast<std::uint32_t *>(mapNoReserve(
        std::size_t{capacity_} * sizeof(std::uint32_t),
        "host frame pool counts"));
}

FramePool::~FramePool()
{
    ::munmap(words_, std::size_t{capacity_} * frameWords * 8);
    ::munmap(nonzero_, std::size_t{capacity_} * sizeof(std::uint32_t));
}

void
FramePool::scrub(Slot s)
{
    if (nonzero_[s] != 0) {
        std::memset(frame(s), 0, frameWords * 8);
        nonzero_[s] = 0;
    }
}

FramePool::Slot
FramePool::take()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
        const Slot s = free_.back();
        free_.pop_back();
        return s;
    }
    if (next_ >= capacity_)
        panic("host frame pool exhausted: all %u frames (the machine's "
              "physical memory) hold simulated state",
              static_cast<unsigned>(capacity_ - 1));
    return next_++;
}

void
FramePool::give(const Slot *slots, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        scrub(slots[i]);
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.insert(free_.end(), slots, slots + n);
}

FramePool::Slot
FramePool::highWater() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_;
}

} // namespace dmt
