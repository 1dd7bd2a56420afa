/**
 * @file
 * The worker pool behind the campaign and the node sweep: jobs are
 * shared-nothing (a cell, a sweep point) and each keeps its result at
 * its own index, so a merged report never depends on the thread
 * count or on the order in which jobs finish.
 */

#ifndef DMT_DRIVER_POOL_HH
#define DMT_DRIVER_POOL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace dmt
{
namespace driver
{

/**
 * Run `job(i)` for every i in [0, count) on up to `threads` worker
 * threads (at least one; a single worker runs on the caller), handing
 * out indices in order. After job i, `done(i, finished)` runs under a
 * lock, `finished` counting the jobs completed so far.
 */
template <class Job, class Done>
void
runJobs(std::size_t count, unsigned threads, const Job &job,
        const Done &done)
{
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::mutex doneMutex;
    auto worker = [&]() {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            job(i);
            const std::size_t n = finished.fetch_add(1) + 1;
            const std::lock_guard<std::mutex> lock(doneMutex);
            done(i, n);
        }
    };
    threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(threads, 1u), count));
    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
}

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_POOL_HH
