/**
 * @file
 * Concurrency stress tests for the parallel campaign runner and the
 * shared state it leans on (stats snapshots, log verbosity). These
 * are primarily ThreadSanitizer targets: the CI TSan leg builds with
 * -DDMT_SANITIZE=thread and runs `ctest -L concurrency`, so every
 * race these tests can provoke is a hard failure there. They also
 * assert the determinism side of the contract — worker scheduling
 * must never change a byte of the merged report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "driver/campaign.hh"
#include "host/sweep.hh"
#include "mem/physical_memory.hh"
#include "sim/testbed.hh"
#include "workloads/workloads.hh"

using namespace dmt;
using namespace dmt::driver;

namespace
{

CampaignConfig
smallCampaign()
{
    CampaignConfig cfg;
    cfg.workloads = {"GUPS", "BTree"};
    cfg.envs = {CampaignEnv::Native, CampaignEnv::Virt};
    cfg.designs = {Design::Vanilla, Design::Dmt};
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 500;
    cfg.sim.measureAccesses = 2'000;
    return cfg;
}

/**
 * The progress callback is documented as serialized across workers:
 * it mutates shared, unguarded state here on purpose, so a missing
 * lock in runCampaign() is a TSan report and a garbled `done`
 * sequence is an assertion failure.
 */
TEST(Concurrency, ProgressCallbackIsSerializedAcrossWorkers)
{
    const CampaignConfig cfg = smallCampaign();
    std::vector<std::size_t> done_order;
    std::size_t seen_total = 0;
    const auto results = runCampaign(
        cfg, 4,
        [&](const CellResult &, std::size_t done, std::size_t total) {
            done_order.push_back(done);
            seen_total = total;
        });
    ASSERT_EQ(results.size(), 8u);
    EXPECT_EQ(seen_total, results.size());
    ASSERT_EQ(done_order.size(), results.size());
    // Completion order is scheduling-dependent, but the serialized
    // `done` counter must tick 1..total exactly once each.
    std::vector<std::size_t> sorted = done_order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i + 1);
}

/** Scheduling stress: oversubscribed pool, report still identical. */
TEST(Concurrency, OversubscribedPoolKeepsReportByteIdentical)
{
    const CampaignConfig cfg = smallCampaign();
    const auto two = runCampaign(cfg, 2);
    // Many more threads than cells: maximal scheduling freedom.
    const auto many = runCampaign(cfg, 16);
    std::ostringstream a, b;
    emitCampaignJson(a, cfg, two);
    emitCampaignJson(b, cfg, many);
    EXPECT_EQ(a.str(), b.str());
}

/**
 * The shared-nothing stats pattern: every worker samples into a
 * private StatGroup and hands a snapshot to the aggregator; merging
 * snapshots in canonical order must equal the serial result no
 * matter how the workers were scheduled.
 */
TEST(Concurrency, SnapshotMergeMatchesSerialAggregation)
{
    constexpr int kWorkers = 8;
    constexpr int kSamples = 1'000;
    std::vector<std::map<std::string, ScalarStat>> slots(kWorkers);
    std::vector<std::thread> pool;
    pool.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
        pool.emplace_back([w, &slots] {
            StatGroup local("worker");
            for (int i = 0; i < kSamples; ++i) {
                local.scalar("walks").inc();
                local.scalar("latency").sample(w * kSamples + i);
            }
            slots[w] = local.snapshot();
        });
    }
    for (auto &t : pool)
        t.join();

    StatGroup merged("campaign");
    for (const auto &snap : slots)
        for (const auto &[name, stat] : snap)
            merged.scalar(name).merge(stat);

    EXPECT_EQ(merged.get("walks").count(),
              Counter{kWorkers} * kSamples);
    EXPECT_EQ(merged.get("latency").min(), 0.0);
    EXPECT_EQ(merged.get("latency").max(),
              double(kWorkers * kSamples - 1));
    const double n = double(kWorkers) * kSamples;
    EXPECT_DOUBLE_EQ(merged.get("latency").sum(),
                     n * (n - 1) / 2.0);
}

/**
 * The log verbosity gate is the one piece of global state the
 * parallel runner is allowed to share (src/common/log is exempt from
 * the shared-mutable-static lint rule for exactly this reason): it
 * must stay race-free when workers log while another thread adjusts
 * the level. Quiet/Warn keep the hammer silent in test output.
 */
TEST(Concurrency, LogLevelGateIsRaceFree)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    std::vector<std::thread> pool;
    for (int w = 0; w < 2; ++w) {
        pool.emplace_back([] {
            for (int i = 0; i < 2'000; ++i) {
                inform("concurrency hammer %d", i);
                debugLog("concurrency hammer %d", i);
            }
        });
    }
    pool.emplace_back([] {
        for (int i = 0; i < 2'000; ++i)
            setLogLevel(i % 2 ? LogLevel::Quiet : LogLevel::Warn);
    });
    for (auto &t : pool)
        t.join();
    setLogLevel(before);
    EXPECT_EQ(logLevel(), before);
}

/**
 * Every PhysicalMemory takes and returns 4 KB frames through one
 * process-wide pool. Four threads build, fill, verify and destroy
 * memories in a loop, so slots released on one thread are taken on
 * another: a race on the free list is a TSan report, and a slot that
 * comes back dirty or is handed to two memories at once shows up as
 * a word that does not read back.
 */
TEST(Concurrency, FramePoolIsSharedSafelyAcrossThreads)
{
    constexpr int kThreads = 4;
    constexpr int kRounds = 30;
    constexpr Addr kFrames = 64;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t, &mismatches] {
            std::size_t bad = 0;
            for (int r = 0; r < kRounds; ++r) {
                PhysicalMemory mem(kFrames * pageSize);
                const auto word = [&](Addr pa) -> std::uint64_t {
                    return (std::uint64_t(t + 1) << 48) |
                           (std::uint64_t(r) << 32) | (pa | 1);
                };
                // Odd frames get a full page, even frames one word.
                std::vector<std::uint64_t> run(pageSize / 8);
                for (Addr f = 0; f < kFrames; ++f) {
                    const Addr base = f * pageSize;
                    if (f % 2) {
                        for (Addr w = 0; w < run.size(); ++w)
                            run[w] = word(base + 8 * w);
                        mem.writeWords(base, run.data(), run.size());
                    } else {
                        mem.write64(base + 8 * (f % 512), word(base));
                    }
                }
                // Drop a quarter of the frames, then refill them
                // from the memory's own released slots.
                mem.zeroRange(0, kFrames / 4 * pageSize);
                for (Addr f = 0; f < kFrames / 4; ++f)
                    mem.write64(f * pageSize + 8, word(f));
                for (Addr pa = 0; pa < kFrames * pageSize; pa += 8) {
                    const Addr f = pa / pageSize;
                    std::uint64_t want = 0;
                    if (f < kFrames / 4)
                        want = (pa == f * pageSize + 8) ? word(f) : 0;
                    else if (f % 2)
                        want = word(pa);
                    else if (pa == f * pageSize + 8 * (f % 512))
                        want = word(f * pageSize);
                    bad += mem.read64(pa) != want;
                }
                if (mem.framesInUse() != kFrames)
                    ++bad;
            }
            mismatches[t] = bad;
        });
    }
    for (auto &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

void
expectManagementKeys(const StatGroup &g,
                     const std::vector<std::string> &tea_prefixes,
                     const std::vector<std::string> &map_prefixes)
{
    // One key per TeaStats/MappingStats counter: the registration
    // surface the dmtlint `stat-registration` rule pins down.
    const std::vector<std::string> tea_keys = {
        "creates",       "deletes",        "expands_in_place",
        "migrations",    "migrated_table_pages",
        "alloc_failures", "adopted_tables"};
    const std::vector<std::string> map_keys = {
        "reconciles", "merges", "splits", "uncovered"};
    for (const auto &prefix : tea_prefixes)
        for (const auto &key : tea_keys)
            EXPECT_TRUE(g.has(prefix + "." + key))
                << prefix << "." << key;
    for (const auto &prefix : map_prefixes)
        for (const auto &key : map_keys)
            EXPECT_TRUE(g.has(prefix + "." + key))
                << prefix << "." << key;
}

/** Every management counter reaches the snapshot surface. */
TEST(Concurrency, ManagementStatsRegisterEveryCounter)
{
    {
        auto wl = makeWorkload("GUPS", 1.0 / 1024.0);
        NativeTestbed tb(wl->footprintBytes(), {});
        tb.attachDmt();
        wl->setup(tb.proc());
        tb.build(Design::Dmt);
        StatGroup g("native");
        tb.managementStats(g);
        expectManagementKeys(g, {"tea"}, {"mapping"});
    }
    {
        auto wl = makeWorkload("GUPS", 1.0 / 1024.0);
        VirtTestbed tb(wl->footprintBytes(), {});
        tb.attachDmt(true);
        wl->setup(tb.proc());
        tb.build(Design::PvDmt);
        StatGroup g("virt");
        tb.managementStats(g);
        expectManagementKeys(g, {"tea.host", "tea.guest"},
                             {"mapping.host", "mapping.guest"});
    }
    {
        auto wl = makeWorkload("GUPS", 1.0 / 1024.0);
        NestedTestbed tb(wl->footprintBytes(), {});
        tb.attachPvDmt();
        wl->setup(tb.proc());
        tb.build(Design::PvDmt);
        StatGroup g("nested");
        tb.managementStats(g);
        expectManagementKeys(
            g, {"tea.l0", "tea.l1", "tea.l2"},
            {"mapping.l0", "mapping.l1", "mapping.l2"});
    }
}

/**
 * The dmt-node sweep carries the same contract as the campaign: each
 * sweep point is a shared-nothing HostNode with identity-only tenant
 * seeds, so the merged dmt-node-v1 report must be byte-identical for
 * any worker count — including oversubscription. Runs under the CI
 * TSan leg via the `concurrency` label, so a data race between
 * concurrently running nodes is a hard failure here too.
 */
TEST(Concurrency, NodeSweepReportByteIdenticalAcrossThreadCounts)
{
    host::NodeSweepConfig cfg;
    cfg.tenantsPerCore = {1, 2, 4, 8};
    cfg.cores = 2;
    cfg.workloads = {"GUPS", "BTree"};
    cfg.sliceAccesses = 128;
    cfg.migrateEveryRounds = 4;
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 200;
    cfg.sim.measureAccesses = 1'000;

    const auto serial = host::runNodeSweep(cfg, 1);
    const auto parallel = host::runNodeSweep(cfg, 4);
    const auto oversubscribed = host::runNodeSweep(cfg, 16);

    std::ostringstream a, b, c;
    host::emitNodeJson(a, cfg, serial);
    host::emitNodeJson(b, cfg, parallel);
    host::emitNodeJson(c, cfg, oversubscribed);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.str(), c.str());
}

} // namespace
