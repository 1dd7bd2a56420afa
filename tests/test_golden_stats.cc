/**
 * @file
 * Golden-stat regression tests (`ctest -L perf`).
 *
 * Replays a checked-in recorded trace (tests/data/golden_gups.dmttrace)
 * through a fixed native testbed and asserts that every hit/miss
 * counter in the resulting StatGroup snapshot matches the committed
 * golden JSON, counter for counter. Any behavioural drift in the hot
 * path — TLB replacement, cache indexing, walk lengths, physical
 * memory contents — shows up here as an exact counter diff, even when
 * the aggregate campaign comparison might mask it at small scale.
 * Two more goldens pin the set-up state of a virt and a nested pvDMT
 * cell, one pair with 4 KB pages and one with THP (materialised
 * frames and words, table pages, leaves, data frames and huge
 * mappings, free frames and free blocks per order), which no
 * access-loop counter reaches.
 *
 * Regenerate the goldens (after an *intentional* behaviour change)
 * with:
 *   DMT_UPDATE_GOLDEN=1 ./build/tests/dmt_perf_tests
 * and commit the rewritten files under tests/data/.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/stats.hh"
#include "driver/json.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/trace_file.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

constexpr double kScale = 1.0 / 256.0;
constexpr std::uint64_t kSeed = 1234;
constexpr std::uint64_t kWarmup = 5'000;
constexpr std::uint64_t kMeasure = 30'000;

std::string
dataPath(const std::string &file)
{
    return std::string(DMT_TEST_DATA_DIR) + "/" + file;
}

bool
updateGoldens()
{
    const char *env = std::getenv("DMT_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/**
 * Run the fixed configuration for one design and collect every
 * hit/miss counter into a StatGroup.
 */
StatGroup
runGolden(Design design)
{
    auto workload = makeWorkload("GUPS", kScale);
    NativeTestbed tb(workload->footprintBytes(),
                     scaledTestbedConfig(kScale));
    if (design == Design::Dmt)
        tb.attachDmt();
    workload->setup(tb.proc());
    auto &mech = tb.build(design);

    const std::string tracePath = dataPath("golden_gups.dmttrace");
    if (updateGoldens()) {
        auto source = workload->trace(kSeed);
        recordTrace(*source, kWarmup + kMeasure, tracePath);
    }
    FileTrace trace(tracePath);

    TranslationSimulator sim(mech, tb.tlbs(), tb.caches());
    SimConfig config;
    config.warmupAccesses = kWarmup;
    config.measureAccesses = kMeasure;
    const SimResult res = sim.run(trace, config);

    StatGroup stats("golden");
    auto set = [&stats](const std::string &name, std::uint64_t v) {
        stats.scalar(name).inc(static_cast<double>(v));
    };
    set("sim.accesses", res.accesses);
    set("sim.l1_tlb_hits", res.l1TlbHits);
    set("sim.l2_tlb_hits", res.l2TlbHits);
    set("sim.walks", res.walks);
    set("sim.fallbacks", res.fallbacks);
    set("sim.seq_refs", res.seqRefs);
    set("sim.parallel_refs", res.parallelRefs);
    set("sim.walk_cycles",
        static_cast<std::uint64_t>(res.walkCycles));
    set("tlb.l1d.hits", tb.tlbs().l1d().hits());
    set("tlb.l1d.misses", tb.tlbs().l1d().misses());
    set("tlb.stlb.hits", tb.tlbs().stlb().hits());
    set("tlb.stlb.misses", tb.tlbs().stlb().misses());
    set("cache.l1d.hits", tb.caches().l1d().hits());
    set("cache.l1d.misses", tb.caches().l1d().misses());
    set("cache.l2.hits", tb.caches().l2().hits());
    set("cache.l2.misses", tb.caches().l2().misses());
    set("cache.llc.hits", tb.caches().llc().hits());
    set("cache.llc.misses", tb.caches().llc().misses());
    set("hierarchy.accesses", tb.caches().accesses());
    set("hierarchy.memory_accesses", tb.caches().memoryAccesses());
    set("mem.words_in_use", tb.mem().wordsInUse());
    return stats;
}

void
writeGolden(const std::string &path, const std::string &design,
            const StatGroup &stats)
{
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "dmt-golden-stats-v1");
    json.field("design", design);
    json.key("stats");
    json.beginObject();
    for (const auto &[name, stat] : stats.snapshot())
        json.field(name,
                   static_cast<std::uint64_t>(stat.sum()));
    json.endObject();
    json.endObject();
    os << "\n";
}

/** Parse the flat `"name": integer` pairs of a golden document. */
std::map<std::string, std::uint64_t>
readGolden(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "missing golden file " << path
                           << " (run with DMT_UPDATE_GOLDEN=1)";
    std::map<std::string, std::uint64_t> out;
    std::string line;
    while (std::getline(is, line)) {
        const auto q1 = line.find('"');
        if (q1 == std::string::npos)
            continue;
        const auto q2 = line.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        const auto colon = line.find(':', q2);
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(q1 + 1, q2 - q1 - 1);
        const char *v = line.c_str() + colon + 1;
        char *end = nullptr;
        const std::uint64_t value = std::strtoull(v, &end, 10);
        if (end == v || v == nullptr)
            continue;  // non-numeric value ("schema", "design")
        out[key] = value;
    }
    return out;
}

/**
 * Compare `stats` with the golden file (rewriting it first under
 * DMT_UPDATE_GOLDEN).
 */
void
expectMatchesGolden(const std::string &goldenPath,
                    const std::string &designToken,
                    const StatGroup &stats)
{
    if (updateGoldens())
        writeGolden(goldenPath, designToken, stats);
    const auto golden = readGolden(goldenPath);
    ASSERT_FALSE(golden.empty()) << "empty golden " << goldenPath;
    const auto snapshot = stats.snapshot();
    // Every golden counter must exist and match exactly, and no
    // measured counter may be missing from the golden (so adding a
    // counter forces a deliberate regeneration).
    EXPECT_EQ(golden.size(), snapshot.size());
    for (const auto &[name, want] : golden) {
        ASSERT_TRUE(stats.has(name)) << "missing counter " << name;
        EXPECT_EQ(static_cast<std::uint64_t>(
                      stats.get(name).sum()),
                  want)
            << "counter " << name << " drifted";
    }
}

void
checkAgainstGolden(Design design, const std::string &designToken)
{
    expectMatchesGolden(dataPath("golden_stats_" + designToken + ".json"),
                        designToken, runGolden(design));
}

TEST(GoldenStats, VanillaCountersMatchGolden)
{
    checkAgainstGolden(Design::Vanilla, "vanilla");
}

TEST(GoldenStats, DmtCountersMatchGolden)
{
    checkAgainstGolden(Design::Dmt, "dmt");
}

/** Record one space's page-table shape and frames under `prefix`. */
void
addSpace(StatGroup &stats, const std::string &prefix,
         const AddressSpace &space)
{
    stats.scalar(prefix + ".table_pages")
        .inc(static_cast<double>(space.pageTable().tablePages()));
    stats.scalar(prefix + ".mapped_leaves")
        .inc(static_cast<double>(space.pageTable().mappedLeaves()));
    stats.scalar(prefix + ".data_frames")
        .inc(static_cast<double>(space.dataFrames()));
    stats.scalar(prefix + ".huge_mappings")
        .inc(static_cast<double>(space.hugeMappings()));
}

/**
 * Record one allocator's free frames and its free blocks per order
 * under `prefix`: the free lists decide which frames come next.
 */
void
addAllocator(StatGroup &stats, const std::string &prefix,
             const BuddyAllocator &alloc)
{
    stats.scalar(prefix + ".free_frames")
        .inc(static_cast<double>(alloc.freeFrames()));
    for (int order = 0; order <= alloc.maxOrder(); ++order) {
        const std::string name = prefix + ".free_blocks.order_" +
                                 (order < 10 ? "0" : "") +
                                 std::to_string(order);
        stats.scalar(name).inc(
            static_cast<double>(alloc.freeBlocksAt(order)));
    }
}

/** Record a physical memory's materialised frames and words. */
void
addMemory(StatGroup &stats, const std::string &prefix,
          const PhysicalMemory &mem)
{
    stats.scalar(prefix + ".frames_in_use")
        .inc(static_cast<double>(mem.framesInUse()));
    stats.scalar(prefix + ".words_in_use")
        .inc(static_cast<double>(mem.wordsInUse()));
}

/**
 * The set-up state of a virt and a nested pvDMT cell after build():
 * what eager container population, TEA grants spliced into the
 * containers, TEA moves and table zeroing through guest-physical
 * views leave behind. With THP, splicing demotes 2 MB container
 * leaves at both nested levels. The access-loop goldens above never
 * reach those paths.
 */
StatGroup
setupState(ThpMode thp, const std::string &nestedWorkload)
{
    StatGroup stats("setup");
    const TestbedConfig config = scaledTestbedConfig(kScale, thp);
    {
        auto workload = makeWorkload("Redis", kScale);
        VirtTestbed tb(workload->footprintBytes(), config);
        tb.attachDmt(/*pv=*/true);
        workload->setup(tb.proc());
        tb.build(Design::PvDmt);
        addMemory(stats, "virt.mem", tb.hostMem());
        addSpace(stats, "virt.container", tb.vm().containerSpace());
        addSpace(stats, "virt.guest", tb.proc());
        addAllocator(stats, "virt.host_alloc", tb.hostAllocator());
        addAllocator(stats, "virt.guest_alloc", tb.vm().guestAllocator());
    }
    {
        auto workload = makeWorkload(nestedWorkload, kScale);
        NestedTestbed tb(workload->footprintBytes(), config);
        tb.attachPvDmt();
        workload->setup(tb.proc());
        tb.build(Design::PvDmt);
        NestedStack &stack = tb.stack();
        addMemory(stats, "nested.mem", tb.l0Mem());
        addSpace(stats, "nested.l0_container",
                 stack.vm1().containerSpace());
        addSpace(stats, "nested.l1_guest", stack.vm1().guestSpace());
        addSpace(stats, "nested.l1_container", stack.l1Container());
        addSpace(stats, "nested.l2", tb.proc());
        addAllocator(stats, "nested.l0_alloc", tb.l0Allocator());
        addAllocator(stats, "nested.l1_alloc",
                     stack.vm1().guestAllocator());
        addAllocator(stats, "nested.l2_alloc", stack.l2Allocator());
    }
    return stats;
}

TEST(GoldenSetupState, PvDmt4KCellsMatchGolden)
{
    expectMatchesGolden(dataPath("golden_setup_pvdmt_4k.json"),
                        "pvdmt-4k-setup",
                        setupState(ThpMode::Never, "XSBench"));
}

TEST(GoldenSetupState, PvDmtThpCellsMatchGolden)
{
    expectMatchesGolden(dataPath("golden_setup_pvdmt_thp.json"),
                        "pvdmt-thp-setup",
                        setupState(ThpMode::Always, "Redis"));
}

} // namespace
} // namespace dmt
