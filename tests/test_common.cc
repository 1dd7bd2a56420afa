/**
 * @file
 * Unit tests for the common runtime: types/alignment helpers, the
 * deterministic RNG (uniformity, Zipf skew, reproducibility), and
 * the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dmt
{
namespace
{

TEST(Types, PageGeometry)
{
    EXPECT_EQ(pageBytesOf(PageSize::Size4K), 4096u);
    EXPECT_EQ(pageBytesOf(PageSize::Size2M), 2u * 1024 * 1024);
    EXPECT_EQ(pageBytesOf(PageSize::Size1G), 1024u * 1024 * 1024);
    EXPECT_EQ(pageAlignDown(0x12345678, PageSize::Size2M),
              0x12200000u);
    EXPECT_EQ(pageAlignUp(0x12345678, PageSize::Size2M), 0x12400000u);
    EXPECT_EQ(pageAlignUp(0x12400000, PageSize::Size2M), 0x12400000u);
    EXPECT_EQ(ptesPerPage, 512);
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        const auto v = a.next();
        EXPECT_EQ(v, b.next());
        anyDiff |= (v != c.next());
    }
    EXPECT_TRUE(anyDiff);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform)
{
    Rng rng(1);
    constexpr std::uint64_t bound = 10;
    std::uint64_t histogram[bound] = {};
    constexpr int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const auto v = rng.below(bound);
        ASSERT_LT(v, bound);
        ++histogram[v];
    }
    for (auto count : histogram) {
        EXPECT_GT(count, n / bound * 8 / 10);
        EXPECT_LT(count, n / bound * 12 / 10);
    }
}

TEST(RngTest, UniformIsInUnitInterval)
{
    Rng rng(2);
    double sum = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, ZipfIsSkewedTowardsLowRanks)
{
    Rng rng(3);
    constexpr std::uint64_t n = 1'000'000;
    const ZipfSampler zipf(n, 0.99);
    int top1pct = 0;
    constexpr int draws = 50'000;
    for (int i = 0; i < draws; ++i) {
        const auto r = zipf(rng);
        ASSERT_LT(r, n);
        if (r < n / 100)
            ++top1pct;
    }
    // Zipf(0.99): the top 1% of ranks draw far more than 1% of hits.
    EXPECT_GT(top1pct, draws / 4);
}

/** The Zipf draw with its normalizer recomputed every time. */
std::uint64_t
referenceZipf(Rng &rng, std::uint64_t n, double s)
{
    const double u = rng.uniform();
    if (s == 1.0) {
        const double hn = std::log(static_cast<double>(n) + 1.0);
        const double r = std::exp(u * hn) - 1.0;
        const auto rank = static_cast<std::uint64_t>(r);
        return rank < n ? rank : n - 1;
    }
    const double oneMinusS = 1.0 - s;
    const double hn =
        (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
        oneMinusS;
    const double r =
        std::pow(u * hn * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    const auto rank = static_cast<std::uint64_t>(r);
    return rank < n ? rank : n - 1;
}

TEST(RngTest, ZipfSamplerMatchesPerDrawFormulaDrawForDraw)
{
    for (const double s : {0.99, 1.0}) {
        for (const std::uint64_t n :
             {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{4096},
              std::uint64_t{1'000'003}, std::uint64_t{1} << 40}) {
            for (const std::uint64_t seed : {1ull, 42ull, 2718ull}) {
                Rng a(seed);
                Rng b(seed);
                const ZipfSampler zipf(n, s);
                for (int i = 0; i < 20'000; ++i) {
                    ASSERT_EQ(zipf(a), referenceZipf(b, n, s))
                        << "s " << s << " n " << n << " seed " << seed
                        << " draw " << i;
                }
            }
        }
    }
}

TEST(Stats, ScalarTracksMoments)
{
    ScalarStat stat;
    for (double v : {4.0, 8.0, 6.0})
        stat.sample(v);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_DOUBLE_EQ(stat.sum(), 18.0);
    EXPECT_DOUBLE_EQ(stat.mean(), 6.0);
    EXPECT_DOUBLE_EQ(stat.min(), 4.0);
    EXPECT_DOUBLE_EQ(stat.max(), 8.0);
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
}

TEST(Stats, HistogramBucketsAndPercentiles)
{
    Histogram h(10, 10.0);  // [0,100) in tens
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.bucket(0), 10u);
    EXPECT_EQ(h.overflow(), 0u);
    h.sample(1000.0);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
}

TEST(Stats, GeoMeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geoMean({1.2, 1.5, 1.1}), 1.2557, 1e-3);
    EXPECT_EQ(geoMean({}), 0.0);
}

TEST(Stats, SafeOpsPerSecGuardsDegenerateIntervals)
{
    // The bench/driver JSON emitters route every throughput field
    // through safeOpsPerSec: a zero or negative wall-clock interval
    // (sub-tick run, clock confusion) must emit 0.0, never inf/NaN —
    // JSON has no encoding for those.
    EXPECT_DOUBLE_EQ(safeOpsPerSec(1000, 2.0), 500.0);
    EXPECT_DOUBLE_EQ(safeOpsPerSec(1000, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeOpsPerSec(0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeOpsPerSec(1000, -1.0), 0.0);
}

TEST(Stats, GroupDumpAndLookup)
{
    StatGroup group("tlb");
    group.scalar("hits").inc(5);
    group.scalar("misses").inc();
    EXPECT_TRUE(group.has("hits"));
    EXPECT_FALSE(group.has("evictions"));
    EXPECT_EQ(group.get("hits").count(), 1u);
    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("tlb.hits"), std::string::npos);
}

TEST(Stats, ScalarMergeEqualsCombinedSampleStream)
{
    ScalarStat left, right, combined;
    for (double v : {4.0, 8.0}) {
        left.sample(v);
        combined.sample(v);
    }
    for (double v : {1.0, 16.0, 2.0}) {
        right.sample(v);
        combined.sample(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), combined.count());
    EXPECT_DOUBLE_EQ(left.sum(), combined.sum());
    EXPECT_DOUBLE_EQ(left.min(), combined.min());
    EXPECT_DOUBLE_EQ(left.max(), combined.max());

    // Merging an empty stat is a no-op; merging into an empty stat
    // copies.
    ScalarStat empty;
    left.merge(empty);
    EXPECT_EQ(left.count(), combined.count());
    ScalarStat fresh;
    fresh.merge(combined);
    EXPECT_DOUBLE_EQ(fresh.min(), combined.min());
    EXPECT_DOUBLE_EQ(fresh.max(), combined.max());
}

TEST(Stats, GroupSnapshotAndMerge)
{
    StatGroup worker1("cell");
    worker1.scalar("walks").inc(10);
    StatGroup worker2("cell");
    worker2.scalar("walks").inc(5);
    worker2.scalar("fallbacks").inc(1);

    StatGroup total("campaign");
    total.merge(worker1);
    total.merge(worker2);
    EXPECT_EQ(total.get("walks").count(), 2u);
    EXPECT_DOUBLE_EQ(total.get("walks").sum(), 15.0);
    EXPECT_DOUBLE_EQ(total.get("fallbacks").sum(), 1.0);

    const auto snap = total.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.at("walks").sum(), 15.0);
    // The snapshot is a copy: later samples don't retroactively
    // appear in it.
    total.scalar("walks").inc(100);
    EXPECT_DOUBLE_EQ(snap.at("walks").sum(), 15.0);
}

} // namespace
} // namespace dmt
