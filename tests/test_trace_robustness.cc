/**
 * @file
 * Robustness tests for the on-disk trace format (ctest label
 * `trace`): corrupt or hostile headers must die with a clean fatal()
 * instead of attempting a multi-gigabyte allocation, short writes
 * must fail loudly at record time, and a record -> load round trip
 * must be the identity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "workloads/trace_file.hh"

#include "temp_dir.hh"

using namespace dmt;

namespace
{

void
writeRaw(const std::string &path, const std::vector<char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
}

void
append(std::vector<char> &bytes, const void *data, std::size_t n)
{
    const std::size_t at = bytes.size();
    bytes.resize(at + n);
    std::memcpy(bytes.data() + at, data, n);
}

std::vector<char>
traceBytes(std::uint64_t claimed_count,
           const std::vector<Addr> &body,
           const char *magic_str = "DMTTRACE")
{
    std::vector<char> bytes;
    append(bytes, magic_str, 8);
    append(bytes, &claimed_count, sizeof(claimed_count));
    for (const Addr va : body)
        append(bytes, &va, sizeof(va));
    return bytes;
}

/** Deterministic address sequence for round-trip checks. */
class CountingTrace : public TraceSource
{
  public:
    Addr
    next() override
    {
        return 0x1000 + 0x40 * counter_++;
    }

  private:
    std::uint64_t counter_ = 0;
};

using TraceRobustnessDeathTest = testing::Test;

TEST(TraceRobustnessDeathTest, CorruptMagicIsFatal)
{
    const std::string path = tempPath("bad_magic.trc");
    writeRaw(path, traceBytes(2, {0x1000, 0x2000}, "NOTATRCE"));
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "not a DMT trace file");
}

TEST(TraceRobustnessDeathTest, OversizedCountIsFatalNotBadAlloc)
{
    // A corrupt header claiming 2^40 addresses must be rejected
    // against the actual file size, never used as a resize() size.
    const std::string path = tempPath("oversized_count.trc");
    writeRaw(path,
             traceBytes(std::uint64_t{1} << 40, {0x1000, 0x2000}));
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "header claims");
}

TEST(TraceRobustnessDeathTest, HugeCountOverflowingBytesIsFatal)
{
    // count * 8 would overflow 64 bits; the file-size bound must
    // still catch it.
    const std::string path = tempPath("overflow_count.trc");
    writeRaw(path, traceBytes(~std::uint64_t{0}, {0x1000}));
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "header claims");
}

TEST(TraceRobustnessDeathTest, TruncatedBodyIsFatal)
{
    const std::string path = tempPath("truncated_body.trc");
    writeRaw(path, traceBytes(100, {0x1000, 0x2000, 0x3000}));
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "header claims|truncated");
}

TEST(TraceRobustnessDeathTest, TruncatedHeaderIsFatal)
{
    const std::string path = tempPath("truncated_header.trc");
    std::vector<char> bytes;
    append(bytes, "DMTTRACE", 8);  // no count field at all
    writeRaw(path, bytes);
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "truncated header");
}

TEST(TraceRobustnessDeathTest, ZeroLengthTraceIsFatal)
{
    const std::string path = tempPath("zero_len.trc");
    writeRaw(path, traceBytes(0, {}));
    EXPECT_EXIT(FileTrace t(path), testing::ExitedWithCode(1),
                "empty trace");
}

TEST(TraceRobustnessDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(FileTrace t(tempPath("does_not_exist.trc")),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceRobustnessDeathTest, RecordToUnwritablePathIsFatal)
{
    CountingTrace src;
    EXPECT_EXIT(
        recordTrace(src, 4, "/nonexistent-dir/trace.trc"),
        testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceRobustness, RecordLoadRoundTripIsIdentity)
{
    const std::string path = tempPath("round_trip.trc");
    constexpr std::uint64_t count = 1000;
    {
        CountingTrace src;
        recordTrace(src, count, path);
    }
    FileTrace loaded(path);
    EXPECT_EQ(loaded.size(), count);
    CountingTrace expected;
    for (std::uint64_t i = 0; i < count; ++i)
        EXPECT_EQ(loaded.next(), expected.next()) << "index " << i;
    // The file trace loops; the generator does not.
    CountingTrace second;
    EXPECT_EQ(loaded.next(), second.next());
}

TEST(TraceRobustness, TrailingGarbageAfterBodyIsTolerated)
{
    // Extra bytes beyond count addresses are ignored (the header
    // bound is count <= capacity, not equality), matching the
    // documented "count x u64 then EOF is not enforced" format.
    const std::string path = tempPath("trailing.trc");
    auto bytes = traceBytes(2, {0x1000, 0x2000});
    bytes.push_back('x');
    writeRaw(path, bytes);
    FileTrace t(path);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.next(), 0x1000u);
    EXPECT_EQ(t.next(), 0x2000u);
}

} // namespace
