/**
 * @file
 * Tests for the Figure-13 register encoding and the trace-file
 * round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.hh"
#include "core/register_encoding.hh"
#include "workloads/trace_file.hh"

#include "temp_dir.hh"

namespace dmt
{
namespace
{

TEST(RegisterEncoding, RoundTripsAllFields)
{
    DmtRegister reg;
    reg.present = true;
    reg.tea.coverBase = 0x7f1234500000ull;
    reg.tea.coverBytes = Addr{384} << 20;  // 192 x 2MB spans
    reg.tea.leafSize = PageSize::Size4K;
    reg.tea.basePfn = 0xabcde;
    reg.gteaId = 1234;

    const DmtRegisterImage image = packDmtRegister(reg);
    const DmtRegister back = unpackDmtRegister(image);
    EXPECT_EQ(back.present, reg.present);
    EXPECT_EQ(back.tea.coverBase, reg.tea.coverBase);
    EXPECT_EQ(back.tea.coverBytes, reg.tea.coverBytes);
    EXPECT_EQ(back.tea.leafSize, reg.tea.leafSize);
    EXPECT_EQ(back.tea.basePfn, reg.tea.basePfn);
    EXPECT_EQ(back.gteaId, reg.gteaId);
}

TEST(RegisterEncoding, EncodesEverySizeClassAndNoGteaId)
{
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        DmtRegister reg;
        reg.present = false;
        reg.tea.coverBase = 0x40000000;
        reg.tea.coverBytes = pageBytesOf(size) * 512 * 3;
        reg.tea.leafSize = size;
        reg.tea.basePfn = 7;
        reg.gteaId = -1;
        const DmtRegister back =
            unpackDmtRegister(packDmtRegister(reg));
        EXPECT_EQ(back.tea.leafSize, size);
        EXPECT_EQ(back.tea.coverBytes, reg.tea.coverBytes);
        EXPECT_EQ(back.gteaId, -1);
        EXPECT_FALSE(back.present);
    }
}

TEST(RegisterEncoding, RandomizedRoundTrip)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        DmtRegister reg;
        reg.present = rng.below(2) == 1;
        reg.tea.leafSize = static_cast<PageSize>(rng.below(3));
        const Addr span =
            pageBytesOf(reg.tea.leafSize) * 512;
        reg.tea.coverBase = rng.below(1ull << 28) * span;
        reg.tea.coverBytes = (1 + rng.below(1000)) * span;
        reg.tea.basePfn = rng.below(1ull << 40);
        reg.gteaId = static_cast<int>(rng.below(0xffff)) - 1;
        const DmtRegister back =
            unpackDmtRegister(packDmtRegister(reg));
        ASSERT_EQ(back.tea.coverBase, reg.tea.coverBase);
        ASSERT_EQ(back.tea.coverBytes, reg.tea.coverBytes);
        ASSERT_EQ(back.tea.basePfn, reg.tea.basePfn);
        ASSERT_EQ(back.gteaId, reg.gteaId);
    }
}

class CountingTrace : public TraceSource
{
  public:
    Addr
    next() override
    {
        return 0x1000 + (counter_++) * 8;
    }

  private:
    Addr counter_ = 0;
};

TEST(TraceFile, RecordReplayRoundTrip)
{
    const std::string path = tempPath("trace.trc");
    CountingTrace source;
    recordTrace(source, 1000, path);

    FileTrace replay(path);
    EXPECT_EQ(replay.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(replay.next(), 0x1000u + Addr(i) * 8);
    // Wraps around at the end.
    EXPECT_EQ(replay.next(), 0x1000u);
    std::remove(path.c_str());
}

} // namespace
} // namespace dmt
