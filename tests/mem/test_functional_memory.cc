#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/functional_memory.hh"

namespace nachos {
namespace {

TEST(FunctionalMemory, WriteThenReadRoundTrips)
{
    FunctionalMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788LL);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788LL);
}

TEST(FunctionalMemory, PartialReadLittleEndian)
{
    FunctionalMemory mem;
    mem.write(0x2000, 8, 0x1122334455667788LL);
    EXPECT_EQ(mem.read(0x2000, 4) & 0xffffffff, 0x55667788u);
    EXPECT_EQ(mem.read(0x2004, 4) & 0xffffffff, 0x11223344u);
}

TEST(FunctionalMemory, OverlappingWritesMergeBytes)
{
    FunctionalMemory mem;
    mem.write(0x3000, 8, 0);
    mem.write(0x3004, 4, static_cast<int64_t>(0xdeadbeef));
    uint64_t v = static_cast<uint64_t>(mem.read(0x3000, 8));
    EXPECT_EQ(v >> 32, 0xdeadbeefu);
    EXPECT_EQ(v & 0xffffffffu, 0u);
}

TEST(FunctionalMemory, BackgroundIsDeterministicNonZero)
{
    FunctionalMemory a, b;
    EXPECT_EQ(a.read(0x4000, 8), b.read(0x4000, 8));
    EXPECT_NE(a.read(0x4000, 8), a.read(0x4008, 8));
}

TEST(FunctionalMemory, ResetForgetsWrites)
{
    FunctionalMemory mem;
    int64_t before = mem.read(0x5000, 8);
    mem.write(0x5000, 8, 42);
    EXPECT_EQ(mem.read(0x5000, 8), 42);
    mem.reset();
    EXPECT_EQ(mem.read(0x5000, 8), before);
    EXPECT_EQ(mem.footprint(), 0u);
}

TEST(FunctionalMemory, ImageSortedByAddress)
{
    FunctionalMemory mem;
    mem.write(0x9000, 1, 1);
    mem.write(0x100, 1, 2);
    auto img = mem.image();
    ASSERT_EQ(img.size(), 2u);
    EXPECT_EQ(img[0].first, 0x100u);
    EXPECT_EQ(img[1].first, 0x9000u);
}

TEST(FunctionalMemory, ImageAfterResetHoldsOnlyThisRunsWrites)
{
    // reset() and image() visit only the pages written since the last
    // reset. Page B is re-cached by a read before it is written again,
    // so the write must still list it.
    constexpr uint64_t kA = 0x1000, kB = 0x2000, kC = 0x3000,
                       kD = 0x4000;
    FunctionalMemory mem;
    mem.write(kA + 8, 8, 1);
    mem.write(kB + 8, 8, 2);
    mem.write(kC + 8, 8, 3);
    mem.reset();

    (void)mem.read(kB + 8, 8);
    mem.write(kB + 16, 8, 0x0807060504030201);
    mem.write(kD + 32, 4, 0x0c0b0a09);
    std::vector<std::pair<uint64_t, uint8_t>> want;
    for (uint8_t i = 0; i < 8; ++i)
        want.emplace_back(kB + 16 + i, static_cast<uint8_t>(1 + i));
    for (uint8_t i = 0; i < 4; ++i)
        want.emplace_back(kD + 32 + i, static_cast<uint8_t>(9 + i));
    EXPECT_EQ(mem.image(), want);
    EXPECT_EQ(mem.footprint(), want.size());

    mem.reset();
    EXPECT_TRUE(mem.image().empty());
    EXPECT_EQ(mem.footprint(), 0u);
}

TEST(FunctionalMemoryDeathTest, BadSizePanics)
{
    FunctionalMemory mem;
    EXPECT_DEATH(mem.read(0, 0), "size");
    EXPECT_DEATH(mem.write(0, 16, 0), "size");
}

} // namespace
} // namespace nachos
