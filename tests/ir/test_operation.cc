#include <limits>

#include <gtest/gtest.h>

#include "ir/operation.hh"

namespace nachos {
namespace {

TEST(EvalCompute, IntegerSemantics)
{
    EXPECT_EQ(evalCompute(OpKind::IAdd, 3, 4), 7);
    EXPECT_EQ(evalCompute(OpKind::ISub, 3, 4), -1);
    EXPECT_EQ(evalCompute(OpKind::IMul, 3, 4), 12);
    EXPECT_EQ(evalCompute(OpKind::IXor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(evalCompute(OpKind::IAnd, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(evalCompute(OpKind::IOr, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(evalCompute(OpKind::IShl, 1, 4), 16);
    EXPECT_EQ(evalCompute(OpKind::ICmp, 1, 2), 1);
    EXPECT_EQ(evalCompute(OpKind::ICmp, 2, 1), 0);
}

TEST(EvalCompute, ShiftMasksAmountLikeHardware)
{
    EXPECT_EQ(evalCompute(OpKind::IShl, 1, 64), 1); // 64 & 63 == 0
    EXPECT_EQ(evalCompute(OpKind::IShl, 1, 65), 2);
}

TEST(EvalCompute, WrapsModulo64Bits)
{
    int64_t big = static_cast<int64_t>(0x7fffffffffffffffLL);
    EXPECT_EQ(evalCompute(OpKind::IAdd, big, 1),
              std::numeric_limits<int64_t>::min());
}

TEST(EvalCompute, FdivByZeroIsZero)
{
    EXPECT_EQ(evalCompute(OpKind::FDiv, 5, 0), 0);
    EXPECT_EQ(evalCompute(OpKind::FDiv, 12, 4), 3);
}

TEST(EvalCompute, FdivOverflowWraps)
{
    // INT64_MIN / -1 has no int64 result; it wraps to INT64_MIN, like
    // the modulo-2^64 surrogate arithmetic of the other kinds.
    const int64_t min = std::numeric_limits<int64_t>::min();
    EXPECT_EQ(evalCompute(OpKind::FDiv, min, -1), min);
    EXPECT_EQ(evalCompute(OpKind::FDiv, 7, -1), -7);
    EXPECT_EQ(evalCompute(OpKind::FDiv, min, 1), min);
}

TEST(EvalComputeDeathTest, NonBinaryKindPanics)
{
    EXPECT_DEATH(evalCompute(OpKind::Load, 1, 2), "non-binary");
}

TEST(OpKindNames, NewKindsNamed)
{
    EXPECT_STREQ(opKindName(OpKind::IAnd), "iand");
    EXPECT_STREQ(opKindName(OpKind::IOr), "ior");
    EXPECT_STREQ(opKindName(OpKind::IShl), "ishl");
}

} // namespace
} // namespace nachos
