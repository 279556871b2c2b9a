#include <gtest/gtest.h>

#include "nachos/may_station.hh"

namespace nachos {
namespace {

class MayStationTest : public ::testing::Test
{
  protected:
    SimStats stats;
};

TEST_F(MayStationTest, NoConflictClearsAfterCompare)
{
    MayCheckStation st(1, stats);
    st.ownAddressReady(0x100, 8, 10);
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.parentAddressArrived(0, 0x200, 8, 12);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 13u); // compare at 12, result at 13
    EXPECT_EQ(st.comparesDone(), 1u);
    EXPECT_EQ(stats.get("nachos.checksClear"), 1u);
}

TEST_F(MayStationTest, ConflictWaitsForParentCompletion)
{
    MayCheckStation st(1, stats);
    st.ownAddressReady(0x100, 8, 5);
    st.parentAddressArrived(0, 0x100, 8, 6);
    EXPECT_FALSE(st.allClearCycle().has_value()); // conflict pending
    st.parentCompleted(0, 40);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 40u);
    EXPECT_EQ(stats.get("nachos.checksConflict"), 1u);
}

TEST_F(MayStationTest, CompletionBeforeCompareHandled)
{
    MayCheckStation st(1, stats);
    st.parentCompleted(0, 8);
    st.parentAddressArrived(0, 0x100, 8, 9);
    EXPECT_FALSE(st.allClearCycle().has_value()); // own addr missing
    st.ownAddressReady(0x100, 8, 20);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 21u); // conflict, but parent already done
}

TEST_F(MayStationTest, ArbiterSerializesOneComparePerCycle)
{
    // Three parents arrive in the same cycle: compares at t, t+1, t+2.
    MayCheckStation st(3, stats);
    st.ownAddressReady(0x100, 8, 10);
    st.parentAddressArrived(0, 0x200, 8, 10);
    st.parentAddressArrived(1, 0x300, 8, 10);
    st.parentAddressArrived(2, 0x400, 8, 10);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 13u); // last compare finishes at 12+1
    EXPECT_EQ(st.comparesDone(), 3u);
}

TEST_F(MayStationTest, HighFanInScalesLinearly)
{
    const uint32_t k = 50;
    MayCheckStation st(k, stats);
    st.ownAddressReady(0x100, 8, 0);
    for (uint32_t p = 0; p < k; ++p)
        st.parentAddressArrived(p, 0x1000 + p * 64, 8, 0);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, k); // 50 cycles of serialized checks
}

TEST_F(MayStationTest, StaggeredArrivalsAvoidContention)
{
    MayCheckStation st(2, stats);
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 5);
    st.parentAddressArrived(1, 0x300, 8, 9);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 10u); // no queueing: each compares on arrival
}

TEST_F(MayStationTest, PartialOverlapIsConflict)
{
    MayCheckStation st(1, stats);
    st.ownAddressReady(0x104, 8, 0);
    st.parentAddressArrived(0, 0x100, 8, 0);
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.parentCompleted(0, 30);
    EXPECT_EQ(*st.allClearCycle(), 30u);
}

TEST_F(MayStationTest, ResetRestoresFreshState)
{
    MayCheckStation st(1, stats);
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 0);
    ASSERT_TRUE(st.allClearCycle().has_value());
    st.reset();
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 0);
    EXPECT_TRUE(st.allClearCycle().has_value());
}

TEST_F(MayStationTest, ConflictIntrospection)
{
    MayCheckStation st(3, stats);
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x100, 8, 0); // exact conflict
    st.parentAddressArrived(1, 0x104, 8, 0); // partial conflict
    st.parentAddressArrived(2, 0x900, 8, 0); // disjoint
    ASSERT_TRUE(st.allCompared());
    // Two parents conflict, so none is the sole conflict.
    EXPECT_FALSE(st.soleConflictingParent().has_value());
    EXPECT_TRUE(st.exactConflict(0));
    EXPECT_FALSE(st.exactConflict(1)); // overlap but not exact
    EXPECT_FALSE(st.exactConflict(2));
    // Three compares serialize: the last finishes at cycle 3.
    EXPECT_EQ(st.lastCompareDoneCycle(), 3u);
}

TEST_F(MayStationTest, AllComparedFalseWhileWaitingForOwnAddress)
{
    MayCheckStation st(1, stats);
    st.parentAddressArrived(0, 0x200, 8, 2);
    EXPECT_FALSE(st.allCompared());
    st.ownAddressReady(0x100, 8, 5);
    EXPECT_TRUE(st.allCompared());
}

TEST_F(MayStationTest, WideArbiterComparesInParallel)
{
    MayCheckStation wide(4, stats, /*compares_per_cycle=*/4);
    wide.ownAddressReady(0x100, 8, 10);
    for (uint32_t p = 0; p < 4; ++p)
        wide.parentAddressArrived(p, 0x1000 + p * 64, 8, 10);
    ASSERT_TRUE(wide.allClearCycle().has_value());
    EXPECT_EQ(*wide.allClearCycle(), 11u); // all four in one cycle
}

TEST_F(MayStationTest, DeathOnDuplicateEvents)
{
    MayCheckStation st(1, stats);
    st.ownAddressReady(0x100, 8, 0);
    EXPECT_DEATH(st.ownAddressReady(0x100, 8, 1), "twice");
    st.parentAddressArrived(0, 0x200, 8, 0);
    EXPECT_DEATH(st.parentAddressArrived(0, 0x200, 8, 1), "twice");
}

} // namespace
} // namespace nachos
