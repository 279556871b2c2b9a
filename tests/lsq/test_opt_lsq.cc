#include <gtest/gtest.h>

#include "lsq/opt_lsq.hh"
#include "support/alloc_hook.hh"

namespace nachos {
namespace {

class OptLsqTest : public ::testing::Test
{
  protected:
    SimStats stats;
    LsqConfig cfg;
    // 4 mem ops by default; tests that need more build their own.
    OptLsq lsq{cfg, 4, stats};
    /** Commit batches the tests do not inspect. */
    CommitBatch ignored;
};

TEST_F(OptLsqTest, InOrderAllocationCascades)
{
    // Op 1's address resolves first; it must wait for op 0.
    auto r1 = lsq.addressReady(1, false, 0x100, 8, 5);
    EXPECT_TRUE(r1.empty()); // blocked behind op 0
    auto r0 = lsq.addressReady(0, false, 0x200, 8, 20);
    ASSERT_EQ(r0.size(), 2u);
    EXPECT_EQ(r0[0].first, 0u);
    EXPECT_EQ(r0[1].first, 1u);
    EXPECT_GE(r0[0].second, 20u + cfg.allocLatency);
    EXPECT_GE(r0[1].second, r0[0].second); // program order preserved
}

TEST_F(OptLsqTest, LoadWithNoStoresGoesToCache)
{
    auto a = lsq.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 1u);
    auto dec = lsq.loadSearch(0, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
    EXPECT_EQ(dec.cycle, a[0].second + cfg.searchLatency);
    // Bloom was empty: no CAM search.
    EXPECT_EQ(stats.get("lsq.camLoads"), 0u);
    EXPECT_EQ(stats.get("lsq.bloomMisses"), 1u);
}

TEST_F(OptLsqTest, ExactMatchForwards)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    auto a = lsq.addressReady(1, false, 0x100, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 0u);
    EXPECT_EQ(stats.get("lsq.forwards"), 1u);
    EXPECT_EQ(stats.get("lsq.camLoads"), 1u);
}

TEST_F(OptLsqTest, PartialOverlapWaitsForCommit)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    auto a = lsq.addressReady(1, false, 0x104, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::WaitCommit);
    EXPECT_EQ(dec.store, 0u);
}

TEST_F(OptLsqTest, YoungestMatchingStoreWins)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.addressReady(1, true, 0x100, 8, 1);
    auto a = lsq.addressReady(2, false, 0x100, 8, 2);
    auto dec = lsq.loadSearch(2, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 1u);
}

TEST_F(OptLsqTest, DrainedStoreInvisibleToSearch)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.storeDataArrived(0, 3, ignored);
    lsq.storeDrained(0);
    auto a = lsq.addressReady(1, false, 0x100, 8, 10);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
}

TEST_F(OptLsqTest, StoresCommitInProgramOrder)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.addressReady(1, true, 0x200, 8, 0);
    // Younger store's data arrives first: nothing commits yet.
    CommitBatch c1;
    lsq.storeDataArrived(1, 5, c1);
    EXPECT_TRUE(c1.empty());
    // Older store's data arrives: both commit, in order.
    CommitBatch c0;
    lsq.storeDataArrived(0, 50, c0);
    ASSERT_EQ(c0.size(), 2u);
    EXPECT_EQ(c0[0].first, 0u);
    EXPECT_EQ(c0[1].first, 1u);
    EXPECT_LT(c0[0].second, c0[1].second);
    EXPECT_GE(c0[1].second, 50u);
}

TEST_F(OptLsqTest, AllDrainedTracksLifecycle)
{
    EXPECT_FALSE(lsq.allDrained());
    LsqConfig small_cfg;
    OptLsq small(small_cfg, 2, stats);
    small.addressReady(0, true, 0x100, 8, 0);
    small.addressReady(1, false, 0x200, 8, 1);
    small.storeDataArrived(0, 2, ignored);
    small.storeDrained(0);
    EXPECT_FALSE(small.allDrained());
    small.loadDone(1);
    EXPECT_TRUE(small.allDrained());
}

TEST_F(OptLsqTest, ResetRestoresFreshState)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.reset();
    auto a = lsq.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 1u);
    auto dec = lsq.loadSearch(0, a[0].second);
    // Bloom was cleared: the old store's address is gone.
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
}

TEST_F(OptLsqTest, BankPortContentionDelaysAllocation)
{
    LsqConfig one_bank;
    one_bank.banks = 1;
    one_bank.portsPerBank = 1;
    OptLsq tight(one_bank, 3, stats);
    tight.addressReady(2, false, 0x300, 8, 0);
    tight.addressReady(1, false, 0x200, 8, 0);
    auto a = tight.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 3u);
    // One port: allocations serialize across cycles.
    EXPECT_LT(a[0].second, a[1].second);
    EXPECT_LT(a[1].second, a[2].second);
}

TEST_F(OptLsqTest, StoreAllocProbesBloomBeforeInserting)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    // The store probes BEFORE inserting its own address: an empty
    // filter yields no CAM charge (no self-hits).
    EXPECT_EQ(stats.get("lsq.bloomProbes"), 1u);
    EXPECT_EQ(stats.get("lsq.camStores"), 0u);
    // A second store to the same address does hit.
    lsq.addressReady(1, true, 0x100, 8, 1);
    EXPECT_EQ(stats.get("lsq.camStores"), 1u);
}

TEST_F(OptLsqTest, DeathOnDoubleAddressReady)
{
    lsq.addressReady(0, false, 0x100, 8, 0);
    EXPECT_DEATH(lsq.addressReady(0, false, 0x100, 8, 1), "twice");
}

/**
 * Resolve the addresses of ops n-1 .. 0, every third a store, so the
 * last call allocates the whole queue in one cascade. Returns that
 * cascade's length.
 */
size_t
allocateYoungestFirst(OptLsq &lsq, uint32_t n)
{
    size_t cascade = 0;
    for (uint32_t m = n; m-- > 0;)
        cascade = lsq.addressReady(m, m % 3 == 0, 0x100 + 40 * m, 8, m)
                      .size();
    return cascade;
}

TEST(OptLsqAlloc, WarmAddressReadyCascadeAllocatesNothing)
{
    SimStats stats;
    const LsqConfig cfg;
    constexpr uint32_t kOps = 24;
    OptLsq lsq(cfg, kOps, stats);
    // The first invocation grows the batch buffer and bank queues.
    ASSERT_EQ(allocateYoungestFirst(lsq, kOps), kOps);
    lsq.reset();
    const uint64_t before = threadAllocCount();
    const size_t cascade = allocateYoungestFirst(lsq, kOps);
    EXPECT_EQ(threadAllocCount() - before, 0u);
    EXPECT_EQ(cascade, kOps);
}

/**
 * Loads at even memIndex, each followed by a store to its address, so
 * every store's commit waits on the load before it (anti-dependence).
 * Performs the loads, then returns how many stores the following
 * resumeCommits() committed into `batch`.
 */
size_t
commitBehindLoads(OptLsq &lsq, uint32_t n, CommitBatch &batch)
{
    for (uint32_t m = 0; m < n; ++m)
        lsq.addressReady(m, m % 2 == 1, 0x100 + 64 * (m / 2), 8, m);
    for (uint32_t m = 1; m < n; m += 2) {
        lsq.storeDataArrived(m, n, batch);
        EXPECT_TRUE(batch.empty()) << "store " << m;
    }
    for (uint32_t m = 0; m < n; m += 2)
        lsq.loadPerformAt(m, n + 1);
    lsq.resumeCommits(batch);
    return batch.size();
}

TEST(OptLsqAlloc, WarmResumeCommitsAllocatesNothing)
{
    SimStats stats;
    const LsqConfig cfg;
    constexpr uint32_t kOps = 24;
    OptLsq lsq(cfg, kOps, stats);
    CommitBatch batch;
    // The first invocation grows the batch, the commit heap and the
    // watcher lists.
    ASSERT_EQ(commitBehindLoads(lsq, kOps, batch), kOps / 2);
    lsq.reset();
    const uint64_t before = threadAllocCount();
    const size_t committed = commitBehindLoads(lsq, kOps, batch);
    EXPECT_EQ(threadAllocCount() - before, 0u);
    EXPECT_EQ(committed, kOps / 2);
}

} // namespace
} // namespace nachos
