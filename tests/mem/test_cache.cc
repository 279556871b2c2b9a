#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"

namespace nachos {
namespace {

TEST(BandwidthRegulator, AdmitsPerCycleLimit)
{
    BandwidthRegulator bw(2);
    EXPECT_EQ(bw.admit(10), 10u);
    EXPECT_EQ(bw.admit(10), 10u);
    EXPECT_EQ(bw.admit(10), 11u); // third in the same cycle spills
    EXPECT_EQ(bw.admit(10), 11u); // requests may arrive "late"
    EXPECT_EQ(bw.admit(12), 12u);
}

TEST(MainMemory, FixedLatency)
{
    MainMemory dram(200, 4);
    EXPECT_EQ(dram.access(0, false, 5), 205u);
    EXPECT_EQ(dram.totalAccesses(), 1u);
}

class CacheTest : public ::testing::Test
{
  protected:
    StatSet stats;
    MainMemory dram{100, 8};
    CacheConfig cfg{1024, 2, 64, 3, 4, 2, "l1"};
    LlcCache cache{cfg, dram, stats};
};

TEST_F(CacheTest, MissThenHit)
{
    uint64_t t1 = cache.access(0x80, false, 0);
    EXPECT_GT(t1, 100u); // went to DRAM
    EXPECT_EQ(stats.get("l1.misses"), 1u);
    uint64_t t2 = cache.access(0x80, false, t1 + 1);
    EXPECT_EQ(t2, t1 + 1 + 3); // hit latency
    EXPECT_EQ(stats.get("l1.hits"), 1u);
}

TEST_F(CacheTest, SameLineDifferentWordHits)
{
    uint64_t t1 = cache.access(0x100, false, 0);
    uint64_t t2 = cache.access(0x138, false, t1 + 1); // same 64B line
    EXPECT_EQ(t2, t1 + 1 + 3);
}

TEST_F(CacheTest, MshrMergesConcurrentMissesToSameLine)
{
    cache.access(0x200, false, 0);
    uint64_t t2 = cache.access(0x208, false, 1); // same line, in flight
    EXPECT_EQ(stats.get("l1.mshrMerges"), 1u);
    EXPECT_EQ(stats.get("l1.misses"), 2u);
    EXPECT_EQ(dram.totalAccesses(), 1u); // one fill only
    EXPECT_GT(t2, 100u);
}

TEST_F(CacheTest, EvictionWritesBackDirtyLine)
{
    // 1 KiB, 2-way, 64 B lines -> 8 sets. Two different lines mapping
    // to set 0 fill both ways; a third evicts the LRU.
    uint64_t t = cache.access(0 * 512, true, 0); // set 0, dirty
    t = cache.access(1 * 512, false, t + 1);     // set 0
    t = cache.access(2 * 512, false, t + 1);     // evicts the dirty way
    EXPECT_EQ(stats.get("l1.writebacks"), 1u);
}

TEST_F(CacheTest, LruKeepsRecentlyUsedLine)
{
    uint64_t t = cache.access(0 * 512, false, 0);
    t = cache.access(1 * 512, false, t + 1);
    t = cache.access(0 * 512, false, t + 1); // refresh line 0
    t = cache.access(2 * 512, false, t + 1); // evicts line 1 (LRU)
    uint64_t hit = cache.access(0 * 512, false, t + 1);
    EXPECT_EQ(hit, t + 1 + 3);
}

TEST_F(CacheTest, ProbeDoesNotAllocate)
{
    EXPECT_FALSE(cache.probe(0x400));
    cache.access(0x400, false, 0);
    EXPECT_TRUE(cache.probe(0x400));
}

TEST_F(CacheTest, ResetDropsEverything)
{
    cache.access(0x80, false, 0);
    cache.reset();
    EXPECT_FALSE(cache.probe(0x80));
}

TEST_F(CacheTest, LruVictimIsOldestUntouchedWay)
{
    // Fill set 0 (2 ways) in a known order, then hit way A so way B is
    // LRU; the next conflict must evict B, not A.
    uint64_t t = cache.access(0 * 512, false, 0);   // way A
    t = cache.access(1 * 512, false, t + 1);        // way B
    t = cache.access(0 * 512, false, t + 1);        // refresh A
    t = cache.access(2 * 512, false, t + 1);        // evicts B
    EXPECT_TRUE(cache.probe(0 * 512));
    EXPECT_FALSE(cache.probe(1 * 512));
    EXPECT_TRUE(cache.probe(2 * 512));
}

TEST_F(CacheTest, MshrMergeTimingIsDeterministic)
{
    // Same access pattern replayed after reset() must produce the same
    // completion cycles and the same stat deltas: reset leaves no
    // residue (pending fills, LRU clocks, bandwidth slots).
    const auto run = [&] {
        std::vector<uint64_t> done;
        uint64_t t = 0;
        done.push_back(cache.access(0x200, false, t));      // miss
        done.push_back(cache.access(0x208, false, t + 1));  // merge
        done.push_back(cache.access(0x240, true, t + 2));   // miss
        done.push_back(cache.access(0x200, false, done[0])); // hit
        done.push_back(cache.access(0x248, true, done[2] + 1));
        return done;
    };
    const std::vector<uint64_t> first = run();
    const uint64_t merges = stats.get("l1.mshrMerges");
    const uint64_t hits = stats.get("l1.hits");
    cache.reset();
    dram.reset();
    const std::vector<uint64_t> second = run();
    EXPECT_EQ(first, second);
    EXPECT_EQ(stats.get("l1.mshrMerges"), 2 * merges);
    EXPECT_EQ(stats.get("l1.hits"), 2 * hits);
}

TEST_F(CacheTest, ResetClearsAllObservableState)
{
    // Dirty a line, leave a fill in flight, advance the LRU clock.
    cache.access(0x80, true, 0);
    cache.access(0x300, false, 1); // fill still pending at reset
    cache.reset();
    dram.reset();
    for (uint64_t a = 0; a < 16; ++a)
        EXPECT_FALSE(cache.probe(a * 64)) << a;
    // A clean re-run starts from cold: same first-access result as a
    // freshly constructed cache over the same next level.
    StatSet fresh_stats;
    MainMemory fresh_dram{100, 8};
    LlcCache fresh{cfg, fresh_dram, fresh_stats};
    EXPECT_EQ(cache.access(0x80, false, 50), fresh.access(0x80, false, 50));
    // The old dirty line must not write back after reset.
    EXPECT_EQ(stats.get("l1.writebacks"), 0u);
}

TEST(Hierarchy, L2BackstopsL1)
{
    StatSet stats;
    HierarchyConfig cfg;
    MemoryHierarchy mem(cfg, stats);
    uint64_t t1 = mem.timedAccess(0x1000, false, 0);
    // cold: L1 miss + LLC miss + DRAM
    EXPECT_GT(t1, 200u);
    uint64_t t2 = mem.timedAccess(0x1000, false, t1 + 1);
    EXPECT_EQ(t2, t1 + 1 + cfg.l1.hitLatency);
    EXPECT_EQ(stats.get("llc.misses"), 1u);
}

TEST(Hierarchy, ScratchpadIsOneCycle)
{
    StatSet stats;
    HierarchyConfig cfg;
    MemoryHierarchy mem(cfg, stats);
    EXPECT_EQ(mem.scratchpadAccess(0x10, false, 7), 8u);
    EXPECT_EQ(stats.get("scratchpad.reads"), 1u);
}

TEST(Hierarchy, ResetClearsFunctionalAndTiming)
{
    StatSet stats;
    HierarchyConfig cfg;
    MemoryHierarchy mem(cfg, stats);
    mem.data().write(0x10, 8, 5);
    mem.timedAccess(0x10, true, 0);
    mem.reset();
    EXPECT_EQ(mem.data().footprint(), 0u);
    EXPECT_FALSE(mem.l1Probe(0x10));
}

} // namespace
} // namespace nachos
