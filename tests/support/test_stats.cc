#include <gtest/gtest.h>

#include <set>
#include <string>

#include "support/json.hh"
#include "support/sim_stats.hh"
#include "support/stats.hh"

namespace nachos {
namespace {

TEST(LatencyHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(LatencyHistogram, SingleSampleClampsToExactValue)
{
    LatencyHistogram h;
    h.sample(10);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 10u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 10u);
    // Bucket upper bound is 15, but the clamp to the observed range
    // makes every percentile exact for a single sample.
    EXPECT_EQ(h.p50(), 10u);
    EXPECT_EQ(h.p95(), 10u);
    EXPECT_EQ(h.p99(), 10u);
}

TEST(LatencyHistogram, Log2BucketPercentiles)
{
    LatencyHistogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // Rank 50 lands in the 32..63 bucket; its upper bound is the
    // answer (exact to within one octave by design).
    EXPECT_EQ(h.p50(), 63u);
    // Ranks 95 and 99 land in the 64..127 bucket, whose upper bound
    // clamps to the observed max of 100.
    EXPECT_EQ(h.p95(), 100u);
    EXPECT_EQ(h.p99(), 100u);
    EXPECT_EQ(h.percentile(1), 1u);
}

TEST(LatencyHistogram, WeightAndBuckets)
{
    LatencyHistogram h;
    h.sample(0);
    h.sample(4, 3);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 12u);
    EXPECT_EQ(h.bucket(0), 1u); // bit-width of 0
    EXPECT_EQ(h.bucket(3), 3u); // bit-width of 4
}

TEST(LatencyHistogram, ResetAndJsonSnapshot)
{
    LatencyHistogram h;
    h.sample(7);
    h.sample(9);
    JsonValue snap = h.jsonSnapshot();
    ASSERT_NE(snap.find("count"), nullptr);
    EXPECT_EQ(snap.find("count")->asU64(), 2u);
    EXPECT_EQ(snap.find("sum")->asU64(), 16u);
    EXPECT_EQ(snap.find("min")->asU64(), 7u);
    EXPECT_EQ(snap.find("max")->asU64(), 9u);
    EXPECT_DOUBLE_EQ(snap.find("mean")->asDouble(), 8.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p50(), 0u);
}

TEST(SimStats, RowNamesAreUniqueAndInNameOrder)
{
    std::set<std::string_view> names;
    for (size_t i = 0; i < kNumSimCounters; ++i) {
        const SimCounterRow &row = kSimCounterRows[i];
        EXPECT_EQ(static_cast<size_t>(row.id), i) << row.name;
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
        if (i > 0) {
            EXPECT_LT(kSimCounterRows[i - 1].name, row.name);
        }
    }
}

TEST(SimStats, UnregisteredRowReadsZeroAndIsNotDumped)
{
    SimStats stats;
    stats.counter(SimCounter::L1Hits).inc(3);
    stats.counter(SimCounter::NetHops);
    EXPECT_FALSE(stats.registered(SimCounter::L1Misses));
    EXPECT_EQ(stats.get(SimCounter::L1Misses), 0u);
    EXPECT_EQ(stats.get("l1.misses"), 0u);
    EXPECT_EQ(stats.get("no.such.counter"), 0u);
    EXPECT_EQ(stats.get("l1.hits"), 3u);
    // Registered rows dump in name order, zero-valued ones included.
    const std::vector<std::pair<std::string, uint64_t>> want = {
        {"l1.hits", 3}, {"net.hops", 0}};
    EXPECT_EQ(stats.dump(), want);

    stats.reset();
    EXPECT_TRUE(stats.dump().empty());
    EXPECT_EQ(stats.get(SimCounter::L1Hits), 0u);
}

} // namespace
} // namespace nachos
