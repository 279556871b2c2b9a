#include <gtest/gtest.h>

#include "support/json.hh"
#include "support/stats.hh"

namespace nachos {
namespace {

TEST(StatSet, CounterCreatedOnFirstUse)
{
    StatSet stats;
    EXPECT_EQ(stats.get("l1.hits"), 0u);
    stats.counter("l1.hits").inc();
    stats.counter("l1.hits").inc(4);
    EXPECT_EQ(stats.get("l1.hits"), 5u);
}

TEST(StatSet, ResetAllZeroes)
{
    StatSet stats;
    stats.counter("a").inc(3);
    stats.counter("b").inc(7);
    stats.resetAll();
    EXPECT_EQ(stats.get("a"), 0u);
    EXPECT_EQ(stats.get("b"), 0u);
}

TEST(StatSet, DumpSortedByName)
{
    StatSet stats;
    stats.counter("z").inc(1);
    stats.counter("a").inc(2);
    auto dump = stats.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "z");
}

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

TEST(StatSet, JsonSnapshotHasCountersAndHistograms)
{
    StatSet stats;
    stats.counter("z.late").inc(2);
    stats.counter("a.early").inc(1);
    stats.histogram("lat.us").sample(100);
    JsonValue snap = stats.jsonSnapshot();
    const JsonValue *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->members().size(), 2u);
    // Name order, not insertion order.
    EXPECT_EQ(counters->members()[0].first, "a.early");
    EXPECT_EQ(counters->members()[1].first, "z.late");
    EXPECT_EQ(counters->find("z.late")->asU64(), 2u);
    const JsonValue *histograms = snap.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *lat = histograms->find("lat.us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asU64(), 1u);
    EXPECT_EQ(lat->find("p50")->asU64(), 100u);
}

TEST(StatSet, ResetAllClearsHistograms)
{
    StatSet stats;
    stats.histogram("h").sample(5);
    stats.resetAll();
    EXPECT_EQ(stats.histogram("h").count(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(3);
    h.sample(10); // overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, Mean)
{
    Histogram h(16);
    h.sample(2);
    h.sample(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    Histogram empty(4);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Histogram, CumulativeFraction)
{
    Histogram h(8);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(20); // overflow
    EXPECT_DOUBLE_EQ(h.cumulativeAt(0), 0.25);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(2), 0.75);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(100), 1.0);
}

TEST(LatencyHistogram, MergeAddsBucketsAndBounds)
{
    LatencyHistogram a, b;
    a.sample(10);
    a.sample(1000);
    b.sample(3);
    b.sample(50000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 10u + 1000u + 3u + 50000u);
    EXPECT_EQ(a.min(), 3u);
    EXPECT_EQ(a.max(), 50000u);
    // Merging an empty histogram changes nothing.
    const uint64_t p99 = a.p99();
    a.merge(LatencyHistogram());
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.p99(), p99);
}

TEST(LatencyHistogram, MergeMatchesCombinedSampling)
{
    // Percentiles after a merge equal those of one histogram that saw
    // every sample directly — the property StatSet::merge relies on
    // when it folds one set's histograms into another.
    LatencyHistogram combined, left, right;
    for (uint64_t v = 1; v <= 200; ++v) {
        combined.sample(v * 7);
        (v % 2 ? left : right).sample(v * 7);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), combined.count());
    EXPECT_EQ(left.sum(), combined.sum());
    EXPECT_EQ(left.p50(), combined.p50());
    EXPECT_EQ(left.p95(), combined.p95());
    EXPECT_EQ(left.p99(), combined.p99());
}

TEST(StatSet, MergeFoldsCountersAndHistograms)
{
    StatSet a, b;
    a.counter("jobs.completed").inc(3);
    a.histogram("latency.totalMicros").sample(100);
    b.counter("jobs.completed").inc(2);
    b.counter("jobs.failed").inc(); // only in b
    b.histogram("latency.totalMicros").sample(900);
    b.histogram("latency.simMicros").sample(4); // only in b
    a.merge(b);
    EXPECT_EQ(a.get("jobs.completed"), 5u);
    EXPECT_EQ(a.get("jobs.failed"), 1u);
    EXPECT_EQ(a.histogram("latency.totalMicros").count(), 2u);
    EXPECT_EQ(a.histogram("latency.totalMicros").sum(), 1000u);
    EXPECT_EQ(a.histogram("latency.simMicros").count(), 1u);
    // b is untouched.
    EXPECT_EQ(b.get("jobs.completed"), 2u);
}

} // namespace
} // namespace nachos
