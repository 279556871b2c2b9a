#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/serialize.hh"
#include "testing/reference.hh"
#include "testing/region_gen.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

TEST(Serialize, RoundTripSmallRegion)
{
    RegionBuilder b("small");
    ObjectId a = b.object("A", 4096);
    ObjectId m2 = b.object2d("M", 8, 8);
    ParamId p = b.pointerParam("ptr", a, 16);
    b.paramProvenance(p, a, 16);
    b.paramRestrict(p);
    OpId v = b.liveIn();
    b.store(b.atParam(p, 0), v);
    b.load(b.at2d(m2, 1, 2));
    b.liveOut(v);
    Region original = b.build();

    Region parsed = regionFromString(regionToString(original));
    EXPECT_TRUE(regionsEquivalent(original, parsed));
    EXPECT_EQ(parsed.name(), "small");
    EXPECT_EQ(parsed.numOps(), original.numOps());
    EXPECT_TRUE(parsed.param(p).isRestrict);
    ASSERT_TRUE(parsed.param(p).provenance.has_value());
}

TEST(Serialize, ParsedRegionHasIdenticalGroundTruth)
{
    Region original =
        synthesizeRegion(benchmarkByName("parser"));
    Region parsed = regionFromString(regionToString(original));

    // Same addresses, invocation by invocation...
    for (uint64_t inv = 0; inv < 8; ++inv) {
        for (OpId op : original.memOps())
            EXPECT_EQ(original.evalAddr(op, inv),
                      parsed.evalAddr(op, inv));
    }
    // ...and bit-identical golden execution.
    testing::ReferenceResult a = testing::referenceExecute(original, 6);
    testing::ReferenceResult b = testing::referenceExecute(parsed, 6);
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest);
    EXPECT_EQ(a.memImage, b.memImage);
}

class SerializeSuite : public ::testing::TestWithParam<size_t>
{};

TEST_P(SerializeSuite, WholeSuiteRoundTrips)
{
    const BenchmarkInfo &info = benchmarkSuite()[GetParam()];
    Region original = synthesizeRegion(info);
    Region parsed = regionFromString(regionToString(original));
    EXPECT_TRUE(regionsEquivalent(original, parsed))
        << info.shortName;
}

INSTANTIATE_TEST_SUITE_P(All27, SerializeSuite,
                         ::testing::Range(size_t{0}, size_t{27}));

TEST(Serialize, RandomRegionsRoundTrip)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        Region original = testing::generateRegion(seed + 9000);
        Region parsed = regionFromString(regionToString(original));
        EXPECT_TRUE(regionsEquivalent(original, parsed))
            << "seed " << seed;
    }
}

TEST(SerializeDeathTest, RejectsWrongMagic)
{
    EXPECT_EXIT(regionFromString("not-a-region v9 end"),
                ::testing::ExitedWithCode(1), "not a nachos-region");
}

TEST(SerializeDeathTest, RejectsTruncation)
{
    Region r = testing::generateRegion(1);
    std::string text = regionToString(r);
    text.resize(text.size() / 2);
    EXPECT_EXIT(regionFromString(text),
                ::testing::ExitedWithCode(1), "");
}

TEST(SerializeDeathTest, RejectsUnknownEntity)
{
    EXPECT_EXIT(regionFromString(
                    "nachos-region v1 name x strict 0 banana end"),
                ::testing::ExitedWithCode(1), "unknown entity");
}

TEST(Serialize, NamesWithSpacesAreSanitized)
{
    Region r("has spaces here");
    r.finalize();
    Region parsed = regionFromString(regionToString(r));
    EXPECT_EQ(parsed.name(), "has_spaces_here");
}

} // namespace
} // namespace nachos
