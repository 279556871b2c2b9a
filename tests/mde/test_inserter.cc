#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "ir/builder.hh"
#include "mde/inserter.hh"

namespace nachos {
namespace {

MdeSet
analyzeAndInsert(const Region &r, PipelineConfig cfg = {})
{
    AliasAnalysisResult res = runAliasPipeline(r, cfg);
    return insertMdes(r, res.matrix);
}

TEST(Inserter, StLdExactBecomesForward)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    OpId st = b.store(b.at(a, 0), v);
    OpId ld = b.load(b.at(a, 0));
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    ASSERT_EQ(mdes.size(), 1u);
    EXPECT_EQ(mdes.edges()[0].kind, MdeKind::Forward);
    EXPECT_EQ(mdes.edges()[0].older, st);
    EXPECT_EQ(mdes.edges()[0].younger, ld);
}

TEST(Inserter, PartialOverlapBecomesOrder)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    b.store(b.at(a, 0), v, 8);
    b.load(b.at(a, 4), 8);
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    ASSERT_EQ(mdes.size(), 1u);
    EXPECT_EQ(mdes.edges()[0].kind, MdeKind::Order);
}

TEST(Inserter, LdStAndStStBecomeOrder)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    b.load(b.at(a, 0));       // 0
    b.store(b.at(a, 0), v);   // 1: LD->ST order
    b.store(b.at(a, 0), v);   // 2: ST->ST order
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    MdeCounts c = mdes.counts();
    EXPECT_EQ(c.order, 2u);
    EXPECT_EQ(c.forward, 0u);
}

TEST(Inserter, ForwardFromYoungestStore)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v1 = b.constant(1);
    OpId v2 = b.constant(2);
    OpId st0 = b.store(b.at(a, 0), v1);
    OpId st1 = b.store(b.at(a, 0), v2);
    OpId ld = b.load(b.at(a, 0));
    Region r = b.build();
    (void)st0;

    MdeSet mdes = analyzeAndInsert(r);
    const auto forward = mdes.in(ld, MdeKind::Forward);
    ASSERT_EQ(forward.size(), 1u);
    EXPECT_EQ(mdes.edge(forward[0]).older, st1);
    // The older store still orders against the load (kept ST->LD).
    bool found_order_from_st0 = false;
    for (const auto &e : mdes.edges()) {
        if (e.older == st0 && e.younger == ld)
            found_order_from_st0 = e.kind == MdeKind::Order;
    }
    EXPECT_TRUE(found_order_from_st0);
}

TEST(Inserter, MayPairsBecomeMayEdges)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    ObjectId c = b.object("C", 4096);
    ParamId p = b.pointerParam("p", a);
    ParamId q = b.pointerParam("q", c);
    OpId v = b.constant(1);
    b.store(b.atParam(p, 0), v);
    b.load(b.atParam(q, 0));
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    ASSERT_EQ(mdes.size(), 1u);
    EXPECT_EQ(mdes.edges()[0].kind, MdeKind::May);
}

TEST(Inserter, NoEdgesForIndependentOps)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    ObjectId c = b.object("C", 4096);
    OpId v = b.constant(1);
    b.store(b.at(a, 0), v);
    b.store(b.at(c, 0), v);
    b.load(b.at(a, 2048));
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    EXPECT_EQ(mdes.size(), 0u);
}

TEST(Inserter, SubsumedPairsProduceNoEdges)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId ld = b.load(b.at(a, 0));
    OpId x = b.iadd(ld, ld);
    b.store(b.at(a, 0), x); // data chain subsumes LD->ST
    Region r = b.build();

    MdeSet mdes = analyzeAndInsert(r);
    EXPECT_EQ(mdes.size(), 0u);
}

TEST(Inserter, WithoutStage3EdgesAppear)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId ld = b.load(b.at(a, 0));
    OpId x = b.iadd(ld, ld);
    b.store(b.at(a, 0), x);
    Region r = b.build();

    PipelineConfig cfg;
    cfg.stage3 = false;
    MdeSet mdes = analyzeAndInsert(r, cfg);
    EXPECT_EQ(mdes.size(), 1u);
    EXPECT_EQ(mdes.edges()[0].kind, MdeKind::Order);
}

} // namespace
} // namespace nachos
