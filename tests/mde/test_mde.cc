#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "ir/builder.hh"
#include "mde/mde.hh"

namespace nachos {
namespace {

Region
threeMemOpRegion()
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    b.store(b.at(a, 0), v);
    b.load(b.at(a, 0));
    b.store(b.at(a, 8), v);
    return b.build();
}

/** A span of edge indices as a vector, for EXPECT_EQ. */
std::vector<uint32_t>
ids(std::span<const uint32_t> span)
{
    return {span.begin(), span.end()};
}

TEST(MdeSet, AddAndIndex)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    MdeSet mdes(r, {{mem[0], mem[1], MdeKind::Forward},
                    {mem[0], mem[2], MdeKind::Order},
                    {mem[1], mem[2], MdeKind::May}});

    EXPECT_EQ(mdes.size(), 3u);
    EXPECT_EQ(ids(mdes.in(mem[2], MdeKind::Order)),
              (std::vector<uint32_t>{1}));
    EXPECT_EQ(ids(mdes.in(mem[2], MdeKind::May)),
              (std::vector<uint32_t>{2}));
    EXPECT_TRUE(mdes.in(mem[2], MdeKind::Forward).empty());
    EXPECT_EQ(ids(mdes.out(mem[0], MdeKind::Forward)),
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(ids(mdes.out(mem[0], MdeKind::Order)),
              (std::vector<uint32_t>{1}));
    for (MdeKind kind : {MdeKind::Order, MdeKind::Forward, MdeKind::May}) {
        EXPECT_TRUE(mdes.in(mem[0], kind).empty());
        EXPECT_TRUE(mdes.out(mem[2], kind).empty());
    }

    MdeCounts c = mdes.counts();
    EXPECT_EQ(c.forward, 1u);
    EXPECT_EQ(c.order, 1u);
    EXPECT_EQ(c.may, 1u);
    EXPECT_EQ(c.total(), 3u);
}

TEST(MdeSet, ForwardSourceLookup)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    EXPECT_TRUE(MdeSet(r).in(mem[1], MdeKind::Forward).empty());
    MdeSet mdes(r, {{mem[0], mem[1], MdeKind::Forward}});
    const auto forward = mdes.in(mem[1], MdeKind::Forward);
    ASSERT_EQ(forward.size(), 1u);
    EXPECT_EQ(mdes.edge(forward[0]).older, mem[0]);
}

TEST(MdeSet, GroupsKeepEdgeOrderAndSlots)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    for (int i = 0; i < 4; ++i)
        b.store(b.at(a, 8 * i), v);
    Region r = b.build();
    const auto &mem = r.memOps();
    MdeSet mdes(r, {{mem[0], mem[2], MdeKind::May},
                    {mem[1], mem[2], MdeKind::Order},
                    {mem[1], mem[2], MdeKind::May},
                    {mem[2], mem[3], MdeKind::Order},
                    {mem[0], mem[3], MdeKind::May},
                    {mem[2], mem[3], MdeKind::May}});

    // In-edges of one kind keep the list order; a MAY edge's slot is
    // its place among its younger op's MAY in-edges.
    EXPECT_EQ(ids(mdes.in(mem[2], MdeKind::May)),
              (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(ids(mdes.in(mem[3], MdeKind::May)),
              (std::vector<uint32_t>{4, 5}));
    EXPECT_EQ(mdes.slot(0), 0u);
    EXPECT_EQ(mdes.slot(2), 1u);
    EXPECT_EQ(mdes.slot(4), 0u);
    EXPECT_EQ(mdes.slot(5), 1u);
    EXPECT_EQ(mdes.slot(3), 0u);

    // Out-edges run younger op ascending.
    EXPECT_EQ(ids(mdes.out(mem[0], MdeKind::May)),
              (std::vector<uint32_t>{0, 4}));
    EXPECT_EQ(ids(mdes.out(mem[1], MdeKind::Order)),
              (std::vector<uint32_t>{1}));
    EXPECT_EQ(ids(mdes.out(mem[2], MdeKind::Order)),
              (std::vector<uint32_t>{3}));

    // A copy reads the same tables.
    const MdeSet copy = mdes;
    EXPECT_EQ(ids(copy.in(mem[3], MdeKind::May)),
              (std::vector<uint32_t>{4, 5}));
}

TEST(MdeSet, MayFanIns)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    MdeSet mdes(r, {{mem[0], mem[2], MdeKind::May},
                    {mem[1], mem[2], MdeKind::May}});
    auto fanins = mdes.mayFanIns(r);
    ASSERT_EQ(fanins.size(), 3u);
    EXPECT_EQ(fanins[0], 0u);
    EXPECT_EQ(fanins[1], 0u);
    EXPECT_EQ(fanins[2], 2u);
}

TEST(MdeSetDeathTest, BackwardEdgePanics)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    EXPECT_DEATH(MdeSet(r, {{mem[2], mem[0], MdeKind::Order}}),
                 "older -> younger");
}

TEST(MdeSetDeathTest, EdgesOutOfYoungerOrderPanic)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    EXPECT_DEATH(MdeSet(r, {{mem[0], mem[2], MdeKind::Order},
                            {mem[0], mem[1], MdeKind::Order}}),
                 "younger-op order");
}

TEST(MdeSetDeathTest, TwoForwardSourcesPanic)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    EXPECT_DEATH(MdeSet(r, {{mem[0], mem[2], MdeKind::Forward},
                            {mem[1], mem[2], MdeKind::Forward}}),
                 "two FORWARD sources");
}

TEST(MdeDot, EmitsDashedEdges)
{
    Region r = threeMemOpRegion();
    const auto &mem = r.memOps();
    MdeSet mdes(r, {{mem[0], mem[1], MdeKind::Forward}});
    std::ostringstream os;
    dumpDotWithMdes(r, mdes, os);
    EXPECT_NE(os.str().find("style=dashed"), std::string::npos);
    EXPECT_NE(os.str().find("FORWARD"), std::string::npos);
}

TEST(MdeKindNames, AllNamed)
{
    EXPECT_STREQ(mdeKindName(MdeKind::Order), "ORDER");
    EXPECT_STREQ(mdeKindName(MdeKind::Forward), "FORWARD");
    EXPECT_STREQ(mdeKindName(MdeKind::May), "MAY");
}

} // namespace
} // namespace nachos
