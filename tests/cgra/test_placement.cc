#include <gtest/gtest.h>

#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "cgra/simulator.hh"
#include "ir/builder.hh"

namespace nachos {
namespace {

Region
chainRegion(int length)
{
    RegionBuilder b("chain");
    OpId v = b.liveIn();
    for (int i = 0; i < length; ++i)
        v = b.iadd(v, v);
    b.liveOut(v);
    return b.build();
}

TEST(Placement, LevelsFollowDataflowDepth)
{
    Region r = chainRegion(5);
    Placement p(r);
    EXPECT_EQ(p.levelOf(0), 0u);
    EXPECT_EQ(p.levelOf(1), 1u);
    EXPECT_EQ(p.levelOf(5), 5u);
    EXPECT_EQ(p.depth(), 7u); // livein + 5 adds + liveout
}

TEST(Placement, ConsecutiveChainOpsStayLocal)
{
    Region r = chainRegion(10);
    Placement p(r);
    for (OpId op = 1; op < 10; ++op)
        EXPECT_LE(p.hops(op, op + 1), 4u);
}

TEST(Placement, DistinctCellsUpToGridCapacity)
{
    Region r = chainRegion(20);
    Placement p(r);
    for (OpId a = 0; a < r.numOps(); ++a) {
        for (OpId b = a + 1; b < r.numOps(); ++b)
            EXPECT_GT(p.hops(a, b), 0u)
                << "ops " << a << "," << b << " share a cell";
    }
}

TEST(Placement, WrapsWhenRegionExceedsGrid)
{
    Region r = chainRegion(kGridRows * kGridCols + 40);
    Placement p(r);
    // No panic; coordinates stay in range.
    for (OpId op = 0; op < r.numOps(); ++op) {
        Coord c = p.coordOf(op);
        EXPECT_LT(c.row, kGridRows);
        EXPECT_LT(c.col, kGridCols);
    }
}

TEST(Network, LatencyScalesWithDistance)
{
    Region r = chainRegion(40);
    Placement p(r);
    NetworkConfig cfg;
    OperandNetwork net(p, cfg);
    // Adjacent ops: minimum latency.
    EXPECT_EQ(net.latency(1, 2), cfg.minLatency);
    // Distant ops: more cycles.
    uint64_t far = net.latency(0, 39);
    EXPECT_GE(far, net.latency(0, 5));
}

TEST(Network, TransferCountsHops)
{
    // Every operand transfer SimCore delivers counts one
    // net.transfers and its route's hops into net.hops.
    Region r = chainRegion(4);
    SimConfig cfg;
    cfg.invocations = 3;
    const Placement placement(r);
    const SimPlan plan(r, placement, cfg.net);
    uint64_t edges = 0;
    uint64_t hops = 0;
    for (const Operation &o : r.ops()) {
        for (OpId user : r.users(o.id)) {
            for (OpId operand : r.op(user).operands) {
                if (operand != o.id)
                    continue;
                ++edges;
                hops += plan.placement().hops(o.id, user);
            }
        }
    }
    ASSERT_GT(hops, 0u);
    HierarchyPool pool;
    const SimResult res =
        simulate(plan, MdeSet(r), BackendKind::NachosSw, cfg, pool);
    EXPECT_EQ(res.stats.get("net.transfers"), cfg.invocations * edges);
    EXPECT_EQ(res.stats.get("net.hops"), cfg.invocations * hops);
}

} // namespace
} // namespace nachos
