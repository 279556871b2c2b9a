/**
 * The firing plan's static program: which ops depend on no memory op,
 * the offsets at which they fire, the edges by which they feed the
 * dynamic ops, and what they add to the counters each invocation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cgra/sim_tables.hh"
#include "ir/builder.hh"

namespace nachos {
namespace {

TEST(SimTables, StaticPartition)
{
    RegionBuilder b("partition");
    ObjectId a = b.object("A", 4096);
    OpId x = b.liveIn();                     // 0
    OpId c = b.constant(5);                  // 1
    OpId m = b.imul(x, c);                   // 2
    OpId ld = b.load(b.at(a, 0), 8, {m});    // 3: m gates the address
    OpId s = b.iadd(ld, m);                  // 4: load-dependent
    b.store(b.at(a, 8), s);                  // 5
    b.liveOut(b.fadd(m, x));                 // 6, 7
    b.liveOut(s);                            // 8
    b.liveOut(b.select(c, x, m));            // 9, 10
    const Region r = b.build();
    const Placement placement(r);
    const SimPlan plan(r, placement, NetworkConfig{});
    const SimTables &t = plan.tables();

    // Fire offsets: the cycles at which the eager cascade fired these
    // ops in the first invocation (start cycle 0).
    const std::vector<std::pair<OpId, uint32_t>> expected = {
        {0, 0}, {1, 0}, {2, 1}, {6, 5}, {7, 9}, {9, 5}, {10, 7}};
    ASSERT_EQ(t.staticProgram.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(t.staticProgram[i].op, expected[i].first);
        EXPECT_EQ(t.staticProgram[i].fireOffset, expected[i].second)
            << "op " << expected[i].first;
    }
    EXPECT_EQ(t.dynamicOps, (std::vector<OpId>{3, 4, 5, 8}));

    // Only m reaches a dynamic op: the load's address and the iadd.
    // imul ends at 1 + 3; each value then crosses the network.
    ASSERT_EQ(t.frontier.size(), 2u);
    const OperandNetwork &net = plan.network();
    EXPECT_EQ(t.frontier[0].producer, 2u);
    EXPECT_EQ(t.frontier[0].user, ld);
    EXPECT_EQ(t.frontier[0].slot, 0u);
    EXPECT_EQ(t.frontier[0].arrivalOffset, 4 + net.latency(m, ld));
    EXPECT_EQ(t.frontier[1].producer, 2u);
    EXPECT_EQ(t.frontier[1].user, s);
    EXPECT_EQ(t.frontier[1].slot, 1u);
    EXPECT_EQ(t.frontier[1].arrivalOffset, 4 + net.latency(m, s));

    // imul and select are int ops, fadd an FP op; LiveIn, Const and
    // LiveOut are free. Eleven edges leave static ops.
    EXPECT_EQ(t.staticTotals.intOps, 2u);
    EXPECT_EQ(t.staticTotals.fpOps, 1u);
    EXPECT_EQ(t.staticTotals.netTransfers, 11u);
    // The fadd's LiveOut ends last: 9 + 1.
    EXPECT_EQ(t.staticCriticalEnd, 10u);
    EXPECT_EQ(t.staticCriticalOp, 7u);
}

TEST(SimPlanDeathTest, RejectsMismatchedPlacement)
{
    RegionBuilder b("small");
    b.liveOut(b.iadd(b.liveIn(), b.constant(1)));
    const Region r = b.build();
    RegionBuilder w("wider");
    w.liveOut(w.iadd(w.liveIn(), w.liveIn()));
    w.liveOut(w.constant(2));
    const Region wider = w.build();
    const Placement placed(wider);
    EXPECT_DEATH(
        { const SimPlan plan(r, placed, NetworkConfig{}); },
        "placement of 6 ops for a region of 4");
}

} // namespace
} // namespace nachos
