#include <gtest/gtest.h>

#include "energy/model.hh"

namespace nachos {
namespace {

TEST(EnergyModel, EmptyStatsMeanZeroEnergy)
{
    SimStats stats;
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.total(), 0.0);
    EXPECT_DOUBLE_EQ(b.frac(b.compute), 0.0);
}

TEST(EnergyModel, ComputeCategorySumsAluAndNetwork)
{
    SimStats stats;
    stats.counter(SimCounter::FuIntOps).inc(10);
    stats.counter(SimCounter::FuFpOps).inc(2);
    stats.counter(SimCounter::NetTransfers).inc(5);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.compute, 10 * p.aluInt + 2 * p.aluFp +
                                    5 * p.networkPerLink);
    EXPECT_DOUBLE_EQ(b.total(), b.compute);
}

TEST(EnergyModel, MdeCategoryUsesPaperCosts)
{
    SimStats stats;
    stats.counter(SimCounter::MdeMayChecks).inc(4);
    stats.counter(SimCounter::MdeOrderTokens).inc(8);
    stats.counter(SimCounter::MdeForwards).inc(1);
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    // Paper Figure 3: MAY 500 fJ, MUST 250 fJ.
    EXPECT_DOUBLE_EQ(b.mde, 4 * 500.0 + 8 * 250.0 + 1 * 500.0);
}

TEST(EnergyModel, LsqSplitsBloomAndCam)
{
    SimStats stats;
    stats.counter(SimCounter::LsqBloomProbes).inc(10);
    stats.counter(SimCounter::LsqCamLoads).inc(2);
    stats.counter(SimCounter::LsqCamStores).inc(1);
    stats.counter(SimCounter::LsqAllocs).inc(10);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.lsqBloom, 10 * p.lsqBloom);
    EXPECT_DOUBLE_EQ(b.lsqCam, 2 * p.lsqCamLoad + 1 * p.lsqCamStore +
                                   10 * p.lsqAlloc);
    EXPECT_DOUBLE_EQ(b.lsq(), b.lsqBloom + b.lsqCam);
}

TEST(EnergyModel, AppendixPerOpCostIs3000fJ)
{
    // The appendix prices the optimized LSQ at 3000 fJ per memory op;
    // our always-paid split (alloc + bloom) must add up to that.
    EnergyParams p;
    EXPECT_DOUBLE_EQ(p.lsqAlloc + p.lsqBloom, 3000.0);
}

TEST(EnergyModel, L1IncludesScratchpad)
{
    SimStats stats;
    stats.counter(SimCounter::L1Reads).inc(3);
    stats.counter(SimCounter::L1Writes).inc(2);
    stats.counter(SimCounter::ScratchpadReads).inc(4);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.l1, 3 * p.l1Read + 2 * p.l1Write +
                               4 * p.scratchpadAccess);
}

TEST(EnergyModel, FractionsSumToOne)
{
    SimStats stats;
    stats.counter(SimCounter::FuIntOps).inc(7);
    stats.counter(SimCounter::MdeMayChecks).inc(3);
    stats.counter(SimCounter::LsqBloomProbes).inc(2);
    stats.counter(SimCounter::L1Reads).inc(5);
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    double sum = b.frac(b.compute) + b.frac(b.mde) +
                 b.frac(b.lsqBloom) + b.frac(b.lsqCam) + b.frac(b.l1);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(EnergyModel, DescribeBreakdownMentionsCategories)
{
    SimStats stats;
    stats.counter(SimCounter::FuIntOps).inc(1);
    EnergyModel model;
    std::string s = describeBreakdown(model.breakdown(stats));
    EXPECT_NE(s.find("compute"), std::string::npos);
    EXPECT_NE(s.find("lsq"), std::string::npos);
    EXPECT_NE(s.find("nJ"), std::string::npos);
}

// Each counter-table row charges exactly the category its energy role
// names, and a row with no role charges nothing.
TEST(EnergyModel, EachCounterChargesItsRole)
{
    const EnergyModel model;
    for (const SimCounterRow &row : kSimCounterRows) {
        SimStats stats;
        stats.counter(row.id).inc();
        const EnergyBreakdown b = model.breakdown(stats);
        const std::string what(row.name);
        EXPECT_EQ(b.compute > 0, row.role == EnergyRole::Compute) << what;
        EXPECT_EQ(b.mde > 0, row.role == EnergyRole::Mde) << what;
        EXPECT_EQ(b.lsqBloom > 0, row.role == EnergyRole::LsqBloom)
            << what;
        EXPECT_EQ(b.lsqCam > 0, row.role == EnergyRole::LsqCam) << what;
        EXPECT_EQ(b.l1 > 0, row.role == EnergyRole::L1) << what;
    }
}

} // namespace
} // namespace nachos
