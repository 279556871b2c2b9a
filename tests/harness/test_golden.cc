/**
 * Golden-anchored correctness: every ordering backend must match a
 * strict program-order functional execution — not just each other —
 * on hand-built regions, randomized regions, and the full suite.
 */

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "testing/reference.hh"
#include "testing/region_gen.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

void
expectGoldenMatch(const Region &region, uint64_t invocations)
{
    testing::ReferenceResult golden = testing::referenceExecute(region, invocations);
    AliasAnalysisResult analysis = runAliasPipeline(region);
    MdeSet mdes = insertMdes(region, analysis.matrix);
    SimConfig cfg;
    cfg.invocations = invocations;
    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        SimResult res = simulate(region, mdes, kind, cfg);
        EXPECT_EQ(res.loadValueDigest, golden.loadValueDigest)
            << region.name() << " under " << backendName(kind);
        EXPECT_EQ(res.memImage, golden.memImage)
            << region.name() << " under " << backendName(kind);
    }
}

TEST(Golden, ForwardingChainMatchesProgramOrder)
{
    RegionBuilder b("chain");
    ObjectId a = b.object("A", 4096);
    OpId v = b.liveIn();
    b.store(b.at(a, 0), v);
    OpId l1 = b.load(b.at(a, 0));
    OpId x = b.iadd(l1, v);
    b.store(b.at(a, 0), x);
    OpId l2 = b.load(b.at(a, 0));
    b.liveOut(l2);
    expectGoldenMatch(b.build(), 5);
}

TEST(Golden, ConflictingMayMatchesProgramOrder)
{
    RegionBuilder b("mayconf");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", a, 0);
    OpId v = b.liveIn();
    b.store(b.atParam(p, 0), v);
    OpId ld = b.load(b.atParam(q, 0));
    b.store(b.atParam(q, 8), ld);
    expectGoldenMatch(b.build(), 5);
}

class GoldenRandom : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(GoldenRandom, BackendsMatchGolden)
{
    testing::RegionGenOptions opts;
    opts.storeFraction = 0.6;
    Region r = testing::generateRegion(GetParam() + 5000, opts);
    expectGoldenMatch(r, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenRandom,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

class GoldenSuite : public ::testing::TestWithParam<size_t>
{};

TEST_P(GoldenSuite, WorkloadMatchesGolden)
{
    const BenchmarkInfo &info = benchmarkSuite()[GetParam()];
    Region r = synthesizeRegion(info);
    expectGoldenMatch(r, 6);
}

INSTANTIATE_TEST_SUITE_P(All27, GoldenSuite,
                         ::testing::Range(size_t{0}, size_t{27}));

TEST(Golden, DigestSensitiveToOrderingViolation)
{
    // Sanity: executing the stores of a ST-ST pair in the wrong order
    // yields a different memory image than golden.
    RegionBuilder b("violate");
    ObjectId a = b.object("A", 4096);
    OpId v1 = b.constant(1);
    OpId v2 = b.constant(2);
    b.store(b.at(a, 0), v1);
    b.store(b.at(a, 0), v2);
    Region r = b.build();

    testing::ReferenceResult golden = testing::referenceExecute(r, 1);
    FunctionalMemory wrong;
    wrong.write(r.object(a).baseAddr, 8, 2);
    wrong.write(r.object(a).baseAddr, 8, 1); // reversed commit order
    EXPECT_NE(golden.memImage, wrong.image());
}

} // namespace
} // namespace nachos
