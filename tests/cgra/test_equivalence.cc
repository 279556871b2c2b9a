/**
 * Cross-backend equivalence property tests: the three ordering schemes
 * must produce bit-identical load values and final memory images on
 * the same region — any divergence is a memory-ordering violation in
 * one of the backends (or an unsound compiler label).
 */

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "testing/region_gen.hh"

namespace nachos {
namespace {

struct EquivCase
{
    uint64_t seed;
    bool baselineCompiler; ///< run with stages 1+3 only
};

class BackendEquivalence
    : public ::testing::TestWithParam<uint64_t>
{};

void
expectEquivalent(const Region &r, const PipelineConfig &cfg,
                 uint64_t invocations)
{
    AliasAnalysisResult analysis = runAliasPipeline(r, cfg);
    ASSERT_EQ(countSoundnessViolations(r, analysis.matrix, invocations),
              0u)
        << r.name();
    MdeSet mdes = insertMdes(r, analysis.matrix);

    SimConfig sim_cfg;
    sim_cfg.invocations = invocations;
    SimResult lsq = simulate(r, mdes, BackendKind::OptLsq, sim_cfg);
    SimResult sw = simulate(r, mdes, BackendKind::NachosSw, sim_cfg);
    SimResult hw = simulate(r, mdes, BackendKind::Nachos, sim_cfg);

    EXPECT_EQ(lsq.loadValueDigest, sw.loadValueDigest)
        << r.name() << ": LSQ vs SW load values diverged";
    EXPECT_EQ(sw.loadValueDigest, hw.loadValueDigest)
        << r.name() << ": SW vs NACHOS load values diverged";
    EXPECT_EQ(lsq.memImage, sw.memImage)
        << r.name() << ": LSQ vs SW memory image diverged";
    EXPECT_EQ(sw.memImage, hw.memImage)
        << r.name() << ": SW vs NACHOS memory image diverged";
}

TEST_P(BackendEquivalence, FullPipeline)
{
    Region r = testing::generateRegion(GetParam());
    expectEquivalent(r, PipelineConfig{}, 6);
}

TEST_P(BackendEquivalence, BaselineCompilerPipeline)
{
    Region r = testing::generateRegion(GetParam());
    expectEquivalent(r, PipelineConfig::baselineCompiler(), 6);
}

TEST_P(BackendEquivalence, StoreHeavyRegions)
{
    testing::RegionGenOptions opts;
    opts.storeFraction = 0.75;
    opts.minMemOps = 6;
    opts.maxMemOps = 20;
    Region r = testing::generateRegion(GetParam() + 1000, opts);
    expectEquivalent(r, PipelineConfig{}, 5);
}

INSTANTIATE_TEST_SUITE_P(RandomRegions, BackendEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{30}));

} // namespace
} // namespace nachos
