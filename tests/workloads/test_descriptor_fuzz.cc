/**
 * Descriptor fuzzing: random-but-valid BenchmarkInfo descriptors (any
 * family mix, fan-in class, dependence counts, MLP, flags) must
 * synthesize structurally valid regions whose alias labels are sound
 * and whose three backend executions match the golden program-order
 * reference. This guards the synthesizer against corner cases no
 * hand-written descriptor exercises.
 */

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "support/random.hh"
#include "testing/reference.hh"
#include "workloads/synthesizer.hh"

namespace nachos {
namespace {

BenchmarkInfo
randomDescriptor(uint64_t seed)
{
    Rng rng(seed * 31 + 17);
    BenchmarkInfo b;
    b.name = "fuzz" + std::to_string(seed);
    b.shortName = b.name;
    b.ops = static_cast<uint32_t>(rng.range(8, 260));
    b.memOps = static_cast<uint32_t>(
        rng.range(0, std::min<int64_t>(b.ops / 2, 80)));
    b.mlp = static_cast<uint32_t>(rng.range(1, 32));
    if (b.memOps >= 6) {
        b.stStDeps = static_cast<uint32_t>(rng.range(0, 6));
        b.stLdDeps = static_cast<uint32_t>(rng.range(0, 6));
        b.ldStDeps = static_cast<uint32_t>(rng.range(0, 6));
    }
    b.localPct = rng.uniform() * 40;
    b.storeFraction = 0.1 + rng.uniform() * 0.5;
    b.fpFraction = rng.uniform() * 0.6;
    b.criticalPathFrac = 0.05 + rng.uniform() * 0.3;

    // Random family split.
    double f2 = rng.uniform(), f4 = rng.uniform(), fo = rng.uniform();
    double fn = rng.uniform() + 0.2;
    double total = f2 + f4 + fo + fn;
    b.famStage2Frac = f2 / total;
    b.famStage4Frac = f4 / total;
    b.famOpaqueFrac = fo / total;
    b.famNoFrac = fn / total;

    b.l1HitTarget = 0.6 + rng.uniform() * 0.4;
    b.fanInClass = static_cast<FanInClass>(rng.below(4));
    b.bloomClass = static_cast<BloomClass>(rng.below(4));
    b.chainedLoads = rng.chance(0.3);
    b.lattice3d = rng.chance(0.3);
    b.invocations = 16;
    b.parentContextOps = static_cast<uint32_t>(rng.range(0, 12));
    return b;
}

class DescriptorFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DescriptorFuzz, SynthesisSoundAndGoldenEquivalent)
{
    BenchmarkInfo info = randomDescriptor(GetParam());
    SynthesisOptions opts;
    opts.pathIndex = static_cast<uint32_t>(GetParam() % 5);
    Region r = synthesizeRegion(info, opts);

    // Structural sanity.
    EXPECT_GE(r.numOps(), 4u);
    if (info.memOps == 0) {
        EXPECT_EQ(r.numMemOps(), 0u);
    }

    // Label soundness at every stage configuration.
    for (bool s2 : {false, true}) {
        PipelineConfig cfg;
        cfg.stage2 = s2;
        AliasAnalysisResult res = runAliasPipeline(r, cfg);
        EXPECT_EQ(countSoundnessViolations(r, res.matrix, 20), 0u)
            << info.name << " stage2=" << s2;
    }

    // Golden equivalence across all backends.
    testing::ReferenceResult golden = testing::referenceExecute(r, 5);
    AliasAnalysisResult res = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, res.matrix);
    SimConfig cfg;
    cfg.invocations = 5;
    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        SimResult sim = simulate(r, mdes, kind, cfg);
        EXPECT_EQ(sim.loadValueDigest, golden.loadValueDigest)
            << info.name << " under " << backendName(kind);
        EXPECT_EQ(sim.memImage, golden.memImage)
            << info.name << " under " << backendName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

} // namespace
} // namespace nachos
