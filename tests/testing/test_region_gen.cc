/**
 * Generator edge cases: determinism, serialization round-trips, the
 * canned profiles (zero-store, single-op, negative strides, out-of-range
 * 2-D through stage4, opaque-only through the MAY station), and the
 * address-safety contract that underpins the whole differential fuzzer:
 * every generated region is dynamically sound for the full invocation
 * horizon.
 */

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "ir/serialize.hh"
#include "mde/inserter.hh"
#include "testing/reference.hh"
#include "testing/region_gen.hh"

namespace nachos {
namespace testing {
namespace {

TEST(RegionGen, DeterministicPerSeed)
{
    const RegionGenOptions opts;
    for (uint64_t seed : {0u, 1u, 7u, 42u, 1337u}) {
        const Region a = generateRegion(seed, opts);
        const Region b = generateRegion(seed, opts);
        EXPECT_TRUE(regionsEquivalent(a, b)) << "seed " << seed;
        EXPECT_EQ(regionToString(a), regionToString(b));
    }
}

TEST(RegionGen, SeedsActuallyVaryTheShape)
{
    const RegionGenOptions opts;
    const std::string first = regionToString(generateRegion(0, opts));
    int different = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        if (regionToString(generateRegion(seed, opts)) != first)
            ++different;
    }
    EXPECT_GE(different, 6);
}

TEST(RegionGen, SerializationRoundTripsByteIdentically)
{
    for (uint64_t seed = 0; seed < 24; ++seed) {
        const Region r = generateRegion(seed);
        const std::string text = regionToString(r);
        const Region back = regionFromString(text);
        EXPECT_TRUE(regionsEquivalent(r, back)) << "seed " << seed;
        EXPECT_EQ(regionToString(back), text) << "seed " << seed;
    }
}

TEST(RegionGen, GeneratedRegionsAreSoundForTheFullHorizon)
{
    const RegionGenOptions opts;
    for (uint64_t seed = 0; seed < 32; ++seed) {
        const Region r = generateRegion(seed, opts);
        const AliasAnalysisResult res = runAliasPipeline(r);
        EXPECT_EQ(countSoundnessViolations(r, res.matrix,
                                           opts.maxInvocations),
                  0u)
            << "seed " << seed;
    }
}

TEST(RegionGenProfiles, ZeroStoreRegionsHaveNoStores)
{
    const RegionGenOptions opts = zeroStoreProfile();
    for (uint64_t seed = 0; seed < 16; ++seed) {
        const Region r = generateRegion(seed, opts);
        ASSERT_FALSE(r.memOps().empty()) << "seed " << seed;
        for (OpId id : r.memOps())
            EXPECT_TRUE(r.op(id).isLoad()) << "seed " << seed;
        // No stores means the reference image is untouched background
        // memory and every backend trivially agrees — but the region
        // must still execute.
        const ReferenceResult ref = referenceExecute(r, 2);
        EXPECT_EQ(ref.committedMemOps, r.memOps().size() * 2);
    }
}

TEST(RegionGenProfiles, SingleOpRegionsHaveExactlyOneMemOp)
{
    const RegionGenOptions opts = singleOpProfile();
    for (uint64_t seed = 0; seed < 16; ++seed) {
        const Region r = generateRegion(seed, opts);
        EXPECT_EQ(r.memOps().size(), 1u) << "seed " << seed;
    }
}

TEST(RegionGenProfiles, NegativeStridesAppearAndStayInBounds)
{
    const RegionGenOptions opts = negativeStrideProfile();
    bool saw_negative = false;
    for (uint64_t seed = 0; seed < 24; ++seed) {
        const Region r = generateRegion(seed, opts);
        for (OpId id : r.memOps()) {
            for (const AffineTerm &t : r.op(id).mem->addr.terms) {
                if (r.symbol(t.sym).kind == SymKind::Invocation &&
                    t.coeff < 0)
                    saw_negative = true;
            }
        }
        const AliasAnalysisResult res = runAliasPipeline(r);
        EXPECT_EQ(countSoundnessViolations(r, res.matrix,
                                           opts.maxInvocations),
                  0u)
            << "seed " << seed;
    }
    EXPECT_TRUE(saw_negative)
        << "profile never produced a negative invocation stride";
}

TEST(RegionGenProfiles, OutOfRange2dSurvivesStage4Soundly)
{
    const RegionGenOptions opts = outOfRange2dProfile();
    bool saw_2d = false;
    for (uint64_t seed = 0; seed < 24; ++seed) {
        const Region r = generateRegion(seed, opts);
        for (OpId id : r.memOps()) {
            for (const AffineTerm &t : r.op(id).mem->addr.terms) {
                if (r.symbol(t.sym).kind == SymKind::DimStride)
                    saw_2d = true;
            }
        }
        // The point of the profile: out-of-shape column indices are a
        // known blind spot of naive polyhedral disambiguation. Stage 4
        // must not emit a NO label any dynamic execution contradicts.
        const AliasAnalysisResult res = runAliasPipeline(r);
        EXPECT_EQ(countSoundnessViolations(r, res.matrix,
                                           opts.maxInvocations),
                  0u)
            << "seed " << seed;
    }
    EXPECT_TRUE(saw_2d) << "profile never produced a 2-D access";
}

TEST(RegionGenProfiles, OpaqueOnlyRegionsExerciseTheMayStation)
{
    const RegionGenOptions opts = opaqueOnlyProfile();
    uint64_t may_checks = 0;
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const Region r = generateRegion(seed, opts);
        // The profile is a MAY stress: besides the opaque-producer
        // index load (and conflict-reuses of its address), accesses
        // involve an opaque base or an opaque affine term.
        bool any_opaque = false;
        for (OpId id : r.memOps()) {
            const MemAccess &mem = *r.op(id).mem;
            any_opaque |= mem.addr.base.kind == BaseKind::Opaque;
            for (const AffineTerm &t : mem.addr.terms)
                any_opaque |= r.symbol(t.sym).kind == SymKind::Opaque;
        }
        EXPECT_TRUE(any_opaque) << "seed " << seed;

        const AliasAnalysisResult res = runAliasPipeline(r);
        EXPECT_EQ(countSoundnessViolations(r, res.matrix,
                                           opts.maxInvocations),
                  0u)
            << "seed " << seed;

        const MdeSet mdes = insertMdes(r, res.matrix);
        SimConfig cfg;
        cfg.invocations = 4;
        const SimResult hw = simulate(r, mdes, BackendKind::Nachos, cfg);
        may_checks += hw.stats.get("nachos.checksClear") +
                      hw.stats.get("nachos.checksConflict") +
                      hw.stats.get("nachos.runtimeForwards");

        const ReferenceResult ref = referenceExecute(r, 4);
        EXPECT_EQ(hw.loadValueDigest, ref.loadValueDigest)
            << "seed " << seed;
        EXPECT_EQ(hw.memImage, ref.memImage) << "seed " << seed;
    }
    EXPECT_GT(may_checks, 0u)
        << "opaque-only sweep never reached a comparator station";
}

TEST(RegionGenProfiles, ProfileByNameCoversEveryProfile)
{
    EXPECT_EQ(profileByName("zero-store").storeFraction, 0.0);
    EXPECT_EQ(profileByName("single-op").maxMemOps, 1);
    EXPECT_TRUE(profileByName("negative-stride").allowNegativeStride);
    EXPECT_TRUE(profileByName("oob-2d").allowOutOfRange2d);
    EXPECT_GT(profileByName("opaque-only").weightOpaque, 0.0);
    EXPECT_GT(profileByName("store-heavy").storeFraction,
              profileByName("default").storeFraction);
    EXPECT_DEATH(profileByName("no-such-profile"), "profile");
}

} // namespace
} // namespace testing
} // namespace nachos
