/**
 * @file
 * Deterministic random offload-region generator for the verification
 * subsystem. Successor of the header-only tests/testing helper, with a
 * much richer shape space:
 *
 *  - all five address-pattern classes (constant offset, invocation
 *    stride, pointer param, 2-D symbolic stride, opaque), with
 *    per-class weights;
 *  - tunable dynamic-conflict density (address reuse with exact and
 *    partial-overlap perturbations, mixed 4/8-byte footprints);
 *  - parameter-aliasing shapes: exact/partial param pairs, provenance
 *    (direct and chained through another param), restrict params with
 *    a dedicated object so the qualifier stays truthful;
 *  - multi-object environments with optional non-escaping objects,
 *    2-D layouts with negative invocation strides and out-of-shape
 *    column indices (linearized in-bounds), and opaque bases
 *    (pointer-chase) alongside opaque affine terms.
 *
 * Every generated region is dynamically sound by construction for up
 * to `maxInvocations` invocations: all object-based accesses stay
 * inside their object, opaque-base addresses stay below the object
 * arena, and restrict/escape annotations are honored by the ground
 * truth — so `countSoundnessViolations` must report zero, which the
 * differential fuzzer asserts on every seed.
 */

#ifndef NACHOS_TESTING_REGION_GEN_HH
#define NACHOS_TESTING_REGION_GEN_HH

#include <cstdint>
#include <string>

#include "ir/builder.hh"

namespace nachos {
namespace testing {

/** Tuning knobs for random region generation. */
struct RegionGenOptions
{
    /** Bounds on disambiguated memory ops (beyond the opaque seed
     *  load, emitted only when opaque patterns are enabled). */
    int minMemOps = 4;
    int maxMemOps = 14;
    /** Probability a memory op is a store. */
    double storeFraction = 0.5;
    /** Add a compute cloud chained off loads. */
    bool withCompute = true;
    /** Emit a LiveOut of the last pooled value. */
    bool withLiveOut = true;

    /** Address-pattern class weights (0 disables a class). */
    double weightConstant = 1.0;
    double weightStrided = 1.0;
    double weightParam = 1.0;
    double weight2d = 1.0;
    double weightOpaque = 1.0;

    /** Probability a mem op reuses an earlier address expression
     *  (possibly perturbed into a partial overlap). */
    double conflictDensity = 0.35;
    /** Probability a reused expression is perturbed by +-4/+-8. */
    double perturbFraction = 0.5;
    /** Probability an access uses a 4-byte footprint instead of 8. */
    double narrowFraction = 0.15;

    /** Flat objects in the environment (restrict targets extra). */
    int minObjects = 1;
    int maxObjects = 3;
    /** Probability a flat object is non-escaping (still globally
     *  addressed, but never targeted by params). */
    double nonEscapingFraction = 0.2;

    /** Pointer params (0 disables the class regardless of weight). */
    int numParams = 2;
    /** Probability a param gets compile-time provenance. */
    double provenanceFraction = 0.5;
    /** Probability provenance chains through another param. */
    double chainedProvenanceFraction = 0.25;
    /** Probability consecutive params alias exactly / partially. */
    double paramAliasFraction = 0.4;
    /** Probability one extra restrict param (dedicated object). */
    double restrictFraction = 0.2;

    /** Allow negative invocation strides (strided + 2-D classes). */
    bool allowNegativeStride = true;
    /** Allow 2-D column indices beyond the declared shape (still
     *  linearized in-bounds within the object). */
    bool allowOutOfRange2d = true;
    /** Allow opaque-base (pointer-chase) addresses, not just opaque
     *  affine terms over an object base. */
    bool allowOpaqueBase = true;

    /** Address-safety horizon: accesses stay in-bounds for
     *  invocations 0..maxInvocations-1. */
    uint64_t maxInvocations = 8;
};

/** Build a random-but-deterministic region from a seed. */
Region generateRegion(uint64_t seed, const RegionGenOptions &opts = {});

/** Canned option profiles for fuzzing sweeps and edge-case tests. */
RegionGenOptions storeHeavyProfile();
RegionGenOptions zeroStoreProfile();
RegionGenOptions singleOpProfile();
RegionGenOptions negativeStrideProfile();
RegionGenOptions outOfRange2dProfile();
RegionGenOptions opaqueOnlyProfile();

/** Named profile lookup ("default", "store-heavy", "zero-store",
 *  "single-op", "negative-stride", "oob-2d", "opaque-only"); panics on
 *  an unknown name. Used by the nachos_fuzz CLI. */
RegionGenOptions profileByName(const std::string &name);

} // namespace testing
} // namespace nachos

#endif // NACHOS_TESTING_REGION_GEN_HH
