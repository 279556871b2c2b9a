/**
 * @file
 * Reference oracle: a sequential interpreter that executes a region's
 * invocations in strict program order against a private
 * FunctionalMemory and records everything the differential fuzzer
 * compares against — every disambiguated load's ground-truth value,
 * the committed memory-op count, and the final memory image. Any
 * ordering scheme that is correct must reproduce this execution
 * bit-for-bit (same digest, same image); the golden-equivalence tests
 * anchor to it directly.
 */

#ifndef NACHOS_TESTING_REFERENCE_HH
#define NACHOS_TESTING_REFERENCE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/dfg.hh"

namespace nachos {
namespace testing {

/** Ground truth for one disambiguated load execution. */
struct RefLoad
{
    OpId op = 0;
    uint64_t invocation = 0;
    uint64_t addr = 0;
    int64_t value = 0;
};

/** Everything a program-order execution produces. */
struct ReferenceResult
{
    /** Order-insensitive digest of every disambiguated load's value
     *  (same mixing as the simulator, so directly comparable). */
    uint64_t loadValueDigest = 0;
    /** Final functional-memory image (sorted bytes). */
    std::vector<std::pair<uint64_t, uint8_t>> memImage;
    /** Per-execution load ground truth, in program order. */
    std::vector<RefLoad> loads;
    /** Disambiguated memory ops executed (loads + stores, all
     *  invocations) — the commit-count a backend must match. */
    uint64_t committedMemOps = 0;
    /** Value of the last LiveOut in the final invocation (0 if the
     *  region has no LiveOut). */
    int64_t finalLiveOut = 0;
};

/** Execute `invocations` sequential program-order runs of `region`. */
ReferenceResult referenceExecute(const Region &region,
                                 uint64_t invocations);

} // namespace testing
} // namespace nachos

#endif // NACHOS_TESTING_REFERENCE_HH
