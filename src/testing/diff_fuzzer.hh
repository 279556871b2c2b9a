/**
 * @file
 * Differential fuzzer: every seeded region runs through the reference
 * oracle (program-order interpreter) and all three ordering backends —
 * OPT-LSQ across a bank sweep, NACHOS-SW, NACHOS — and the results are
 * cross-checked:
 *
 *   oracle equality — load-value digest and final memory image of
 *       every backend run must equal the reference execution;
 *   soundness       — the alias pipeline must report zero dynamic
 *       violations on its NO labels (generator + analysis contract);
 *   commit count    — every backend commits exactly the region's
 *       disambiguated mem ops, every invocation (mem trace);
 *   MUST order      — every MUST-alias pair commits in program order
 *       within each invocation (forwarded loads excepted: a forward IS
 *       the ordering);
 *   metamorphic     — NACHOS finishes no later than NACHOS-SW (runtime
 *       checks only relax compiler-serialized MAY edges).
 *
 * A fault-injection knob corrupts the MDE set before simulation (e.g.
 * drops one ORDER edge) so the checker itself can be mutation-tested:
 * a checker that cannot fail verifies nothing.
 *
 * On failure the region is shrunk (testing/shrink) while the failure
 * reproduces and serialized (ir/serialize) as a corpus-ready
 * reproducer.
 */

#ifndef NACHOS_TESTING_DIFF_FUZZER_HH
#define NACHOS_TESTING_DIFF_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mde/mde.hh"
#include "testing/region_gen.hh"

namespace nachos {
namespace testing {

/** Deliberate MDE corruption, for mutation-testing the checker. */
enum class FaultInjection : uint8_t {
    None,
    DropOrderEdge,   ///< remove one ORDER edge
    DropMayEdge,     ///< remove one MAY edge
    DropForwardEdge, ///< remove one FORWARD edge
};

const char *faultName(FaultInjection f);

/** Parse "none|drop-order|drop-may|drop-forward"; panics otherwise. */
FaultInjection faultByName(const std::string &name);

/** Full fuzzing configuration. */
struct FuzzOptions
{
    RegionGenOptions gen;
    /** Invocations per simulation (must stay within the generator's
     *  address-safety horizon gen.maxInvocations). */
    uint64_t invocations = 6;
    /** OPT-LSQ bank counts to sweep. */
    std::vector<uint32_t> lsqBankSweep = {1, 2, 4, 8};
    FaultInjection fault = FaultInjection::None;
    /** Shrink failing regions before reporting. */
    bool shrinkFailures = true;
};

/** One failed check. */
struct FuzzMismatch
{
    std::string check;   ///< "oracle-digest", "must-order", ...
    std::string backend; ///< "lsq[banks=2]", "nachos-sw", "nachos"
    std::string detail;
};

/** Outcome of one seeded case. */
struct FuzzCaseOutcome
{
    uint64_t seed = 0;
    bool failed = false;
    std::vector<FuzzMismatch> mismatches;
    /** Serialized (shrunk) reproducer; empty when the case passed. */
    std::string reproducer;
    size_t opsBeforeShrink = 0;
    size_t opsAfterShrink = 0;
};

/** Aggregate over a seed range. */
struct FuzzSummary
{
    uint64_t cases = 0;
    uint64_t failures = 0;
    /** Outcomes of failing cases (capped by runFuzz's max_failures). */
    std::vector<FuzzCaseOutcome> failed;
};

/**
 * Run every check on an already-built region (no generation, no
 * shrinking). This is also the corpus-replay entry point.
 */
std::vector<FuzzMismatch> checkRegion(const Region &region,
                                      const FuzzOptions &opts);

/** Generate the seed's region, check it, shrink on failure. */
FuzzCaseOutcome runFuzzCase(uint64_t seed, const FuzzOptions &opts);

/**
 * Fuzz `num_seeds` seeds from `start_seed` on `threads` workers.
 * Stops early once `max_failures` failing cases are collected. The
 * optional progress callback fires after each scheduling chunk with
 * (cases done, failures so far).
 */
FuzzSummary runFuzz(uint64_t start_seed, uint64_t num_seeds,
                    const FuzzOptions &opts, unsigned threads = 1,
                    uint64_t max_failures = 8,
                    const std::function<void(uint64_t, uint64_t)>
                        &progress = {});

} // namespace testing
} // namespace nachos

#endif // NACHOS_TESTING_DIFF_FUZZER_HH
