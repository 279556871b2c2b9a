/**
 * @file
 * Parallel experiment engine: fan a workload suite out across a
 * ThreadPool and collect the RunOutcomes in deterministic suite order,
 * regardless of completion order. Bit-identical to a sequential
 * runWorkload loop at any worker count: synthesizeRegion folds the
 * workload name and path index into the request seed, so every task
 * draws from its own RNG stream and the suite order cannot leak into
 * the results.
 *
 * Every full-suite bench binary accepts `--threads N` (else the
 * NACHOS_THREADS environment variable, else all hardware threads) via
 * suiteThreads(); timing lands in SuiteRun::timing so speedup is
 * observable without touching the deterministic stdout tables.
 */

#ifndef NACHOS_HARNESS_SUITE_RUNNER_HH
#define NACHOS_HARNESS_SUITE_RUNNER_HH

#include <iosfwd>
#include <vector>

#include "harness/runner.hh"
#include "support/thread_pool.hh"

namespace nachos {

/** Wall-clock accounting of a suite sweep; times in microseconds. */
struct SuiteTiming
{
    uint64_t wallMicros = 0;     ///< end-to-end wall clock of the sweep
    uint64_t taskMicros = 0;     ///< summed per-task time (aggregate work)
    uint64_t synthMicros = 0;    ///< summed synthesis time
    uint64_t analysisMicros = 0; ///< summed alias-pipeline time
    uint64_t mdeMicros = 0;      ///< summed MDE-insertion time
    uint64_t simMicros = 0;      ///< summed backend-simulation time
    uint64_t workloads = 0;      ///< number of workloads run
    uint64_t threads = 0;        ///< pool size used
};

/** Result of a (possibly parallel) sweep over a workload suite. */
struct SuiteRun
{
    /** One outcome per workload, in suite order. */
    std::vector<RunOutcome> outcomes;

    /** Per-workload stage timing, in suite order. */
    std::vector<StageTimes> stageTimes;

    SuiteTiming timing;
};

/**
 * Run every workload of `suite` under `request` on `threads` workers.
 * Outcomes are returned in suite order; threads=1 is the sequential
 * path (and is asserted equal to a runWorkload loop in the tests).
 */
SuiteRun runSuite(const std::vector<BenchmarkInfo> &suite,
                  const RunRequest &request = {},
                  unsigned threads = ThreadPool::defaultThreadCount());

/**
 * Worker count for a bench binary: `--threads N` / `--threads=N` from
 * argv if present, else ThreadPool::defaultThreadCount() (which
 * honors NACHOS_THREADS). Exits via fatal() on a missing or malformed
 * value.
 */
unsigned suiteThreads(int argc, char *const argv[]);

/**
 * One-line timing summary of a SuiteRun. Benches print this to
 * std::cerr so stdout tables stay byte-identical across thread
 * counts.
 */
void printSuiteTiming(std::ostream &os, const SuiteRun &run);

} // namespace nachos

#endif // NACHOS_HARNESS_SUITE_RUNNER_HH
