/**
 * @file
 * Shared pieces of the repository benchmark: command-line options, the
 * result report (printed as one JSON line), percentile helpers, the
 * behaviour digest, and the span tracer used by traced runs.
 *
 * The benchmark drives the library only through its public entry
 * points (runSuite, simulate, testing::runFuzzCase /
 * referenceExecute, Daemon, ServiceClient, runSweepOverDaemon) and
 * never sets an engine-selection knob, so the library's defaults are
 * what gets measured.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "mde/mde.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
double secondsSince(Clock::time_point a);

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

/** A metric's name and unit, as listed in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The metrics a run prints, in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/** What one workload run measured and checked. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Digest over every checked simulation result (see Digest). */
    uint64_t simDigest = 0;
    /** Workload-specific figures for the human-readable lines. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value);
    /** Record a failed check: counts as a failed operation. */
    void fail(const std::string &what);
};

/** Write the human lines, then the result JSON as the last line. */
void printReport(const Options &opts, const Report &report);

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * A run repeats a fixed unit of work (a trial) until its window ends
 * and reports best-of-N figures, the convention that keeps bursts of
 * interference from other tenants of a shared host out of them.
 */
/** Samples of one trial: `work` units done in `seconds`. */
struct Trial
{
    double seconds = 0;
    double work = 0;
    std::vector<double> latencyMs;
};

/** Set throughput_per_s and latency_p50/p99_ms from the best trials. */
void reportTrials(const std::vector<Trial> &trials, const char *workUnit,
                  Report &rep);

/**
 * Each operation's fastest latency over `trials`, which must all
 * repeat the same list of operations.
 */
std::vector<double> fastestRuns(const std::vector<Trial> &trials);

/**
 * For workloads whose trials repeat the same list of operations: each
 * operation's latency is its fastest run over all trials, throughput
 * is the operation count over the sum of those latencies, and p50/p99
 * are taken over them. Operation i of every trial must be the same
 * work.
 */
void reportFastestRuns(const std::vector<Trial> &trials,
                       const char *workUnit, Report &rep);

/**
 * Order-sensitive FNV-1a digest over simulation outcomes: cycles,
 * every stat counter, energy and the load-value digest. Two runs of
 * identical code at one seed must produce the same value.
 */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(std::string_view s);
    void add(const nachos::SimResult &r);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Deterministic work counts of the front end and the modeled machine,
 * summed over a fixed set of regions and simulations. They must repeat
 * exactly at a given seed; a host-only change must not move them.
 */
struct LayerCounts
{
    uint64_t mayPairs = 0;
    uint64_t mdeOrder = 0;
    uint64_t mdeForward = 0;
    uint64_t mdeMay = 0;
    uint64_t simCalls = 0;
    uint64_t events = 0;
    uint64_t simCycles = 0;
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t llcMisses = 0;
    uint64_t bloomProbes = 0;
    uint64_t bloomHits = 0;
    uint64_t camSearches = 0;
    uint64_t mayChecks = 0;
    uint64_t mayConflicts = 0;

    void addFrontEnd(const nachos::AliasAnalysisResult &analysis,
                     const nachos::MdeSet &mdes);
    void addSim(const nachos::SimResult &r);
    /** Set the count and ratio metrics of the per-layer list. */
    void report(Report &rep) const;
};

/**
 * In-memory span recorder. A span has a name, start, end, parent span
 * and request id. Self time (duration minus the child spans) is summed
 * per name as spans close; the first kMaxStoredSpans
 * spans are also kept and written out as Chrome trace-event JSON when
 * the run ends. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    static constexpr size_t kMaxStoredSpans = 20000;

    explicit Tracer(bool enabled);

    /**
     * RAII span on the calling thread, parented to the innermost open
     * Scope of the same thread.
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
    };

    /** Record a finished span with no parent (any thread). */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t request);

    /** Self time summed per span name, in microseconds. */
    std::map<std::string, double> selfMicros() const;

    /** Write the kept spans plus per-name self times as Chrome JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        uint64_t id;
        uint64_t parent; ///< 0 for a root span
        uint64_t request;
        uint64_t tid;
    };

    void finish(const Span &span, double childUs);
    double micros(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point epoch_;
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, double> self_;
};

/** Where a traced run writes its Chrome trace (inside the cwd). */
std::string traceOutputPath(const Options &opts);

/**
 * Set the per-layer host-time metrics from a tracer's self times: each
 * layer's self time divided by `ops`, the workload's unit of work, and
 * the per-call, per-event and per-cycle rates of the simulator, where
 * `counts` covers one of the `countReps` repetitions the tracer saw.
 */
void reportLayerTimes(const Tracer &tracer, double ops,
                      const LayerCounts &counts, uint64_t countReps,
                      Report &rep);

// Workload entry points (suite.cc, fuzz.cc, serve.cc).
Report runSuiteWorkload(const Options &opts);
Report runFuzzWorkload(const Options &opts);
Report runServeWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
