/**
 * @file
 * Experiment runner: synthesize a workload's region, run the alias
 * pipeline, insert MDEs, place the region on the CGRA grid, and
 * simulate under the requested backends — the shared engine behind
 * every bench binary, the examples, nachosd and the sweeps. The
 * front end (everything up to and including placement) is
 * machine-independent, so nachosd and the sweeps build it once per
 * region (harness/region_cache); each request then builds only the
 * operand network and firing tables for its machine.
 */

#ifndef NACHOS_HARNESS_RUNNER_HH
#define NACHOS_HARNESS_RUNNER_HH

#include <optional>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "harness/machine_config.hh"
#include "mde/inserter.hh"
#include "workloads/suite.hh"

namespace nachos {

/** What to run for a workload. */
struct RunRequest
{
    PipelineConfig pipeline;
    bool runLsq = true;
    bool runSw = true;
    bool runNachos = true;
    uint32_t pathIndex = 0;
    uint64_t seed = 1;
    /** Override the descriptor's invocation count (0 = keep). */
    uint64_t invocationsOverride = 0;
    /**
     * Machine-parameter overrides applied to the SimConfig of every
     * requested backend (all-zero = the paper's Figure-3 machine).
     * Only the simulation half reads these; the front end (synthesis +
     * analysis + MDEs + placement) is machine-independent by
     * construction: the grid is not an override.
     */
    MachineOverrides machine;
};

/**
 * The front half of a run: the synthesized region, its alias labels,
 * its MDEs and its placement on the Figure-3 grid. A pure function of
 * (workload, pathIndex, seed, pipeline flags) — the machine never
 * reaches it.
 */
struct FrontEnd
{
    Region region{"empty"};
    AliasAnalysisResult analysis;
    MdeSet mdes;
    Placement placement;
};

/** The simulated half of a run: one result per requested backend. */
struct BackendResults
{
    std::optional<SimResult> lsq;
    std::optional<SimResult> sw;
    std::optional<SimResult> nachos;
};

/** Everything produced for one workload run. */
struct RunOutcome : FrontEnd, BackendResults
{
};

/** Per-stage wall-clock seconds of one runWorkload call. */
struct StageTimes
{
    double synthSeconds = 0;
    double analysisSeconds = 0;
    double mdeSeconds = 0; ///< MDE insertion plus placement
    double simSeconds = 0; ///< all requested backends together
};

/**
 * Synthesize, analyze, insert MDEs and place for `request` on `info`,
 * adding each stage's wall-clock seconds to `times` (placement counts
 * toward mdeSeconds).
 */
FrontEnd buildFrontEnd(const BenchmarkInfo &info, const RunRequest &request,
                       StageTimes &times);

/**
 * Simulate `front` (built for `info` and `request`) under every
 * backend `request` asks for, on the request's machine, reusing
 * `pool`'s memory hierarchy and one firing plan. The plan borrows
 * front.placement, so every request served from one front end shares
 * one placement. The one simulation path behind runWorkload, nachosd
 * and the sweeps.
 */
BackendResults simulateRequest(const BenchmarkInfo &info,
                               const RunRequest &request,
                               const FrontEnd &front, HierarchyPool &pool);

/** Synthesize + analyze + simulate one workload. */
RunOutcome runWorkload(const BenchmarkInfo &info,
                       const RunRequest &request = {});

/** As above, recording how long each pipeline stage took. */
RunOutcome runWorkload(const BenchmarkInfo &info,
                       const RunRequest &request, StageTimes &times);

/** Analyze and place (no simulation) an already-built region. */
RunOutcome analyzeRegion(Region region,
                         const PipelineConfig &pipeline = {});

/** % delta of `x` vs `base` (positive = slower/larger than base). */
double pctDelta(double base, double x);

} // namespace nachos

#endif // NACHOS_HARNESS_RUNNER_HH
