#include "harness/runner.hh"

#include <chrono>

namespace nachos {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

FrontEnd
buildFrontEnd(const BenchmarkInfo &info, const RunRequest &request,
              StageTimes &times)
{
    Clock::time_point start = Clock::now();
    SynthesisOptions synth;
    synth.pathIndex = request.pathIndex;
    synth.seed = request.seed;

    FrontEnd front;
    front.region = synthesizeRegion(info, synth);
    times.synthSeconds += secondsSince(start);
    start = Clock::now();
    front.analysis = runAliasPipeline(front.region, request.pipeline);
    times.analysisSeconds += secondsSince(start);
    start = Clock::now();
    front.mdes = insertMdes(front.region, front.analysis.matrix);
    front.placement = Placement(front.region);
    times.mdeSeconds += secondsSince(start);
    return front;
}

BackendResults
simulateRequest(const BenchmarkInfo &info, const RunRequest &request,
                const FrontEnd &front, HierarchyPool &pool)
{
    SimConfig sim;
    sim.invocations = request.invocationsOverride
                          ? request.invocationsOverride
                          : info.invocations;
    request.machine.applyTo(sim);
    // One firing plan on the front end's placement serves all three
    // backend runs.
    const SimPlan plan(front.region, front.placement, sim.net);
    const MdeSet &m = front.mdes;
    BackendResults out;
    for (const BackendField &backend : backendFields())
        if (request.*backend.run)
            out.*backend.result = simulate(plan, m, backend.kind, sim, pool);
    return out;
}

RunOutcome
runWorkload(const BenchmarkInfo &info, const RunRequest &request,
            StageTimes &times)
{
    times = StageTimes{};
    RunOutcome out;
    static_cast<FrontEnd &>(out) = buildFrontEnd(info, request, times);
    // Worker-thread-local hierarchy pool: suite runs otherwise pay an
    // LLC-array construction per backend.
    thread_local HierarchyPool pool;
    const Clock::time_point start = Clock::now();
    static_cast<BackendResults &>(out) =
        simulateRequest(info, request, out, pool);
    times.simSeconds = secondsSince(start);
    return out;
}

RunOutcome
runWorkload(const BenchmarkInfo &info, const RunRequest &request)
{
    StageTimes times;
    return runWorkload(info, request, times);
}

RunOutcome
analyzeRegion(Region region, const PipelineConfig &pipeline)
{
    RunOutcome out;
    out.region = std::move(region);
    out.analysis = runAliasPipeline(out.region, pipeline);
    out.mdes = insertMdes(out.region, out.analysis.matrix);
    out.placement = Placement(out.region);
    return out;
}

double
pctDelta(double base, double x)
{
    return base == 0 ? 0 : (x - base) / base * 100.0;
}

} // namespace nachos
