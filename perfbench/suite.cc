/**
 * @file
 * `suite` workload: the paper's evaluation. One pass runs all 27
 * workloads x paths 0-4 (135 regions) under OPT-LSQ, NACHOS-SW and
 * NACHOS at their default invocation counts, single-threaded, through
 * runSuite. The synthesis seed is `--seed` + 1, so seed 0 reproduces
 * the paper configuration.
 *
 * Set-up (repeated three times, median reported): one full pass whose
 * every backend result is checked against testing::referenceExecute.
 * Timed: whole passes until the window ends, each pass one trial;
 * every pass must reproduce the set-up pass's sim digest. A region's
 * latency (synthesis through all three simulations, from runSuite's
 * own stage times) is its fastest run over the passes; throughput is
 * regions per second over those latencies.
 *
 * Traced run: passes that make runSuite's calls one layer at a time
 * (synthesizeRegion, runAliasPipeline, insertMdes, simulate per
 * backend) inside spans, alternating with the same pass under a
 * disabled tracer, so the two differ by the span cost alone. The
 * tracing overhead is the sum over regions of each region's fastest
 * traced run minus its fastest untraced run, the estimator the timed
 * run uses; the per-layer self times and the exact work counts
 * come from the same regions, and every pass must reproduce runSuite's
 * digest.
 */

#include <cstdio>

#include "common.hh"
#include "harness/suite_runner.hh"
#include "testing/reference.hh"
#include "workloads/synthesizer.hh"

namespace perfbench {

using namespace nachos;

namespace {

constexpr uint32_t kPaths = 5;

struct Pass
{
    double seconds = 0;
    std::vector<double> regionMs;
    uint64_t digest = 0;
};

void
addOutcome(Digest &d, const RunOutcome &o)
{
    for (const std::optional<SimResult> *r : {&o.lsq, &o.sw, &o.nachos})
        d.add(**r);
}

/** Compare every backend of every region with the reference oracle. */
void
checkAgainstOracle(const BenchmarkInfo &info, uint32_t path,
                   const RunOutcome &o, Report &rep)
{
    const testing::ReferenceResult ref =
        testing::referenceExecute(o.region, info.invocations);
    const std::pair<const char *, const std::optional<SimResult> *> runs[] =
        {{"lsq", &o.lsq}, {"sw", &o.sw}, {"nachos", &o.nachos}};
    for (const auto &[backend, r] : runs) {
        ++rep.attempted;
        if ((*r)->loadValueDigest != ref.loadValueDigest ||
            (*r)->memImage != ref.memImage)
            rep.fail(info.name + " path " + std::to_string(path) + " " +
                     backend + ": result differs from reference oracle");
    }
}

/** One untraced pass: runSuite per path, timed around each call. */
Pass
untracedPass(const std::vector<BenchmarkInfo> &suite, uint64_t synthSeed,
             Report *oracleCheck)
{
    Pass pass;
    Digest digest;
    for (uint32_t path = 0; path < kPaths; ++path) {
        RunRequest request;
        request.pathIndex = path;
        request.seed = synthSeed;
        const Clock::time_point t0 = Clock::now();
        const SuiteRun run = runSuite(suite, request, 1);
        pass.seconds += secondsSince(t0);
        for (size_t i = 0; i < suite.size(); ++i) {
            const StageTimes &t = run.stageTimes[i];
            pass.regionMs.push_back(1e3 * (t.synthSeconds +
                                           t.analysisSeconds +
                                           t.mdeSeconds + t.simSeconds));
            addOutcome(digest, run.outcomes[i]);
            if (oracleCheck)
                checkAgainstOracle(suite[i], path, run.outcomes[i],
                                   *oracleCheck);
        }
    }
    pass.digest = digest.value();
    return pass;
}

/** The same pass, one layer call at a time inside `tracer`'s spans. */
Pass
layerPass(const std::vector<BenchmarkInfo> &suite, uint64_t synthSeed,
          Tracer &tracer, HierarchyPool &pool, LayerCounts *counts)
{
    Pass pass;
    std::vector<SimResult> results;
    results.reserve(kPaths * suite.size() * 3);
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope passSpan(tracer, "suite.pass");
        for (uint32_t path = 0; path < kPaths; ++path) {
            for (size_t i = 0; i < suite.size(); ++i) {
                const BenchmarkInfo &info = suite[i];
                const Clock::time_point regionStart = Clock::now();
                Tracer::Scope regionSpan(tracer, "harness.region",
                                         path * suite.size() + i + 1);
                SynthesisOptions synth;
                synth.pathIndex = path;
                synth.seed = synthSeed;
                Region region("empty");
                {
                    Tracer::Scope s(tracer, "workloads.synth");
                    region = synthesizeRegion(info, synth);
                }
                AliasAnalysisResult analysis;
                {
                    Tracer::Scope s(tracer, "analysis.pipeline");
                    analysis = runAliasPipeline(region);
                }
                MdeSet mdes;
                {
                    Tracer::Scope s(tracer, "mde.insert");
                    mdes = insertMdes(region, analysis.matrix);
                }
                SimConfig cfg;
                cfg.invocations = info.invocations;
                const std::pair<BackendKind, const char *> backends[] = {
                    {BackendKind::OptLsq, "cgra.sim_lsq"},
                    {BackendKind::NachosSw, "cgra.sim_sw"},
                    {BackendKind::Nachos, "cgra.sim_nachos"}};
                for (const auto &[kind, span] : backends) {
                    Tracer::Scope s(tracer, span);
                    results.push_back(
                        simulate(region, mdes, kind, cfg, pool));
                }
                if (counts)
                    counts->addFrontEnd(analysis, mdes);
                pass.regionMs.push_back(1e3 * secondsSince(regionStart));
            }
        }
    }
    pass.seconds = secondsSince(t0);
    // Digest and counts outside the timed pass, as in untracedPass.
    Digest digest;
    for (const SimResult &r : results) {
        digest.add(r);
        if (counts)
            counts->addSim(r);
    }
    pass.digest = digest.value();
    return pass;
}

/**
 * The traced run: layer-by-layer passes under a disabled and an enabled
 * tracer, in pairs, until the window ends; every pass must reproduce
 * `reference`, the digest of runSuite's passes.
 */
void
tracePasses(const std::vector<BenchmarkInfo> &suite, uint64_t synthSeed,
            uint64_t reference, const Options &opts, Report &rep)
{
    Tracer tracer(true);
    Tracer untraced(false);
    HierarchyPool pool;
    LayerCounts counts;
    std::vector<Trial> plainPasses, tracedPasses;
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < opts.seconds || tracedPasses.size() < 3) {
        const Pass plain = layerPass(suite, synthSeed, untraced, pool, nullptr);
        const Pass traced =
            layerPass(suite, synthSeed, tracer, pool,
                      tracedPasses.empty() ? &counts : nullptr);
        for (const Pass *pass : {&plain, &traced}) {
            ++rep.attempted;
            if (pass->digest != reference)
                rep.fail("layer-by-layer pass digest differs from runSuite's");
        }
        plainPasses.push_back({plain.seconds, 0, plain.regionMs});
        tracedPasses.push_back({traced.seconds, 0, traced.regionMs});
    }

    double plainMs = 0, tracedMs = 0;
    for (double ms : fastestRuns(plainPasses))
        plainMs += ms;
    for (double ms : fastestRuns(tracedPasses))
        tracedMs += ms;
    char note[200];
    std::snprintf(note, sizeof(note),
                  "layer-by-layer pass: fastest region runs sum to %.6f s "
                  "untraced, %.6f s traced (%zu passes each)",
                  plainMs / 1e3, tracedMs / 1e3, tracedPasses.size());
    rep.notes.push_back(note);
    counts.report(rep);
    reportLayerTimes(tracer, double(tracedPasses.size()), counts,
                     tracedPasses.size(), rep);
    rep.set("trace.overhead_ms", tracedMs - plainMs);
    const std::map<std::string, double> self = tracer.selfMicros();
    double layers = 0, passes = 0;
    for (const Trial &t : tracedPasses)
        passes += 1e6 * t.seconds;
    for (const char *name :
         {"workloads.synth", "analysis.pipeline", "mde.insert",
          "cgra.sim_lsq", "cgra.sim_sw", "cgra.sim_nachos"})
        if (auto it = self.find(name); it != self.end())
            layers += it->second;
    rep.set("trace.layer_share", layers / passes);
    if (!tracer.writeChromeTrace(traceOutputPath(opts)))
        rep.fail("could not write " + traceOutputPath(opts));
}

} // namespace

Report
runSuiteWorkload(const Options &opts)
{
    Report rep;
    const std::vector<BenchmarkInfo> &suite = benchmarkSuite();
    const uint64_t synthSeed = opts.seed + 1;

    std::vector<double> setupSeconds;
    uint64_t reference = 0;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
        const Clock::time_point t0 = Clock::now();
        const Pass warm = untracedPass(suite, synthSeed, &rep);
        setupSeconds.push_back(secondsSince(t0));
        if (rep_i == 0)
            reference = warm.digest;
        else if (warm.digest != reference)
            rep.fail("set-up pass digest differs from the first pass");
    }
    rep.simDigest = reference;

    rep.set("setup_s", median(setupSeconds));
    if (opts.trace) {
        tracePasses(suite, synthSeed, reference, opts, rep);
        return rep;
    }

    std::vector<Trial> trials;
    std::vector<double> passSeconds;
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < opts.seconds || trials.size() < 3) {
        const Pass pass = untracedPass(suite, synthSeed, nullptr);
        ++rep.attempted;
        if (pass.digest != reference)
            rep.fail("timed pass digest differs from the set-up pass");
        passSeconds.push_back(pass.seconds);
        trials.push_back({pass.seconds, double(pass.regionMs.size()),
                          pass.regionMs});
    }

    char note[160];
    std::snprintf(note, sizeof(note),
                  "suite_s %.6f s (median of %zu passes of 135 regions)",
                  median(passSeconds), passSeconds.size());
    rep.notes.push_back(note);
    reportFastestRuns(trials, "regions", rep);
    rep.set("peak_rss_mb", peakRssMb());
    return rep;
}

} // namespace perfbench
