/**
 * @file
 * `fuzz` workload: default-profile differential fuzzing at threads 1.
 * Each seed generates a small random region and runs it for six
 * invocations through the OPT-LSQ bank sweep, NACHOS-SW, NACHOS and
 * the reference oracle, so per-simulation fixed cost, region
 * generation and analysis dominate.
 *
 * Seeds: a trial fuzzes kTrialSeeds seeds from 1 + `--seed` * 2^24;
 * set-up fuzzes five 256-seed batches from a disjoint range.
 * Everything timed runs through testing::runFuzzCase with the default
 * FuzzOptions, the per-seed entry point that testing::runFuzz loops
 * over on its single worker at threads 1, one seed after another on
 * this thread. Trials repeat until the window ends; a seed's latency
 * is its fastest run over the trials, and every failed case counts as
 * a failure.
 *
 * runFuzzCase returns a verdict, not its simulation results, so the
 * sim_digest comes from a replay: the first kDigestSeeds timed seeds
 * are run again one layer at a time, each backend run a sequential
 * simulate(), checked against the oracle and digested. runFuzzCase's
 * default runs the same six lanes through the batched engine, whose
 * per-lane results are byte-identical to simulate() by that engine's
 * contract; the digest therefore pins simulate()'s behaviour, not the
 * batched engine's cycles, stats or energy. The replay's check is the
 * oracle's (load digest, memory image, commit count); the must-order
 * and metamorphic checks run inside runFuzzCase for every timed seed.
 *
 * Traced run: each repetition runs the trial's seeds through
 * runFuzzCase, one `testing.case` span per seed (the timed path, so
 * testing.case_us moves with whatever engine it uses), then replays
 * them one layer at a time inside spans. The layer times and exact
 * counts come from the replay, so its simulation times are
 * simulate()'s, per seed.
 */

#include <cstdio>

#include "common.hh"
#include "mde/inserter.hh"
#include "testing/diff_fuzzer.hh"
#include "testing/reference.hh"

namespace perfbench {

using namespace nachos;

namespace {

constexpr uint64_t kSetupBatch = 256;
constexpr uint64_t kTrialSeeds = 1024;
constexpr uint64_t kDigestSeeds = 64;

/**
 * One seed, one layer call at a time: the calls of checkRegion, with
 * the backend runs as sequential simulate() calls. Returns false on
 * any disagreement with the oracle.
 */
bool
replaySeed(uint64_t seed, const testing::FuzzOptions &fopts,
           Tracer &tracer, HierarchyPool &pool, Digest &digest,
           LayerCounts *counts)
{
    Tracer::Scope replaySpan(tracer, "testing.replay", seed);
    Region region("empty");
    {
        Tracer::Scope s(tracer, "testing.region_gen");
        region = testing::generateRegion(seed, fopts.gen);
    }
    testing::ReferenceResult ref;
    {
        Tracer::Scope s(tracer, "testing.oracle");
        ref = testing::referenceExecute(region, fopts.invocations);
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
    cfg.invocations = fopts.invocations;
    cfg.recordMemTrace = true;
    std::vector<SimResult> results;
    for (uint32_t banks : fopts.lsqBankSweep) {
        SimConfig lsqCfg = cfg;
        lsqCfg.lsq.banks = banks;
        Tracer::Scope s(tracer, "cgra.sim_lsq");
        results.push_back(
            simulate(region, mdes, BackendKind::OptLsq, lsqCfg, pool));
    }
    {
        Tracer::Scope s(tracer, "cgra.sim_sw");
        results.push_back(
            simulate(region, mdes, BackendKind::NachosSw, cfg, pool));
    }
    {
        Tracer::Scope s(tracer, "cgra.sim_nachos");
        results.push_back(
            simulate(region, mdes, BackendKind::Nachos, cfg, pool));
    }

    bool ok = true;
    {
        Tracer::Scope s(tracer, "testing.check");
        ok = countSoundnessViolations(region, analysis.matrix,
                                      fopts.invocations) == 0;
        for (const SimResult &r : results)
            ok = ok && r.loadValueDigest == ref.loadValueDigest &&
                 r.memImage == ref.memImage &&
                 r.memCommits.size() == ref.committedMemOps;
    }
    for (const SimResult &r : results) {
        digest.add(r);
        if (counts)
            counts->addSim(r);
    }
    if (counts)
        counts->addFrontEnd(analysis, mdes);
    return ok;
}

/** Replay `n` seeds from `first`; failures go into `rep`. */
void
replaySeeds(uint64_t first, uint64_t n, const testing::FuzzOptions &fopts,
            Tracer &tracer, HierarchyPool &pool, Digest &digest,
            LayerCounts *counts, Report &rep)
{
    for (uint64_t seed = first; seed < first + n; ++seed) {
        ++rep.attempted;
        if (!replaySeed(seed, fopts, tracer, pool, digest, counts))
            rep.fail("seed " + std::to_string(seed) +
                     ": layer-by-layer replay disagrees with the oracle");
    }
}

} // namespace

Report
runFuzzWorkload(const Options &opts)
{
    Report rep;
    const testing::FuzzOptions fopts; // the default profile
    const uint64_t firstSeed = 1 + (opts.seed << 24);

    // Set-up and timed cases run on this thread, so they share one
    // thread-local engine, as runFuzz's single worker does.
    std::vector<double> setupSeconds;
    for (uint64_t batch = 0; batch < 5; ++batch) {
        const uint64_t from = firstSeed + (1u << 23) + batch * kSetupBatch;
        const Clock::time_point t0 = Clock::now();
        for (uint64_t seed = from; seed < from + kSetupBatch; ++seed) {
            ++rep.attempted;
            if (testing::runFuzzCase(seed, fopts).failed)
                rep.fail("set-up seed " + std::to_string(seed) + " failed");
        }
        setupSeconds.push_back(secondsSince(t0));
    }
    rep.set("setup_s", median(setupSeconds));

    Tracer tracer(opts.trace);
    HierarchyPool pool;
    std::vector<Trial> trials;
    const Clock::time_point start = Clock::now();
    if (opts.trace) {
        LayerCounts counts;
        uint64_t first = 0, reps = 0;
        while (reps == 0 || secondsSince(start) < opts.seconds) {
            for (uint64_t seed = firstSeed; seed < firstSeed + kTrialSeeds;
                 ++seed) {
                ++rep.attempted;
                Tracer::Scope s(tracer, "testing.case", seed);
                if (testing::runFuzzCase(seed, fopts).failed)
                    rep.fail("seed " + std::to_string(seed) + " failed");
            }
            Digest repDigest;
            replaySeeds(firstSeed, kTrialSeeds, fopts, tracer, pool,
                        repDigest, reps == 0 ? &counts : nullptr, rep);
            if (reps == 0)
                first = repDigest.value();
            else if (repDigest.value() != first)
                rep.fail("traced replay digest changed between repetitions");
            ++reps;
        }
        counts.report(rep);
        reportLayerTimes(tracer, double(reps * kTrialSeeds), counts, reps,
                         rep);
        const std::map<std::string, double> self = tracer.selfMicros();
        rep.set("testing.case_us",
                self.at("testing.case") / double(reps * kTrialSeeds));
        rep.notes.push_back("traced " + std::to_string(reps) + " x " +
                            std::to_string(kTrialSeeds) + " seeds");
        if (!tracer.writeChromeTrace(traceOutputPath(opts)))
            rep.fail("could not write " + traceOutputPath(opts));
    } else {
        while (secondsSince(start) < opts.seconds || trials.size() < 3) {
            Trial trial;
            const Clock::time_point trialStart = Clock::now();
            for (uint64_t seed = firstSeed; seed < firstSeed + kTrialSeeds;
                 ++seed) {
                const Clock::time_point t0 = Clock::now();
                const testing::FuzzCaseOutcome outcome =
                    testing::runFuzzCase(seed, fopts);
                trial.latencyMs.push_back(1e3 * secondsSince(t0));
                ++rep.attempted;
                if (outcome.failed)
                    rep.fail("seed " + std::to_string(seed) + ": " +
                             outcome.mismatches.front().check + " on " +
                             outcome.mismatches.front().backend);
            }
            trial.seconds = secondsSince(trialStart);
            trial.work = double(kTrialSeeds);
            trials.push_back(std::move(trial));
        }
    }
    Tracer untraced(false);
    Digest digest;
    replaySeeds(firstSeed, kDigestSeeds, fopts, untraced, pool, digest,
                nullptr, rep);
    rep.simDigest = digest.value();
    if (opts.trace)
        return rep;

    reportFastestRuns(trials, "seeds", rep);
    rep.set("peak_rss_mb", peakRssMb());
    return rep;
}

} // namespace perfbench
