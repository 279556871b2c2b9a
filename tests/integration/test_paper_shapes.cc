/**
 * Paper-shape regression tests: the qualitative results recorded in
 * EXPERIMENTS.md, encoded as assertions so a future change that breaks
 * a reproduced trend fails CI rather than silently drifting. Each test
 * names the paper artifact it guards. Workload subsets run through the
 * parallel suite runner, so these tests double as an exercise of the
 * fan-out path the bench binaries use.
 */

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "analysis/stage1_basic.hh"
#include "harness/suite_runner.hh"
#include "mde/inserter.hh"

namespace nachos {
namespace {

/** Run the named workloads through runSuite on a few workers. */
std::vector<RunOutcome>
runNamed(const std::vector<std::string> &names,
         const RunRequest &req = {})
{
    std::vector<BenchmarkInfo> subset;
    subset.reserve(names.size());
    for (const std::string &name : names)
        subset.push_back(benchmarkByName(name));
    return runSuite(subset, req, 2).outcomes;
}

TEST(PaperShape, Fig06_NineWorkloadsFullyResolvedByStage1)
{
    // EXPERIMENTS.md F6 (paper: 7 of 27): Stage 1 alone leaves no MAY
    // pair over the top-5 paths of 9 workloads.
    int resolved = 0;
    for (const BenchmarkInfo &info : benchmarkSuite()) {
        uint64_t may = 0;
        for (uint32_t path = 0; path < 5; ++path) {
            SynthesisOptions opts;
            opts.pathIndex = path;
            may += runStage1(synthesizeRegion(info, opts)).counts().may;
        }
        resolved += may == 0 ? 1 : 0;
    }
    EXPECT_EQ(resolved, 9);
}

TEST(PaperShape, Fig07_TenWorkloadsRefinedByStage2)
{
    // EXPERIMENTS.md F7 (paper: 10): Stage 2 converts at least one
    // MAY pair to NO over the top-5 paths of 10 workloads.
    int refined = 0;
    for (const BenchmarkInfo &info : benchmarkSuite()) {
        uint64_t converted = 0;
        for (uint32_t path = 0; path < 5; ++path) {
            SynthesisOptions opts;
            opts.pathIndex = path;
            const AliasAnalysisResult res =
                runAliasPipeline(synthesizeRegion(info, opts));
            converted +=
                res.afterStage1.all.may - res.afterStage2.all.may;
        }
        refined += converted > 0 ? 1 : 0;
    }
    EXPECT_EQ(refined, 10);
}

TEST(PaperShape, Fig11_SwSerializationCripplesIrregularWorkloads)
{
    // §VI: MAY-heavy workloads slow down substantially under the
    // software-only scheme.
    const std::vector<std::string> names = {"bzip2", "histogram",
                                            "sarpfa"};
    RunRequest req;
    req.runNachos = false;
    std::vector<RunOutcome> outs = runNamed(names, req);
    for (size_t i = 0; i < names.size(); ++i) {
        const double delta =
            pctDelta(static_cast<double>(outs[i].lsq->cycles),
                     static_cast<double>(outs[i].sw->cycles));
        EXPECT_GT(delta, 15.0) << names[i];
    }
}

TEST(PaperShape, Fig11_LoadLatencyWorkloadsBeatTheLsq)
{
    // §VI: h264ref/equake/namd-style workloads are faster without the
    // LSQ's load-to-use tax.
    const std::vector<std::string> names = {"h264ref", "equake",
                                            "namd", "lbm"};
    RunRequest req;
    req.runNachos = false;
    std::vector<RunOutcome> outs = runNamed(names, req);
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_LT(outs[i].sw->cycles, outs[i].lsq->cycles)
            << names[i];
}

TEST(PaperShape, Fig15_NachosRecoversWhatSwSerializes)
{
    // §VIII-A: NACHOS parallelizes the MAY pairs NACHOS-SW serialized
    // and lands near (or past) OPT-LSQ.
    const std::vector<std::string> names = {"bzip2", "histogram",
                                            "povray", "fft2d"};
    std::vector<RunOutcome> outs = runNamed(names);
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_LT(outs[i].nachos->cycles, outs[i].sw->cycles)
            << names[i];
        const double vs_lsq =
            pctDelta(static_cast<double>(outs[i].lsq->cycles),
                     static_cast<double>(outs[i].nachos->cycles));
        EXPECT_LT(vs_lsq, 10.0) << names[i]; // within/below LSQ band
    }
}

TEST(PaperShape, Fig15_CertainWorkloadsMatchAcrossSchemes)
{
    // 15+ workloads where the compiler resolves everything: SW and
    // NACHOS behave identically (no checks to run).
    const std::vector<std::string> names = {"gzip", "sjeng", "equake",
                                            "dwt53"};
    std::vector<RunOutcome> outs = runNamed(names);
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(outs[i].nachos->cycles, outs[i].sw->cycles)
            << names[i];
        EXPECT_EQ(outs[i].nachos->stats.get("mde.mayChecks"), 0u)
            << names[i];
    }
}

TEST(PaperShape, Fig15_HeadlineCounts)
{
    // EXPERIMENTS.md F15 (paper: 19 within 2.5%, 6 faster, bzip2 and
    // sar-pfa ~8% slower): NACHOS vs OPT-LSQ cycles over all 27
    // workloads, bucketed as bench_fig15_nachos_vs_lsq does.
    const SuiteRun run = runSuite(benchmarkSuite(), RunRequest{}, 2);
    int close = 0, faster = 0, slower = 0;
    for (const RunOutcome &out : run.outcomes) {
        const double delta =
            pctDelta(static_cast<double>(out.lsq->cycles),
                     static_cast<double>(out.nachos->cycles));
        if (delta < -2.5)
            ++faster;
        else if (delta > 2.5)
            ++slower;
        else
            ++close;
    }
    EXPECT_EQ(close, 21);
    EXPECT_EQ(faster, 6);
    EXPECT_EQ(slower, 0);
}

TEST(PaperShape, Fig17_NachosSavesEnergyOnEveryWorkload)
{
    // §VIII-B: 21% average savings, 12-40% range; at minimum NACHOS
    // must never cost more than OPT-LSQ.
    const std::vector<std::string> names = {
        "gzip", "equake", "bzip2", "histogram", "povray", "sphinx3"};
    RunRequest req;
    req.runSw = false;
    std::vector<RunOutcome> outs = runNamed(names, req);
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_LT(outs[i].nachos->energy.total(),
                  outs[i].lsq->energy.total())
            << names[i];
}

TEST(PaperShape, Fig17_MdeShareFarBelowLsqShare)
{
    // The pay-as-you-go claim: MDE energy is a small fraction of what
    // the LSQ would spend on the same workload.
    const std::vector<std::string> names = {"bzip2", "povray",
                                            "fft2d"};
    RunRequest req;
    req.runSw = false;
    std::vector<RunOutcome> outs = runNamed(names, req);
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_LT(outs[i].nachos->energy.mde,
                  outs[i].lsq->energy.lsq() * 0.75)
            << names[i];
}

TEST(PaperShape, Fig18_BloomBucketsOrderedLikeThePaper)
{
    // Figure 18's table: zero-bucket workloads probe-miss everything;
    // the 20+ bucket workloads hit substantially.
    RunRequest req;
    req.runSw = false;
    req.runNachos = false;
    std::vector<RunOutcome> outs =
        runNamed({"gzip", "sphinx3", "bodytrack"}, req);

    auto hit_rate = [&outs](size_t i) {
        const double probes = static_cast<double>(
            outs[i].lsq->stats.get("lsq.bloomProbes"));
        const double hits = static_cast<double>(
            outs[i].lsq->stats.get("lsq.bloomHits"));
        return probes == 0 ? 0.0 : hits / probes;
    };
    EXPECT_LT(hit_rate(0), 0.01); // gzip
    EXPECT_LT(hit_rate(1), 0.01); // sphinx3
    EXPECT_GT(hit_rate(2), 0.10); // bodytrack
}

TEST(PaperShape, Appendix_DensityStaysBelowCrossover)
{
    // The appendix argument: every workload's MAY density must stay
    // under E_lsq / E_MAY = 6 for decentralized checking to win.
    for (const BenchmarkInfo &info : benchmarkSuite()) {
        Region r = synthesizeRegion(info);
        AliasAnalysisResult res = runAliasPipeline(r);
        const double density =
            static_cast<double>(res.final().enforced.may) /
            static_cast<double>(std::max<size_t>(r.numMemOps(), 1));
        EXPECT_LT(density, 6.0) << info.shortName;
    }
}

TEST(PaperShape, ScopeStudy_TwelveWorkloadsGrow)
{
    int grew = 0;
    for (const BenchmarkInfo &info : benchmarkSuite())
        grew += info.parentContextOps > 0 ? 1 : 0;
    EXPECT_EQ(grew, 12); // §IV-A: 12 of 27 benchmarks
}

} // namespace
} // namespace nachos
