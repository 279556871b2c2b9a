#include <gtest/gtest.h>

#include <sstream>

#include "harness/region_cache.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

namespace nachos {
namespace {

TEST(Runner, RunsAllThreeBackends)
{
    RunRequest req;
    req.invocationsOverride = 4;
    RunOutcome out = runWorkload(benchmarkByName("parser"), req);
    ASSERT_TRUE(out.lsq && out.sw && out.nachos);
    EXPECT_GT(out.lsq->cycles, 0u);
    EXPECT_GT(out.sw->cycles, 0u);
    EXPECT_GT(out.nachos->cycles, 0u);
}

TEST(Runner, BackendsAgreeFunctionallyOnWorkloads)
{
    for (const char *name : {"parser", "art", "bodytrack", "sjeng"}) {
        RunRequest req;
        req.invocationsOverride = 5;
        RunOutcome out = runWorkload(benchmarkByName(name), req);
        EXPECT_EQ(out.lsq->loadValueDigest, out.sw->loadValueDigest)
            << name;
        EXPECT_EQ(out.sw->loadValueDigest, out.nachos->loadValueDigest)
            << name;
        EXPECT_EQ(out.lsq->memImage, out.nachos->memImage) << name;
    }
}

TEST(Runner, SelectiveBackends)
{
    RunRequest req;
    req.runLsq = false;
    req.runSw = false;
    req.invocationsOverride = 2;
    RunOutcome out = runWorkload(benchmarkByName("gzip"), req);
    EXPECT_FALSE(out.lsq.has_value());
    EXPECT_FALSE(out.sw.has_value());
    EXPECT_TRUE(out.nachos.has_value());
}

void
expectSameSim(const SimResult &a, const SimResult &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest) << what;
    EXPECT_EQ(a.memImage, b.memImage) << what;
    EXPECT_EQ(a.stats.dump(), b.stats.dump()) << what;
    EXPECT_EQ(a.energy.total(), b.energy.total()) << what;
}

TEST(Runner, SimulateRequestMatchesRunWorkload)
{
    // One pool across workloads and backends, as a daemon worker keeps
    // it: the shared front end plus simulateRequest must reproduce
    // runWorkload exactly.
    HierarchyPool pool;
    for (const char *name : {"parser", "gzip"}) {
        const BenchmarkInfo &info = benchmarkByName(name);
        RunRequest req;
        req.invocationsOverride = 4;
        const RunOutcome direct = runWorkload(info, req);
        const std::shared_ptr<const RegionCacheEntry> front =
            RegionCache::build(info, req);
        const BackendResults sims =
            simulateRequest(info, req, *front, pool);
        ASSERT_TRUE(sims.lsq && sims.sw && sims.nachos) << name;
        expectSameSim(*sims.lsq, *direct.lsq, name);
        expectSameSim(*sims.sw, *direct.sw, name);
        expectSameSim(*sims.nachos, *direct.nachos, name);
    }
}

TEST(Runner, SimulateRequestSelectiveBackendsAndMachine)
{
    const BenchmarkInfo &info = benchmarkByName("art");
    RunRequest req;
    req.runLsq = false;
    req.invocationsOverride = 3;
    req.machine.l1SizeBytes = 16 * 1024;
    req.machine.dramLatency = 400;
    const RunOutcome direct = runWorkload(info, req);
    const std::shared_ptr<const RegionCacheEntry> front =
        RegionCache::build(info, req);
    HierarchyPool pool;
    const BackendResults sims = simulateRequest(info, req, *front, pool);
    EXPECT_FALSE(sims.lsq.has_value());
    ASSERT_TRUE(sims.sw && sims.nachos);
    expectSameSim(*sims.sw, *direct.sw, "sw");
    expectSameSim(*sims.nachos, *direct.nachos, "nachos");
}

TEST(Runner, MachineOverridesChangeTiming)
{
    RunRequest base;
    base.invocationsOverride = 4;
    const RunOutcome stock = runWorkload(benchmarkByName("art"), base);

    RunRequest slow = base;
    slow.machine.dramLatency = 2000; // default is 200
    const RunOutcome far = runWorkload(benchmarkByName("art"), slow);

    ASSERT_TRUE(stock.nachos && far.nachos);
    EXPECT_GT(far.nachos->cycles, stock.nachos->cycles);
    // Timing moved but the program didn't: same values flowed.
    EXPECT_EQ(far.nachos->loadValueDigest,
              stock.nachos->loadValueDigest);
}

TEST(Runner, MachineOverridesAtDefaultsAreInert)
{
    RunRequest base;
    base.invocationsOverride = 3;
    const RunOutcome stock = runWorkload(benchmarkByName("gzip"), base);

    // Explicitly restating the Figure-3 defaults must be a no-op.
    RunRequest same = base;
    same.machine.lsqBanks = 4;
    same.machine.dramLatency = 200;
    same.machine.l1SizeBytes = 64 * 1024;
    const RunOutcome spelled =
        runWorkload(benchmarkByName("gzip"), same);

    ASSERT_TRUE(stock.lsq && spelled.lsq);
    EXPECT_EQ(spelled.lsq->cycles, stock.lsq->cycles);
    EXPECT_EQ(spelled.lsq->loadValueDigest,
              stock.lsq->loadValueDigest);
    EXPECT_EQ(spelled.lsq->energy.total(), stock.lsq->energy.total());
}

TEST(Runner, AnalyzeRegionOnly)
{
    Region r = synthesizeRegion(benchmarkByName("gcc"));
    RunOutcome out = analyzeRegion(std::move(r));
    EXPECT_FALSE(out.lsq.has_value());
    EXPECT_EQ(out.analysis.final().all.may, 0u);
}

TEST(Runner, PctDelta)
{
    EXPECT_DOUBLE_EQ(pctDelta(100, 150), 50.0);
    EXPECT_DOUBLE_EQ(pctDelta(100, 80), -20.0);
    EXPECT_DOUBLE_EQ(pctDelta(0, 5), 0.0);
}

TEST(Report, HeaderAndBarsRender)
{
    std::ostringstream os;
    printHeader(os, "F15", "NACHOS vs OPT-LSQ");
    printBars(os,
              {{"gzip", 1.5, "note"},
               {"bzip2", -8.0, ""},
               {"povray", 70.0, ""}},
              "%");
    std::string s = os.str();
    EXPECT_NE(s.find("F15"), std::string::npos);
    EXPECT_NE(s.find("gzip"), std::string::npos);
    EXPECT_NE(s.find("<"), std::string::npos); // negative bar
    EXPECT_NE(s.find(">"), std::string::npos); // positive bar
    EXPECT_NE(s.find("note"), std::string::npos);
}

TEST(Report, BarsClampExtremeValues)
{
    std::ostringstream os;
    printBars(os, {{"a", 1000.0, ""}, {"b", 1.0, ""}}, "%", 100.0);
    EXPECT_NE(os.str().find("1000.0"), std::string::npos);
}

} // namespace
} // namespace nachos
