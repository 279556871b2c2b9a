#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "harness/suite_runner.hh"

namespace nachos {
namespace {

void
expectSameSim(const std::optional<SimResult> &a,
              const std::optional<SimResult> &b,
              const std::string &what)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (!a)
        return;
    EXPECT_EQ(a->cycles, b->cycles) << what;
    EXPECT_EQ(a->maxMlp, b->maxMlp) << what;
    EXPECT_EQ(a->loadValueDigest, b->loadValueDigest) << what;
    EXPECT_DOUBLE_EQ(a->energy.total(), b->energy.total()) << what;
    EXPECT_EQ(a->stats.dump(), b->stats.dump()) << what;
    EXPECT_EQ(a->memImage, b->memImage) << what;
}

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b,
                  const std::string &what)
{
    EXPECT_EQ(a.region.numOps(), b.region.numOps()) << what;
    EXPECT_EQ(a.region.numMemOps(), b.region.numMemOps()) << what;
    EXPECT_EQ(a.analysis.final().all.may, b.analysis.final().all.may)
        << what;
    EXPECT_EQ(a.analysis.final().enforced.may,
              b.analysis.final().enforced.may)
        << what;
    EXPECT_EQ(a.mdes.size(), b.mdes.size()) << what;
    expectSameSim(a.lsq, b.lsq, what + "/lsq");
    expectSameSim(a.sw, b.sw, what + "/sw");
    expectSameSim(a.nachos, b.nachos, what + "/nachos");
}

// The core determinism contract: fanning the suite out across workers
// is bit-identical to the plain sequential runWorkload loop.
TEST(SuiteRunner, MatchesSequentialRunWorkloadLoop)
{
    RunRequest req;
    req.invocationsOverride = 4;
    SuiteRun par = runSuite(benchmarkSuite(), req, 4);
    ASSERT_EQ(par.outcomes.size(), benchmarkSuite().size());
    for (size_t i = 0; i < benchmarkSuite().size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        RunOutcome seq = runWorkload(info, req);
        expectSameOutcome(seq, par.outcomes[i], info.shortName);
    }
}

TEST(SuiteRunner, OneThreadEqualsManyThreads)
{
    const std::vector<BenchmarkInfo> subset(
        benchmarkSuite().begin(), benchmarkSuite().begin() + 8);
    RunRequest req;
    req.invocationsOverride = 3;
    SuiteRun one = runSuite(subset, req, 1);
    SuiteRun many = runSuite(subset, req, 8);
    ASSERT_EQ(one.outcomes.size(), subset.size());
    ASSERT_EQ(many.outcomes.size(), subset.size());
    for (size_t i = 0; i < subset.size(); ++i)
        expectSameOutcome(one.outcomes[i], many.outcomes[i],
                          subset[i].shortName);
}

TEST(SuiteRunner, RecordsStageTiming)
{
    const std::vector<BenchmarkInfo> subset(
        benchmarkSuite().begin(), benchmarkSuite().begin() + 3);
    RunRequest req;
    req.invocationsOverride = 2;
    SuiteRun run = runSuite(subset, req, 2);

    const SuiteTiming &t = run.timing;
    EXPECT_EQ(t.workloads, 3u);
    EXPECT_EQ(t.threads, 2u);
    EXPECT_GT(t.wallMicros, 0u);
    EXPECT_GT(t.taskMicros, 0u);
    EXPECT_GT(t.simMicros, 0u);
    // The aggregate equals the sum of its stage parts.
    EXPECT_EQ(t.taskMicros,
              t.synthMicros + t.analysisMicros + t.mdeMicros + t.simMicros);
}

TEST(SuiteRunner, EmptySuiteIsANoop)
{
    SuiteRun run = runSuite({}, RunRequest{}, 2);
    EXPECT_TRUE(run.outcomes.empty());
    EXPECT_EQ(run.timing.workloads, 0u);
}

TEST(SuiteRunner, SuiteThreadsParsesArgv)
{
    {
        const char *argv[] = {"bench", "--threads", "5"};
        EXPECT_EQ(suiteThreads(3, const_cast<char *const *>(argv)),
                  5u);
    }
    {
        const char *argv[] = {"bench", "--threads=12"};
        EXPECT_EQ(suiteThreads(2, const_cast<char *const *>(argv)),
                  12u);
    }
    {
        const char *argv[] = {"bench"};
        EXPECT_GE(suiteThreads(1, const_cast<char *const *>(argv)),
                  1u);
    }
}

// A trailing flag with no value must fail loudly, not silently fall
// back to the default thread count.
TEST(SuiteRunnerDeathTest, ThreadsWithoutValueIsFatal)
{
    const char *argv[] = {"bench", "--threads"};
    EXPECT_EXIT(suiteThreads(2, const_cast<char *const *>(argv)),
                ::testing::ExitedWithCode(1),
                "--threads requires a value");
}

TEST(SuiteRunnerDeathTest, BadThreadsValueIsFatal)
{
    for (const char *bad : {"0", "abc", "4097", "3x"}) {
        const char *argv[] = {"bench", "--threads", bad};
        EXPECT_EXIT(suiteThreads(3, const_cast<char *const *>(argv)),
                    ::testing::ExitedWithCode(1),
                    "invalid --threads value")
            << bad;
    }
}

} // namespace
} // namespace nachos
