#include "harness/suite_runner.hh"

#include <chrono>
#include <ostream>
#include <string>

#include "support/logging.hh"
#include "support/parse.hh"
#include "support/table.hh"

namespace nachos {

namespace {

struct TimedOutcome
{
    RunOutcome outcome;
    StageTimes times;
};

uint64_t
toMicros(double seconds)
{
    return static_cast<uint64_t>(seconds * 1e6);
}

} // namespace

SuiteRun
runSuite(const std::vector<BenchmarkInfo> &suite,
         const RunRequest &request, unsigned threads)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point wall0 = clock::now();

    ThreadPool pool(threads);
    std::vector<TimedOutcome> tasks = parallelMap(
        pool, suite, [&request](const BenchmarkInfo &info, size_t) {
            TimedOutcome task;
            task.outcome = runWorkload(info, request, task.times);
            return task;
        });

    SuiteRun run;
    run.outcomes.reserve(tasks.size());
    run.stageTimes.reserve(tasks.size());
    StageTimes total;
    for (TimedOutcome &task : tasks) {
        run.outcomes.push_back(std::move(task.outcome));
        run.stageTimes.push_back(task.times);
        total.synthSeconds += task.times.synthSeconds;
        total.analysisSeconds += task.times.analysisSeconds;
        total.mdeSeconds += task.times.mdeSeconds;
        total.simSeconds += task.times.simSeconds;
    }
    const double wall =
        std::chrono::duration<double>(clock::now() - wall0).count();
    SuiteTiming &t = run.timing;
    t.wallMicros = toMicros(wall);
    t.synthMicros = toMicros(total.synthSeconds);
    t.analysisMicros = toMicros(total.analysisSeconds);
    t.mdeMicros = toMicros(total.mdeSeconds);
    t.simMicros = toMicros(total.simSeconds);
    t.taskMicros =
        t.synthMicros + t.analysisMicros + t.mdeMicros + t.simMicros;
    t.workloads = run.outcomes.size();
    t.threads = pool.size();
    return run;
}

unsigned
suiteThreads(int argc, char *const argv[])
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--threads") {
            if (i + 1 >= argc)
                NACHOS_FATAL("--threads requires a value");
            value = argv[i + 1];
        } else if (arg.rfind("--threads=", 0) == 0)
            value = arg.substr(10);
        else
            continue;
        const std::optional<uint64_t> n =
            parseDecimal(value, 1, ThreadPool::kMaxThreads);
        if (!n)
            NACHOS_FATAL("invalid --threads value '", value, "'");
        return static_cast<unsigned>(*n);
    }
    return ThreadPool::defaultThreadCount();
}

void
printSuiteTiming(std::ostream &os, const SuiteRun &run)
{
    const SuiteTiming &t = run.timing;
    auto ms = [](uint64_t micros) {
        return fmtDouble(static_cast<double>(micros) / 1000.0, 1);
    };
    os << "suite: " << t.workloads << " workloads on " << t.threads
       << " thread(s): " << ms(t.wallMicros) << " ms wall, "
       << ms(t.taskMicros) << " ms of work (synth "
       << ms(t.synthMicros) << ", analysis " << ms(t.analysisMicros)
       << ", mde " << ms(t.mdeMicros) << ", sim " << ms(t.simMicros)
       << ")\n";
}

} // namespace nachos
