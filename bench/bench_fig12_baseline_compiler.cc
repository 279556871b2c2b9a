/**
 * @file
 * Figure 12: NACHOS-SW driven by the *baseline* compiler (Stage 1 +
 * Stage 3 only, no inter-procedural or polyhedral refinement) vs
 * OPT-LSQ.
 *
 * Paper shape: 10 workloads slow down more than 10% (max 4x); without
 * Stage 4 the stencil workloads (equake, namd, lbm, bodytrack, dwt53)
 * degrade badly; without Stage 2, h264ref / sar-pfa-interp1 /
 * histogram suffer.
 */

#include <iostream>

#include "harness/report.hh"
#include "harness/suite_runner.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace nachos;

int
main(int argc, char **argv)
{
    setQuiet(true);
    printHeader(std::cout, "Figure 12",
                "Baseline compiler (stages 1+3) NACHOS-SW vs OPT-LSQ "
                "(positive = %slowdown)");

    RunRequest req;
    req.runNachos = false;
    req.pipeline = PipelineConfig::baselineCompiler();
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    std::vector<BarEntry> series;
    int big_slowdowns = 0;
    double max_slowdown = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        const RunOutcome &out = run.outcomes[i];
        const double delta =
            pctDelta(static_cast<double>(out.lsq->cycles),
                     static_cast<double>(out.sw->cycles));
        series.push_back({info.shortName, delta, ""});
        if (delta > 10)
            ++big_slowdowns;
        max_slowdown = std::max(max_slowdown, delta);
    }
    printBars(std::cout, series, "%", 400);
    std::cout << "\nSummary: " << big_slowdowns
              << " workloads slow down >10%; max slowdown "
              << fmtDouble(max_slowdown, 0) << "%\n"
              << "Paper:   10 workloads >10%; max ~400% (lbm)\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
