/**
 * @file
 * Figure 17: NACHOS energy breakdown (COMPUTE / MDE / L1) and the net
 * energy reduction vs OPT-LSQ.
 *
 * Paper shape: MDE enforcement costs ~6% of total (accelerator + L1)
 * energy on average and is zero for 15 workloads; NACHOS is ~21%
 * (12-40%) more energy efficient than OPT-LSQ overall.
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
    printHeader(std::cout, "Figure 17",
                "NACHOS energy breakdown and savings vs OPT-LSQ");

    RunRequest req;
    req.runSw = false;
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    TextTable table;
    table.header({"app", "%COMPUTE", "%MDE", "%L1", "%memops",
                  "savings vs LSQ"});
    double mde_sum = 0, savings_sum = 0;
    double mde_nonzero_sum = 0;
    int zero_mde = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        const RunOutcome &out = run.outcomes[i];
        const EnergyBreakdown &hw = out.nachos->energy;
        const EnergyBreakdown &lsq = out.lsq->energy;

        const double mde_frac = hw.frac(hw.mde);
        const double savings =
            lsq.total() == 0
                ? 0
                : (lsq.total() - hw.total()) / lsq.total();
        mde_sum += mde_frac;
        if (hw.mde > 0)
            mde_nonzero_sum += mde_frac;
        savings_sum += savings;
        zero_mde += hw.mde == 0 ? 1 : 0;

        const double mem_pct =
            100.0 * static_cast<double>(out.region.numMemOps()) /
            static_cast<double>(out.region.numOps());
        table.row({info.shortName, fmtPct(hw.frac(hw.compute)),
                   fmtPct(mde_frac), fmtPct(hw.frac(hw.l1)),
                   fmtDouble(mem_pct, 0), fmtPct(savings)});
    }
    table.print(std::cout);
    const double n = static_cast<double>(benchmarkSuite().size());
    const int with_mde = static_cast<int>(n) - zero_mde;
    std::cout << "\nMean MDE share: " << fmtPct(mde_sum / n)
              << " over all workloads, "
              << fmtPct(with_mde > 0 ? mde_nonzero_sum / with_mde : 0)
              << " over workloads that need MDEs (paper ~6%);\n"
              << "workloads with zero MDE energy: " << zero_mde
              << " (paper: 15)\n"
              << "Mean energy savings vs OPT-LSQ: "
              << fmtPct(savings_sum / n) << " (paper: 21%, 12-40%)\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
