/**
 * @file
 * Report helpers shared by the bench binaries: figure headers, ASCII
 * bar series, and paper-vs-measured annotation lines.
 */

#ifndef NACHOS_HARNESS_REPORT_HH
#define NACHOS_HARNESS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace nachos {

/** Print a boxed figure/table header. */
void printHeader(std::ostream &os, const std::string &experiment_id,
                 const std::string &title);

/** One labeled value of a bar series. */
struct BarEntry
{
    std::string label;
    double value = 0;
    std::string annotation; ///< optional right-hand note
};

/**
 * Print a horizontal ASCII bar chart (the textual equivalent of the
 * paper's per-benchmark bar figures). Negative values draw to the
 * left of the axis.
 */
void printBars(std::ostream &os, const std::vector<BarEntry> &series,
               const std::string &unit, double clamp = 0);

class SimStats;

/** Dump every nonzero counter of a run as an aligned table. */
void printStats(std::ostream &os, const SimStats &stats);

} // namespace nachos

#endif // NACHOS_HARNESS_REPORT_HH
