#include "harness/report.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "support/sim_stats.hh"
#include "support/table.hh"

namespace nachos {

void
printHeader(std::ostream &os, const std::string &experiment_id,
            const std::string &title)
{
    const std::string line(72, '=');
    os << "\n" << line << "\n"
       << experiment_id << ": " << title << "\n"
       << line << "\n";
}

void
printBars(std::ostream &os, const std::vector<BarEntry> &series,
          const std::string &unit, double clamp)
{
    size_t label_w = 0;
    double max_abs = 1e-9;
    for (const auto &e : series) {
        label_w = std::max(label_w, e.label.size());
        max_abs = std::max(max_abs, std::fabs(e.value));
    }
    if (clamp > 0)
        max_abs = std::min(max_abs, clamp);
    const int width = 30;

    for (const auto &e : series) {
        double v = e.value;
        if (clamp > 0)
            v = std::clamp(v, -clamp, clamp);
        int n = static_cast<int>(
            std::lround(std::fabs(v) / max_abs * width));
        os << "  " << std::left << std::setw(static_cast<int>(label_w))
           << e.label << "  ";
        if (e.value < 0) {
            os << std::string(static_cast<size_t>(width - n), ' ')
               << std::string(static_cast<size_t>(n), '<') << "|"
               << std::string(width, ' ');
        } else {
            os << std::string(width, ' ') << "|"
               << std::string(static_cast<size_t>(n), '>')
               << std::string(static_cast<size_t>(width - n), ' ');
        }
        os << " " << std::right << std::setw(8)
           << fmtDouble(e.value, 1) << " " << unit;
        if (!e.annotation.empty())
            os << "   " << e.annotation;
        os << "\n";
    }
}

void
printStats(std::ostream &os, const SimStats &stats)
{
    TextTable table;
    table.header({"counter", "value"});
    for (const auto &[name, value] : stats.dump()) {
        if (value != 0)
            table.row({name, std::to_string(value)});
    }
    table.print(os);
}

} // namespace nachos
