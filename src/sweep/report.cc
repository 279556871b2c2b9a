#include "sweep/report.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "support/table.hh"

namespace nachos {

double
areaProxy(const MachineOverrides &machine, const std::string &backend)
{
    SimConfig sim;
    machine.applyTo(sim);
    const EnergyParams &e = sim.energy;
    const double sramLine = (e.l1Read + e.l1Write) / 2.0;
    double units =
        sim.mem.l1.sizeBytes / double(sim.mem.l1.lineBytes) * sramLine /
            1000.0 +
        sim.mem.llc.sizeBytes / double(sim.mem.llc.lineBytes) *
            sramLine / 4000.0;
    const BackendField *b = findBackend(backend);
    if (b && b->kind == BackendKind::OptLsq)
        units += sim.lsq.banks * double(sim.lsq.entriesPerBank) *
                     (e.lsqCamLoad + e.lsqCamStore) / 2.0 / 1000.0 +
                 sim.lsq.bloom.counters * e.lsqBloom / 8000.0;
    if (b && b->kind == BackendKind::Nachos)
        units += sim.nachosComparesPerCycle *
                 (e.mdeMay + e.mdeMust + e.mdeForward) / 1000.0;
    return units;
}

std::vector<size_t>
paretoFrontier(const std::vector<SweepRecord> &records)
{
    auto dominates = [](const SweepRecord &a, const SweepRecord &b) {
        const SimSummary &x = a.summary;
        const SimSummary &y = b.summary;
        const bool noWorse = x.cycles <= y.cycles &&
                             x.energyTotal <= y.energyTotal &&
                             a.areaProxy <= b.areaProxy;
        const bool strictlyBetter = x.cycles < y.cycles ||
                                    x.energyTotal < y.energyTotal ||
                                    a.areaProxy < b.areaProxy;
        return noWorse && strictlyBetter;
    };
    std::vector<size_t> frontier;
    for (size_t i = 0; i < records.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < records.size() && !dominated; ++j)
            dominated = j != i && dominates(records[j], records[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

std::string
renderSweepReport(std::vector<SweepRecord> records)
{
    // Canonical record order: the point id encodes every coordinate,
    // so sorting by id makes the report independent of store order
    // (and therefore of kill/resume history).
    std::sort(records.begin(), records.end(),
              [](const SweepRecord &a, const SweepRecord &b) {
                  return a.id < b.id;
              });

    std::string out = "sweep report: " +
                      std::to_string(records.size()) + " points\n";

    // ---- Pareto frontiers, one per (workload, path, seed) ----------
    std::map<std::string, std::vector<SweepRecord>> groups;
    for (const SweepRecord &r : records) {
        const std::string key = r.workload + " path=" +
                                std::to_string(r.pathIndex) + " seed=" +
                                std::to_string(r.seed);
        groups[key].push_back(r);
    }
    for (const auto &group : groups) {
        out += "\n== pareto (cycles, energy, area): " + group.first +
               " ==\n";
        std::vector<size_t> frontier = paretoFrontier(group.second);
        std::sort(frontier.begin(), frontier.end(),
                  [&](size_t a, size_t b) {
                      const SweepRecord &ra = group.second[a];
                      const SweepRecord &rb = group.second[b];
                      if (ra.summary.cycles != rb.summary.cycles)
                          return ra.summary.cycles < rb.summary.cycles;
                      return ra.id < rb.id;
                  });
        for (const size_t i : frontier) {
            const SweepRecord &r = group.second[i];
            const std::string machine = machineCoordinates(r.machine);
            out += "  cycles=" + std::to_string(r.summary.cycles) +
                   " energy=" + fmtDouble(r.summary.energyTotal, 1) +
                   " area=" + fmtDouble(r.areaProxy, 1) +
                   " backend=" + r.backend + " " +
                   (machine.empty() ? "default-machine" : machine) + "\n";
        }
        out += "  (" + std::to_string(frontier.size()) + " of " +
               std::to_string(group.second.size()) +
               " points on the frontier)\n";
    }

    // ---- Per-axis sensitivity --------------------------------------
    out += "\n== sensitivity (mean over all points sharing the axis "
           "value) ==\n";
    for (const MachineField &field : machineFields()) {
        // value -> (count, sum cycles, sum energy); value 0 = records
        // that left the axis at its default.
        std::map<uint64_t, std::tuple<uint64_t, double, double>> bins;
        bool swept = false;
        for (const SweepRecord &r : records) {
            const uint64_t value = field.slot.get(r.machine);
            if (value)
                swept = true;
            auto &bin = bins[value];
            std::get<0>(bin) += 1;
            std::get<1>(bin) += static_cast<double>(r.summary.cycles);
            std::get<2>(bin) += r.summary.energyTotal;
        }
        if (!swept)
            continue; // axis never varied in this store
        out += std::string("axis ") + field.name + ":\n";
        for (const auto &entry : bins) {
            const uint64_t value = entry.first;
            const uint64_t count = std::get<0>(entry.second);
            const double meanCycles =
                std::get<1>(entry.second) / count;
            const double meanEnergy =
                std::get<2>(entry.second) / count;
            out += "  " +
                   (value ? std::to_string(value)
                          : "default(" +
                                std::to_string(field.defaultValue()) +
                                ")") +
                   ": points=" + std::to_string(count) +
                   " meanCycles=" + fmtDouble(meanCycles, 1) +
                   " meanEnergy=" + fmtDouble(meanEnergy, 1) + "\n";
        }
    }
    return out;
}

} // namespace nachos
