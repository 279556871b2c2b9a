#include "support/sim_stats.hh"

namespace nachos {

uint64_t
SimStats::get(std::string_view name) const
{
    for (const SimCounterRow &row : kSimCounterRows) {
        if (row.name == name)
            return get(row.id);
    }
    return 0;
}

std::vector<std::pair<std::string, uint64_t>>
SimStats::dump() const
{
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const SimCounterRow &row : kSimCounterRows) {
        if (registered(row.id))
            out.emplace_back(std::string(row.name), get(row.id));
    }
    return out;
}

} // namespace nachos
