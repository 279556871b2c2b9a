#include "mem/hierarchy.hh"

namespace nachos {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg,
                                 SimStats &stats)
    : cfg_(cfg), dram_(cfg.dramLatency, cfg.dramRequestsPerCycle),
      llc_(cfg_.llc, dram_, stats), l1_(cfg_.l1, llc_, stats),
      scratchpad_(cfg.scratchpadLatency, 8, stats)
{}

void
MemoryHierarchy::reset()
{
    l1_.reset();
    llc_.reset();
    dram_.reset();
    scratchpad_.reset();
    data_.reset();
}

void
MemoryHierarchy::rebindStats(SimStats &stats)
{
    // Same registration order as construction: llc, l1, scratchpad.
    llc_.rebindStats(stats);
    l1_.rebindStats(stats);
    scratchpad_.rebindStats(stats);
    reset();
}

} // namespace nachos
