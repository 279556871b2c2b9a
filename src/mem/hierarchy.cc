#include "mem/hierarchy.hh"

namespace nachos {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg,
                                 SimStats &stats)
    : cfg_(cfg), dram_(cfg.dramLatency, cfg.dramRequestsPerCycle),
      llc_(cfg_.llc, dram_, stats), l1_(cfg_.l1, llc_, stats),
      scratchpad_(cfg.scratchpadLatency, 8, stats)
{}

void
MemoryHierarchy::reshape(const HierarchyConfig &cfg, SimStats &stats)
{
    cfg_ = cfg;
    dram_ = MainMemory(cfg.dramLatency, cfg.dramRequestsPerCycle);
    llc_.reshape(cfg_.llc, stats);
    l1_.reshape(cfg_.l1, stats);
    scratchpad_ = Scratchpad(cfg.scratchpadLatency, 8, stats);
    data_.reset();
}

} // namespace nachos
