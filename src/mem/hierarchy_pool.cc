#include "mem/hierarchy_pool.hh"

namespace nachos {

MemoryHierarchy &
HierarchyPool::acquire(const HierarchyConfig &cfg, StatSet &stats)
{
    if (slot_ && slot_->config() == cfg)
        slot_->rebindStats(stats);
    else
        slot_ = std::make_unique<MemoryHierarchy>(cfg, stats);
    return *slot_;
}

} // namespace nachos
