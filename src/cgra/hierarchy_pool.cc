#include "cgra/hierarchy_pool.hh"

#include "cgra/pooled_run.hh"

namespace nachos {

HierarchyPool::HierarchyPool() : run_(std::make_unique<PooledRun>()) {}

HierarchyPool::~HierarchyPool() = default;

PooledRun &
HierarchyPool::beginRun(const HierarchyConfig &cfg)
{
    PooledRun &run = *run_;
    run.stats.reset();
    if (run.hierarchy && run.hierarchy->config() == cfg)
        run.hierarchy->rebindStats(run.stats);
    else
        run.hierarchy = std::make_unique<MemoryHierarchy>(cfg, run.stats);
    return run;
}

} // namespace nachos
