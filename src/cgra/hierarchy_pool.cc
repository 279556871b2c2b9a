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
    run.hierarchy.reshape(cfg, run.stats);
    return run;
}

} // namespace nachos
