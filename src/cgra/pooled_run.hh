/**
 * @file
 * The run state a HierarchyPool keeps between simulations
 * (cgra/hierarchy_pool). Only the simulator and its backends see it.
 */

#ifndef NACHOS_CGRA_POOLED_RUN_HH
#define NACHOS_CGRA_POOLED_RUN_HH

#include "cgra/lsq_backend.hh"
#include "cgra/mde_backend.hh"
#include "cgra/simulator.hh"
#include "mem/hierarchy.hh"
#include "support/sim_stats.hh"

namespace nachos {

struct PooledRun
{
    /** The run's counters; every component's handles point here. */
    SimStats stats;
    /** Re-shaped to each run's config (HierarchyPool::beginRun). */
    MemoryHierarchy hierarchy{HierarchyConfig{}, stats};
    SimCore::Buffers core;
    LsqBackend::Buffers lsq;
    MdeBackend::Buffers mde;
};

} // namespace nachos

#endif // NACHOS_CGRA_POOLED_RUN_HH
