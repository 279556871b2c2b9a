/**
 * @file
 * A reusable MemoryHierarchy. Constructing a hierarchy is dominated
 * by filling the LLC way array (~2 MiB for the paper's 4 MiB LLC —
 * around 100 µs), which dwarfs a small region's entire simulation.
 * Reset-heavy drivers (the suite runner, the differential fuzzer, the
 * daemon's workers) instead acquire() the pooled instance: when the
 * previous hierarchy has the same configuration it is rebound to the
 * new run's StatSet and reset in O(state touched), observably
 * identical to a fresh construction (tested).
 */

#ifndef NACHOS_MEM_HIERARCHY_POOL_HH
#define NACHOS_MEM_HIERARCHY_POOL_HH

#include <memory>

#include "mem/hierarchy.hh"

namespace nachos {

/** Single-slot hierarchy pool: one simulation at a time. */
class HierarchyPool
{
  public:
    /**
     * A hierarchy configured as `cfg` with its counters registered in
     * `stats`. Reuses the pooled instance when the configuration
     * matches; reconstructs it otherwise. The reference stays valid
     * until the next acquire().
     */
    MemoryHierarchy &acquire(const HierarchyConfig &cfg, StatSet &stats);

  private:
    std::unique_ptr<MemoryHierarchy> slot_;
};

} // namespace nachos

#endif // NACHOS_MEM_HIERARCHY_POOL_HH
