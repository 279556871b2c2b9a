/**
 * @file
 * The pool a simulation runs on: everything a run would otherwise
 * build and free, kept between simulate() calls and reset in O(state
 * touched).
 *
 * A pool holds the run's counter table, the memory hierarchy, the
 * engine's event queue and per-op buffers, the OPT-LSQ and the MDE
 * backend's tables and comparator stations (PooledRun,
 * cgra/pooled_run.hh). Constructing a hierarchy is dominated by
 * filling the LLC way array (~2 MiB for the paper's 4 MiB LLC —
 * around 100 µs), which dwarfs a small region's entire simulation, and
 * the rest is the fixed cost of every short run. Reset-heavy drivers
 * (the suite runner, the differential fuzzer, the daemon's workers,
 * the sweeps) keep one pool alive across runs, and the pool re-shapes
 * its one hierarchy to each run's machine: a warm run allocates only
 * its result buffers, also after a machine change to a cache geometry
 * the pool has already held. A pooled run is
 * observably identical to a run on a fresh pool (tested), and the
 * unpooled simulate() is exactly that.
 */

#ifndef NACHOS_CGRA_HIERARCHY_POOL_HH
#define NACHOS_CGRA_HIERARCHY_POOL_HH

#include <memory>

#include "mem/hierarchy.hh"

namespace nachos {

struct PooledRun;

/** Single-slot run pool: one simulation at a time. */
class HierarchyPool
{
  public:
    HierarchyPool();
    ~HierarchyPool();
    HierarchyPool(const HierarchyPool &) = delete;
    HierarchyPool &operator=(const HierarchyPool &) = delete;

    /**
     * The kept run state, reset for a new run: counters zeroed and
     * unregistered, and the kept hierarchy re-shaped to `cfg` and
     * bound to them (MemoryHierarchy::reshape), whatever config the
     * last run had. The reference stays valid for the pool's life;
     * its contents until the next beginRun().
     */
    PooledRun &beginRun(const HierarchyConfig &cfg);

  private:
    std::unique_ptr<PooledRun> run_;
};

} // namespace nachos

#endif // NACHOS_CGRA_HIERARCHY_POOL_HH
