/**
 * @file
 * Synthesized-region cache: the front half of a run — synthesize,
 * alias pipeline (stages 1-4), MDE insertion, placement on the
 * Figure-3 grid — depends only on (workload, pathIndex, seed,
 * pipeline flags), never on the simulation parameters (the grid is
 * not a machine override). The serving plane replays the same few
 * region descriptors thousands of times, so caching the prepared
 * (region, analysis, mdes, placement) front end turns the per-request
 * front end into a hash lookup and leaves only the operand network,
 * the firing tables and the simulate calls.
 *
 * Entries are immutable once inserted (handed out as
 * shared_ptr<const FrontEnd>) and LRU-evicted beyond the configured
 * capacity.
 */

#ifndef NACHOS_HARNESS_REGION_CACHE_HH
#define NACHOS_HARNESS_REGION_CACHE_HH

#include <list>
#include <memory>
#include <mutex>

#include "harness/runner.hh"

namespace nachos {

class RegionCache
{
  public:
    /** `capacity` = max resident entries; 0 disables caching (every
     *  acquire synthesizes fresh and stores nothing). */
    explicit RegionCache(size_t capacity) : capacity_(capacity) {}

    RegionCache(const RegionCache &) = delete;
    RegionCache &operator=(const RegionCache &) = delete;

    /**
     * Fetch the entry for (info, pathIndex, seed, pipeline flags),
     * synthesizing and inserting on miss. Exactly one hit or one miss
     * is counted per call, so hits + misses equals the number of
     * front-end lookups the daemon reports. Thread-safe; the build on
     * a miss runs outside the lock (two threads may race to build the
     * same key — the first insert wins, both count a miss). A miss
     * adds its stage times to `*times` (a hit leaves them alone).
     */
    std::shared_ptr<const FrontEnd>
    acquire(const BenchmarkInfo &info, const RunRequest &request,
            bool *hit = nullptr, StageTimes *times = nullptr);

    struct Counters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t size = 0; ///< resident entries right now
    };

    Counters counters() const;

    size_t capacity() const { return capacity_; }

    /** Build an entry without any cache involved (the miss path, and
     *  the direct path benches compare against), adding the synth,
     *  analysis and MDE-plus-placement seconds to `*times` when
     *  given. */
    static std::shared_ptr<const FrontEnd>
    build(const BenchmarkInfo &info, const RunRequest &request,
          StageTimes *times = nullptr);

  private:
    /**
     * The cache key is MACHINE-INDEPENDENT by design: it names what
     * the front end consumed (workload identity, path, seed, pipeline
     * stages) and nothing the simulation half reads. Placement reads
     * only the region and the fixed Figure-3 grid, which no override
     * changes. Requests that differ only in RunRequest::machine — a
     * design-space sweep's whole point — therefore share one entry;
     * each sweep point still simulates under its own SimConfig and
     * produces divergent SimResults from the identical cached
     * (region, analysis, mdes, placement).
     * acquire() asserts this invariant at runtime. Adding a machine
     * parameter to this key would be a correctness bug disguised as a
     * cache miss: it would silently re-run a front end whose inputs
     * did not change.
     */
    struct Key
    {
        const BenchmarkInfo *info = nullptr;
        uint32_t pathIndex = 0;
        uint64_t seed = 0;
        bool stage2 = true;
        bool stage3 = true;
        bool stage4 = true;

        bool operator==(const Key &) const = default;
    };

    struct Node
    {
        Key key;
        std::shared_ptr<const FrontEnd> entry;
    };

    static Key makeKey(const BenchmarkInfo &info,
                       const RunRequest &request);

    mutable std::mutex mutex_;
    std::list<Node> lru_; ///< front = most recently used
    size_t capacity_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace nachos

#endif // NACHOS_HARNESS_REGION_CACHE_HH
