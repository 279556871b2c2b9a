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
 * capacity. Each key is built once: while a key is being built, a
 * second acquire of it waits for that build instead of starting
 * another, so the miss count is the number of builds.
 *
 * Eviction is LRU with one preference: an entry a `retain` acquire has
 * used (the daemon retains interactive requests' entries) is evicted
 * only after every entry no such acquire has used. A design-space
 * sweep's region serves a burst of bulk jobs and is never asked for
 * again, while interactive requests return to the same few regions;
 * under plain LRU a fast sweep flushed those out. At most half the
 * capacity is retained: past that, the least recently used retained
 * entry loses its mark, so bulk work always keeps room for the
 * regions it is working on.
 */

#ifndef NACHOS_HARNESS_REGION_CACHE_HH
#define NACHOS_HARNESS_REGION_CACHE_HH

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/runner.hh"

namespace nachos {

class RegionCache
{
  public:
    /**
     * `capacity` = max resident entries; 0 disables caching (every
     * acquire synthesizes fresh and stores nothing). `onBuilt`, when
     * set, runs after each build of a storing cache lands (or fails),
     * once building() no longer reports its key, outside the cache
     * lock.
     */
    explicit RegionCache(size_t capacity,
                         std::function<void()> onBuilt = {})
        : capacity_(capacity), onBuilt_(std::move(onBuilt))
    {}

    RegionCache(const RegionCache &) = delete;
    RegionCache &operator=(const RegionCache &) = delete;

    /**
     * Fetch the entry for (info, pathIndex, seed, pipeline flags),
     * synthesizing and inserting on miss. Exactly one hit or one miss
     * is counted per call, so hits + misses equals the number of
     * front-end lookups the daemon reports. Thread-safe; the build on
     * a miss runs outside the lock, and an acquire of a key another
     * thread is building waits for that build and counts a hit (if
     * that build failed, it builds the key itself and counts a miss).
     * A miss adds its stage times to `*times` (a hit leaves them
     * alone). A failed build rethrows to its caller. `retain` marks
     * the entry as one to evict last (see the class comment).
     */
    std::shared_ptr<const FrontEnd>
    acquire(const BenchmarkInfo &info, const RunRequest &request,
            bool *hit = nullptr, StageTimes *times = nullptr,
            bool retain = false);

    /**
     * True while some acquire() is building the entry `request` on
     * `info` would use. The daemon claims no job whose key is being
     * built: it would only wait for the build inside acquire().
     */
    bool building(const BenchmarkInfo &info,
                  const RunRequest &request) const;

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
        bool retained = false; ///< a `retain` acquire used it
    };

    static Key makeKey(const BenchmarkInfo &info,
                       const RunRequest &request);

    /**
     * End the build of `key`: insert `entry` (null when the build
     * failed) and evict down to capacity, unretained entries first,
     * wake the acquires waiting for it, then run onBuilt_.
     */
    void land(const Key &key, std::shared_ptr<const FrontEnd> entry,
              bool retain);

    /** Mark `node` retained, keeping at most capacity_/2 marks. */
    void retain(Node &node);

    mutable std::mutex mutex_;
    std::condition_variable built_; ///< a build landed or failed
    std::list<Node> lru_; ///< front = most recently used
    std::vector<Key> building_; ///< keys some acquire() is building
    size_t capacity_;
    size_t retained_ = 0; ///< nodes with `retained` set
    std::function<void()> onBuilt_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace nachos

#endif // NACHOS_HARNESS_REGION_CACHE_HH
