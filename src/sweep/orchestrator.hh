/**
 * @file
 * Sweep orchestration: execute the not-yet-completed points of an
 * expanded sweep and append one store record per point.
 *
 * Two execution modes share identical result semantics:
 *
 *  - In-process: the front end runs through a RegionCache (one entry
 *    serves every machine point of a workload/path/seed — the cache
 *    key is machine-independent by design) and each point simulates
 *    under its own machine through harness simulateRequest, the same
 *    call nachosd makes.
 *
 *  - Daemon: each point becomes a bulk-class run request pipelined
 *    over one nachosd connection with a bounded in-flight window.
 *    Points differing only in machine config share the daemon's
 *    region cache. Responses are matched by id, so out-of-order
 *    completion is fine; records are appended in point order (a kill
 *    mid-run therefore loses only trailing work, which resume
 *    recomputes).
 *
 * Fills: a point whose backend cannot tell it apart from another
 * (same SweepPoint::projectedId — e.g. a NACHOS point that differs
 * only in lsqBanks) is not simulated again. If an earlier point of the
 * same call, or a record already in the store, has that projected id,
 * the point is filled from that source's result: no request, no
 * simulation, and a record byte-identical (but for `seconds`) to the
 * one simulating it would give. In daemon mode a fill keeps its place
 * in the point-order queue and takes no slot of the request window;
 * when it reaches the head its source has been collected, and if the
 * source answered with an error the fill fails too (a resume re-runs
 * both).
 *
 * Resume: points whose hash already has a store record are skipped
 * before any work is issued. Running the same spec against the same
 * store twice is a no-op the second time.
 */

#ifndef NACHOS_SWEEP_ORCHESTRATOR_HH
#define NACHOS_SWEEP_ORCHESTRATOR_HH

#include <functional>

#include "sweep/store.hh"

namespace nachos {

class HierarchyPool;
class RegionCache;
class ServiceClient;

/** Orchestration knobs. */
struct SweepRunOptions
{
    /** Stop after this many newly-run points (0 = no limit). */
    size_t limit = 0;
    /** Daemon mode: max pipelined requests in flight (fills send no
     *  request, so they do not count). */
    uint32_t window = 16;
    /** In-process mode: region cache capacity. */
    size_t cacheEntries = 16;
    /** Per-point progress hook (id, newly-run index, total to run). */
    std::function<void(const std::string &, size_t, size_t)> onPoint;
};

/** What one orchestrator call did. */
struct SweepRunStats
{
    size_t expanded = 0; ///< points in the expansion
    size_t skipped = 0;  ///< already present in the store
    size_t ran = 0;      ///< newly appended, fills included
    size_t reused = 0;   ///< of `ran`, filled from an earlier result
    size_t failed = 0;   ///< error responses and their fills (daemon)
};

/**
 * Execute `points` in-process against `store` (must be open for
 * append). False + *error on store I/O failure.
 */
bool runSweepInProcess(const std::vector<SweepPoint> &points,
                       SweepStore &store, const SweepRunOptions &options,
                       SweepRunStats &stats, std::string *error);

/**
 * Execute `points` through a connected nachosd client. Each error
 * response counts into stats.failed (the sweep keeps going); false is
 * reserved for transport/store failures.
 */
bool runSweepOverDaemon(const std::vector<SweepPoint> &points,
                        SweepStore &store, ServiceClient &client,
                        const SweepRunOptions &options,
                        SweepRunStats &stats, std::string *error);

/**
 * Build the record for one point from its backend's result and the
 * effective invocation count (shared by both modes and by fills;
 * `seconds` is filled by the caller).
 */
SweepRecord makeSweepRecord(const SweepPoint &point, uint64_t invocations,
                            const SimSummary &summary);

/**
 * Re-simulate `record` in-process and compare the whole SimSummary
 * with the stored one — the check behind `nachos_sweep verify`. Empty
 * if they are equal, else what differs (or why the record cannot be
 * re-run).
 */
std::string verifySweepRecord(const SweepRecord &record, RegionCache &cache,
                              HierarchyPool &pool);

} // namespace nachos

#endif // NACHOS_SWEEP_ORCHESTRATOR_HH
