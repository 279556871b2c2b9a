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
 * Resume: points whose hash already has a store record are skipped
 * before any work is issued. Running the same spec against the same
 * store twice is a no-op the second time.
 */

#ifndef NACHOS_SWEEP_ORCHESTRATOR_HH
#define NACHOS_SWEEP_ORCHESTRATOR_HH

#include <functional>

#include "sweep/store.hh"

namespace nachos {

class ServiceClient;

/** Orchestration knobs. */
struct SweepRunOptions
{
    /** Stop after this many newly-run points (0 = no limit). */
    size_t limit = 0;
    /** Daemon mode: max pipelined requests in flight. */
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
    size_t ran = 0;      ///< newly computed + appended
    size_t failed = 0;   ///< error responses (daemon mode)
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
 * Build the record for one point from its wire-level outcome summary
 * (shared by both modes + the verify subcommand; `seconds` is filled
 * by the caller).
 */
SweepRecord makeSweepRecord(const SweepPoint &point,
                            const OutcomeSummary &summary);

} // namespace nachos

#endif // NACHOS_SWEEP_ORCHESTRATOR_HH
