/**
 * @file
 * OPT-LSQ ordering backend: compiler MDEs are ignored; every
 * disambiguated memory op goes through the banked, bloom-filtered LSQ
 * (paper §VIII-C). See lsq/opt_lsq.hh for the modeled mechanics.
 */

#ifndef NACHOS_CGRA_LSQ_BACKEND_HH
#define NACHOS_CGRA_LSQ_BACKEND_HH

#include <optional>
#include <vector>

#include "cgra/simulator.hh"
#include "lsq/opt_lsq.hh"

namespace nachos {

/** Hardware-LSQ memory ordering (baseline). */
class LsqBackend : public OrderingBackend
{
    struct OpDyn
    {
        bool allocated = false;
        uint64_t allocCycle = 0;
        bool fullyReady = false;
        uint64_t fullCycle = 0;
    };

    /** A load parked on a store's future data/commit. */
    struct ParkedLoad
    {
        OpId load = 0;
        uint64_t searchDone = 0;
        bool wantsForward = false; ///< else waits for commit
    };

  public:
    /**
     * The backend's storage a pool keeps between runs. The per-store
     * lists only grow: a run over fewer memory ops leaves the rest's
     * capacity for a later, larger one.
     */
    struct Buffers
    {
        /** Bound to each run's config, region and counters when the
         * backend is built (OptLsq::bind). */
        std::optional<OptLsq> lsq;
        std::vector<OpDyn> dyn; ///< indexed by memIndex
        /** Parked loads per store memIndex. */
        std::vector<std::vector<ParkedLoad>> parked;
        /** Commit batches, one per drainCommits() re-entry depth. */
        std::vector<CommitBatch> batches;
        /** releaseCommitWaiters()'s detached loads: each call's frame
         * sits above its caller's. */
        std::vector<ParkedLoad> woken;
    };

    /** Binds the pool's OPT-LSQ to `cfg`, the region and the run's
     *  `stats`. */
    LsqBackend(const Region &region, const LsqConfig &cfg,
               Buffers &buffers, SimStats &stats);

    void beginInvocation(uint64_t inv) override;
    void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                      uint64_t cycle) override;
    void memFullyReady(OpId op, uint64_t cycle) override;
    void memCompleted(OpId op, uint64_t cycle) override;

  private:
    Buffers &buf_;
    /** The pool's OPT-LSQ, bound to this run. */
    OptLsq *lsq_;
    /** drainCommits() calls in progress: the next batch's buffer. */
    uint32_t depth_ = 0;

    CommitBatch &batchAt(uint32_t depth);
    void onAllocated(uint32_t m, uint64_t alloc_cycle);
    void searchLoad(uint32_t m);
    void commitStore(uint32_t m, uint64_t data_cycle);
    void resumeAndDrain();
    void drainCommits();
    void releaseForwardWaiters(uint32_t store_m);
    void releaseCommitWaiters(uint32_t store_m);
    void finishLoadDecision(OpId load, const LoadSearchResult &dec);
    void waitOrPerformLoad(OpId load, uint64_t ready);
};

} // namespace nachos

#endif // NACHOS_CGRA_LSQ_BACKEND_HH
