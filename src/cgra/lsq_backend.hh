/**
 * @file
 * OPT-LSQ ordering backend: compiler MDEs are ignored; every
 * disambiguated memory op goes through the banked, bloom-filtered LSQ
 * (paper §VIII-C). See lsq/opt_lsq.hh for the modeled mechanics.
 */

#ifndef NACHOS_CGRA_LSQ_BACKEND_HH
#define NACHOS_CGRA_LSQ_BACKEND_HH

#include <memory>
#include <vector>

#include "cgra/simulator.hh"
#include "lsq/opt_lsq.hh"

namespace nachos {

/** Hardware-LSQ memory ordering (baseline). */
class LsqBackend : public OrderingBackend
{
  public:
    LsqBackend(const Region &region, const LsqConfig &cfg);

    void beginInvocation(uint64_t inv) override;
    void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                      uint64_t cycle) override;
    void memFullyReady(OpId op, uint64_t cycle) override;
    void memCompleted(OpId op, uint64_t cycle) override;

  private:
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

    LsqConfig cfg_;
    std::unique_ptr<OptLsq> lsq_;
    std::vector<OpDyn> dyn_; ///< indexed by memIndex
    /** Parked loads per store memIndex. */
    std::vector<std::vector<ParkedLoad>> parked_;

    void onAllocated(uint32_t m, uint64_t alloc_cycle);
    void searchLoad(uint32_t m);
    void commitStore(uint32_t m, uint64_t data_cycle);
    void drainCommits(std::vector<std::pair<uint32_t, uint64_t>> batch);
    void releaseForwardWaiters(uint32_t store_m);
    void releaseCommitWaiters(uint32_t store_m);
    void finishLoadDecision(OpId load, const LoadSearchResult &dec);
    void waitOrPerformLoad(OpId load, uint64_t ready);
};

} // namespace nachos

#endif // NACHOS_CGRA_LSQ_BACKEND_HH
