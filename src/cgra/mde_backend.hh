/**
 * @file
 * The compiler-MDE ordering backend, for both MDE schemes: the
 * compiler's MDEs are enforced as dataflow edges on the fabric.
 *
 *  - ORDER edges: 1-bit ready tokens; the younger op's memory action
 *    waits for every older endpoint's completion token.
 *  - FORWARD edges: the store sends its data value to the load as soon
 *    as the data is computed; the load never accesses the cache.
 *  - MAY edges: the one place the schemes differ. NACHOS-SW (paper
 *    §V) treats MAY as MUST: an op waits for one token per ORDER or
 *    MAY in-edge and sends one over each ORDER or MAY out-edge.
 *    NACHOS (§VII) gives each op with MAY parents a comparator station
 *    (nachos/may_station) whose slots are its MAY in-edges, so
 *    provably-disjoint ops proceed in parallel while true conflicts
 *    degrade to ordering, and a confirmed exact ST->LD conflict
 *    forwards the store's value (§VIII).
 *
 * The backend keeps no MDE table of its own: it reads the MdeSet's
 * per-op spans. Every other path is shared: an op without a station
 * skips the station gate and never forwards at run time, and an op
 * with no MAY out-edge has no station to notify. NACHOS-SW is NACHOS
 * with no stations.
 * So without a MAY edge the two schemes are one machine, and
 * nachosResultFromSw() below derives such a NACHOS run from NACHOS-SW's.
 */

#ifndef NACHOS_CGRA_MDE_BACKEND_HH
#define NACHOS_CGRA_MDE_BACKEND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cgra/simulator.hh"
#include "nachos/may_station.hh"

namespace nachos {

/** Compiler-enforced memory ordering, with or without the assist. */
class MdeBackend : public OrderingBackend
{
    struct OpDyn
    {
        uint32_t tokensPending = 0;
        uint64_t gateCycle = 0; ///< latest token arrival
        bool fullyReady = false;
        uint64_t fullCycle = 0;
        bool fwdArrived = false;
        uint64_t fwdCycle = 0;
        int64_t fwdValue = 0;
        bool issued = false;
    };

  public:
    /**
     * The backend's storage a pool keeps between runs: per-op dynamic
     * state and the comparator stations, by memIndex. A run binds the
     * stations of its ops with MAY parents; the rest are kept for
     * reuse and never touched.
     */
    struct Buffers
    {
        std::vector<OpDyn> dyn; ///< by OpId
        std::vector<MayCheckStation> stations;
    };

    /**
     * @param scheme BackendKind::NachosSw or BackendKind::Nachos
     * @param compares_per_cycle station arbiter width (NACHOS only)
     * @param stats the run's counters, which the stations and the
     *        runtime-forward count register with here
     */
    MdeBackend(const Region &region, const MdeSet &mdes,
               BackendKind scheme, uint32_t compares_per_cycle,
               Buffers &buffers, SimStats &stats);

    void beginInvocation(uint64_t inv) override;
    void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                      uint64_t cycle) override;
    void memFullyReady(OpId op, uint64_t cycle) override;
    void memCompleted(OpId op, uint64_t cycle) override;
    void onOrderToken(OpId op, uint64_t cycle) override;
    void onForwardValue(OpId op, uint64_t cycle, int64_t value) override;

  private:
    const MdeSet &mdes_;
    /** NACHOS-SW: MAY edges carry ORDER tokens and no op has a
     * station. */
    const bool mayIsOrder_;
    std::vector<OpDyn> &dyn_;
    std::vector<MayCheckStation> &stations_;
    /** NACHOS only (hot path: no lookup per forward); no op without a
     * station reaches it. */
    Counter *runtimeForwards_ = nullptr;

    /** Incoming ORDER tokens `op` waits for each invocation. */
    uint32_t tokensExpected(OpId op) const;

    bool hasForward(OpId op) const
    {
        return !mdes_.in(op, MdeKind::Forward).empty();
    }

    /** `op`'s comparator station, or nullptr if it has none. */
    MayCheckStation *station(OpId op);

    /** The MAY out-edges whose younger op's station `op` feeds (none
     * under NACHOS-SW), younger op ascending. */
    std::span<const uint32_t> stationTargets(OpId op) const;

    void tryIssue(OpId op);

    /**
     * The §VIII forwarding extension: when the runtime checks prove a
     * load conflicts with exactly ONE in-flight store — an exact
     * match — and no compiler MUST-store edge could interleave,
     * forward the store's value instead of waiting for it to complete
     * ("NACHOS improves over NACHOS-SW by detecting many more
     * opportunities for ST-LD forwarding"). `op` is fully ready and
     * not yet issued; `st` is its station.
     */
    bool tryRuntimeForward(OpId op, const MayCheckStation &st);
};

/**
 * True when NACHOS and NACHOS-SW simulate one machine on `mdes`: the
 * set has no MAY edge, so NACHOS binds no station, never forwards at
 * run time, and each op waits for the same ORDER tokens under both.
 */
bool nachosRunsAsNachosSw(const MdeSet &mdes);

/**
 * The NACHOS result on an MDE set nachosRunsAsNachosSw() holds for,
 * from the NACHOS-SW result on the same plan, set and machine. The
 * modeled run differs in one counter row: every NACHOS run registers
 * nachos.runtimeForwards, here 0, and the row charges no energy. The
 * engine did no work for the derived result, so planEventsDispatched
 * is 0.
 */
SimResult nachosResultFromSw(SimResult sw);

} // namespace nachos

#endif // NACHOS_CGRA_MDE_BACKEND_HH
