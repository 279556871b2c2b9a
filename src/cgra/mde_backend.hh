/**
 * @file
 * The compiler-MDE ordering backend, for both MDE schemes: the
 * compiler's MDEs are enforced as dataflow edges on the fabric.
 *
 *  - ORDER edges: 1-bit ready tokens; the younger op's memory action
 *    waits for every older endpoint's completion token.
 *  - FORWARD edges: the store sends its data value to the load as soon
 *    as the data is computed; the load never accesses the cache.
 *  - MAY edges: the one place the schemes differ, decided once while
 *    the per-op table is built. NACHOS-SW (paper §V) treats MAY as
 *    MUST: each MAY edge is one more ORDER token. NACHOS (§VII) makes
 *    each MAY parent a slot of the younger op's comparator station
 *    (nachos/may_station), so provably-disjoint ops proceed in
 *    parallel while true conflicts degrade to ordering, and a
 *    confirmed exact ST->LD conflict forwards the store's value
 *    (§VIII).
 *
 * After table build every path is shared: an op without a station
 * skips the station gate and never forwards at run time, and an op
 * that is nobody's MAY parent has no station to notify. NACHOS-SW is
 * NACHOS with no stations.
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
    static constexpr uint32_t kNoStation = UINT32_MAX;

    /** A younger op's station slot this op fills as a MAY parent. */
    struct MayTarget
    {
        OpId younger = 0;
        uint32_t slot = 0;
    };

    /** A run of entries in one of the flat per-op lists. */
    struct Span
    {
        uint32_t begin = 0;
        uint32_t size = 0;
    };

    /** Static per-op MDE shape; its lists live in Buffers. */
    struct OpInfo
    {
        uint32_t orderTokensExpected = 0; ///< incoming ORDER tokens
        bool hasForward = false;
        /** Index into Buffers::stations, or kNoStation. */
        uint32_t station = kNoStation;
        Span mayParents;      ///< station slot -> parent op
        Span outgoingOrder;   ///< edge indices
        Span outgoingForward; ///< edge indices
        Span mayTargets;
    };

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
     * The backend's storage a pool keeps between runs: the per-op
     * table with its lists flattened (each op's list is a Span of the
     * shared array), rebuilt per run into kept capacity, and the
     * comparator stations.
     */
    struct Buffers
    {
        std::vector<OpInfo> info; ///< by OpId
        std::vector<OpId> mayParents;
        std::vector<uint32_t> outgoingOrder;
        std::vector<uint32_t> outgoingForward;
        std::vector<MayTarget> mayTargets;
        std::vector<OpDyn> dyn; ///< by OpId
        /** One per op with MAY parents, in memOps order; the first
         * numStations_ are this run's, the rest kept for reuse. */
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
    const MdeSet &mdeSet_;
    Buffers &buf_;
    std::vector<OpInfo> &info_;
    std::vector<OpDyn> &dyn_;
    std::vector<MayCheckStation> &stations_;
    uint32_t numStations_ = 0;
    /** NACHOS only (hot path: no lookup per forward); no op without a
     * station reaches it. */
    Counter *runtimeForwards_ = nullptr;

    template <typename T>
    static std::span<const T>
    spanOf(const std::vector<T> &list, Span s)
    {
        return {list.data() + s.begin, s.size};
    }

    void tryIssue(OpId op);

    /**
     * The §VIII forwarding extension: when the runtime checks prove a
     * load conflicts with exactly ONE in-flight store — an exact
     * match — and no compiler MUST-store edge could interleave,
     * forward the store's value instead of waiting for it to complete
     * ("NACHOS improves over NACHOS-SW by detecting many more
     * opportunities for ST-LD forwarding").
     */
    bool tryRuntimeForward(OpId op);
};

} // namespace nachos

#endif // NACHOS_CGRA_MDE_BACKEND_HH
