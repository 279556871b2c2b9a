/**
 * @file
 * SimCore's firing plan: the static per-region simulation tables.
 * Everything here is a pure function of (region, grid, network
 * config): placement, operand-arena prefix sums, initial
 * pending-operand counts, invocation-start seed events in wave
 * order, and the CSR operand fan-out with cached route hop counts and
 * latencies that eager operand delivery walks (see DESIGN.md §15).
 * One SimPlan serves every backend run of its region.
 */

#ifndef NACHOS_CGRA_SIM_TABLES_HH
#define NACHOS_CGRA_SIM_TABLES_HH

#include <cstdint>
#include <vector>

#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "ir/dfg.hh"

namespace nachos {

/** Static dataflow-firing tables of one region (see file comment). */
struct SimTables
{
    /** One precomputed operand-delivery edge (CSR fan-out table). */
    struct FanoutEdge
    {
        uint32_t user = 0;
        uint16_t slot = 0;
        uint16_t hops = 0;
        uint32_t latency = 0;
    };

    /**
     * Invocation-start event: `addrSeed` fires noteAddrReady (mem op
     * with no address operands), otherwise opInputsComplete (source op
     * with no operands at all). The same op can appear twice. Listed
     * in the order the first wave dispatches them (every addr seed,
     * then every inputs seed, each by op id), so seeding an invocation
     * appends to the event queue's list in order.
     */
    struct SeedEvent
    {
        uint32_t op = 0;
        bool addrSeed = false;
    };

    /** firstAddrSlot of an op without address operands: no operand
     * slot reaches it. */
    static constexpr uint16_t kNoAddrSlot = 0xffff;

    /**
     * Dense per-op record of what operand delivery and pure-op firing
     * read for every delivered operand and fired op, so the hot path
     * loads neither the wide Operation nor calls fuLatency.
     */
    struct OpInfo
    {
        OpKind kind = OpKind::Const;
        uint8_t fuLatency = 0;
        /** Mem ops: the first address operand slot; else kNoAddrSlot. */
        uint16_t firstAddrSlot = kNoAddrSlot;
    };

    std::vector<OpInfo> opInfo;
    /** Operand-value arena offsets: op's slots at inputOffset[op]. */
    std::vector<uint32_t> inputOffset; ///< numOps + 1 prefix sums
    std::vector<uint32_t> initialPendingAll;
    std::vector<uint32_t> initialPendingAddr;
    std::vector<SeedEvent> seedEvents;
    /** CSR fan-out: producer op's edges with cached route data. */
    std::vector<FanoutEdge> fanoutEdges;
    std::vector<uint32_t> fanoutOffset; ///< numOps + 1

    void build(const Region &region, const Placement &placement,
               const OperandNetwork &net);

    uint32_t
    numInputs(OpId op) const
    {
        return inputOffset[op + 1] - inputOffset[op];
    }

    /** Total operand slots (size of the operand-value arena). */
    uint32_t arenaSize() const { return inputOffset.back(); }
};

/**
 * The firing plan of one (region, grid, network config): placement,
 * operand network and SimTables, built once and borrowed read-only by
 * every SimCore that simulates the region on that grid and network —
 * whatever its backend, LSQ or memory configuration. The region must
 * outlive the plan. Not copyable: the network refers to the plan's
 * own placement.
 */
class SimPlan
{
  public:
    SimPlan(const Region &region, const GridConfig &grid,
            const NetworkConfig &net);
    SimPlan(const SimPlan &) = delete;
    SimPlan &operator=(const SimPlan &) = delete;

    const Region &region() const { return region_; }
    const Placement &placement() const { return placement_; }
    const OperandNetwork &network() const { return network_; }
    const SimTables &tables() const { return tables_; }

  private:
    const Region &region_;
    Placement placement_;
    OperandNetwork network_;
    SimTables tables_;
};

} // namespace nachos

#endif // NACHOS_CGRA_SIM_TABLES_HH
