/**
 * @file
 * SimCore's firing plan: the static per-region simulation tables.
 * Everything here is a pure function of (region, placement, network
 * config): operand-arena prefix sums, initial pending-operand counts,
 * invocation-start seed events in wave order, the CSR operand fan-out
 * with cached route hop counts and latencies that eager operand
 * delivery walks, and the static program: the ops that depend on no
 * memory op, with their fixed fire offsets and the edges by which
 * they feed the rest (see DESIGN.md §15). The placement is built
 * once per region (the harness keeps it in the cached front end) and
 * borrowed; one SimPlan serves every backend run of its region on one
 * network.
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
     * Invocation-start event of a mem op: `addrSeed` fires
     * noteAddrReady (no address operands), otherwise opInputsComplete
     * (no operands at all). The same op can appear twice. Listed in
     * the order the first wave dispatches them (every addr seed, then
     * every inputs seed, each by op id), so seeding an invocation
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

    /**
     * One op of the static program. An op is static when it is not a
     * memory op and every operand is static (so Const and LiveIn are):
     * it fires `fireOffset` cycles after the invocation starts, every
     * invocation. Operands index earlier entries of the program.
     */
    struct StaticOp
    {
        int64_t imm = 0;
        uint32_t op = 0;
        uint32_t fireOffset = 0;
        uint32_t in[3] = {0, 0, 0};
        OpKind kind = OpKind::Const;
        uint8_t numInputs = 0;
        uint8_t fuLatency = 0;
    };

    /** Edge from a static op to a dynamic one, delivered at seed time
     * to arrive `arrivalOffset` cycles after the invocation starts. */
    struct FrontierEdge
    {
        uint32_t producer = 0; ///< index into staticProgram
        uint32_t user = 0;
        uint32_t slot = 0;
        uint32_t arrivalOffset = 0;
    };

    /** What the static program adds to the run's counters each
     * invocation. */
    struct StaticTotals
    {
        uint64_t intOps = 0;
        uint64_t fpOps = 0;
        uint64_t netTransfers = 0;
        uint64_t netHops = 0;
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
    /** Static ops in op-id (topological) order. */
    std::vector<StaticOp> staticProgram;
    std::vector<FrontierEdge> frontier;
    StaticTotals staticTotals;
    /** Argmax of (fireOffset + fuLatency, op) over the static ops;
     * meaningful only when staticProgram is non-empty. */
    uint32_t staticCriticalEnd = 0;
    OpId staticCriticalOp = 0;
    /** Every op not in staticProgram, by id. */
    std::vector<OpId> dynamicOps;

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
 * The firing plan of one (region, placement, network config): the
 * operand network and SimTables over a borrowed placement, built once
 * and borrowed read-only by every SimCore that simulates the region
 * on that network — whatever its backend, LSQ or memory
 * configuration. The region and the placement must outlive the plan.
 */
class SimPlan
{
  public:
    /** `placement` must place `region`'s ops (asserted). */
    SimPlan(const Region &region, const Placement &placement,
            const NetworkConfig &net);

    const Region &region() const { return region_; }
    const Placement &placement() const { return placement_; }
    const OperandNetwork &network() const { return network_; }
    const SimTables &tables() const { return tables_; }

  private:
    const Region &region_;
    const Placement &placement_;
    OperandNetwork network_;
    SimTables tables_;
};

} // namespace nachos

#endif // NACHOS_CGRA_SIM_TABLES_HH
