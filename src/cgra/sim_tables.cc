#include "cgra/sim_tables.hh"

#include "cgra/function_unit.hh"
#include "support/logging.hh"

namespace nachos {

void
SimTables::build(const Region &region, const Placement &placement,
                 const OperandNetwork &net)
{
    const size_t n = region.numOps();

    // Operand-value arena: one flat buffer addressed by prefix sums.
    inputOffset.assign(n + 1, 0);
    initialPendingAll.assign(n, 0);
    initialPendingAddr.assign(n, 0);
    opInfo.assign(n, {});
    for (const auto &o : region.ops()) {
        NACHOS_ASSERT(o.operands.size() < kNoAddrSlot,
                      "op ", o.id, " has too many operands");
        opInfo[o.id] = {o.kind, static_cast<uint8_t>(fuLatency(o.kind)),
                        o.isMem() ? static_cast<uint16_t>(
                                        o.firstAddrOperand())
                                  : kNoAddrSlot};
        inputOffset[o.id + 1] = static_cast<uint32_t>(o.operands.size());
        initialPendingAll[o.id] =
            static_cast<uint32_t>(o.operands.size());
        initialPendingAddr[o.id] =
            o.isMem() ? static_cast<uint32_t>(o.operands.size() -
                                              o.firstAddrOperand())
                      : 0;
    }
    for (size_t i = 0; i < n; ++i)
        inputOffset[i + 1] += inputOffset[i];

    // Invocation-start events: a mem op whose address needs no
    // operands fires noteAddrReady, a source op (no operands) fires
    // opInputsComplete — the same op can fire both. All land in one
    // wave, so list them in its canonical order: AddrReady events by
    // op, then InputsReady events by op.
    seedEvents.clear();
    for (const auto &o : region.ops()) {
        if (o.isMem() && initialPendingAddr[o.id] == 0)
            seedEvents.push_back({o.id, /*addrSeed=*/true});
    }
    for (const auto &o : region.ops()) {
        if (initialPendingAll[o.id] == 0)
            seedEvents.push_back({o.id, /*addrSeed=*/false});
    }

    // CSR fan-out: per producer, the (user, slot) edges with the static
    // route's hop count and latency cached — replaces the per-delivery
    // users × operand-slots rescan and latency rederivation.
    fanoutEdges.clear();
    fanoutOffset.assign(n + 1, 0);
    for (const auto &o : region.ops()) {
        if (!producesValue(o.kind))
            continue;
        for (OpId user : region.users(o.id)) {
            const Operation &u = region.op(user);
            for (uint32_t slot = 0; slot < u.operands.size(); ++slot) {
                if (u.operands[slot] != o.id)
                    continue;
                fanoutEdges.push_back(
                    {user, static_cast<uint16_t>(slot),
                     static_cast<uint16_t>(placement.hops(o.id, user)),
                     static_cast<uint32_t>(net.latency(o.id, user))});
                ++fanoutOffset[o.id + 1];
            }
        }
    }
    for (size_t i = 0; i < n; ++i)
        fanoutOffset[i + 1] += fanoutOffset[i];
}

SimPlan::SimPlan(const Region &region, const GridConfig &grid,
                 const NetworkConfig &net)
    : region_(region), placement_(region, grid),
      network_(placement_, net)
{
    tables_.build(region, placement_, network_);
}

} // namespace nachos
