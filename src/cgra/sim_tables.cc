#include "cgra/sim_tables.hh"

#include <algorithm>
#include <iterator>

#include "cgra/function_unit.hh"
#include "support/logging.hh"

namespace nachos {

namespace {

/** The static program of `t` (see SimTables::StaticOp): the part of
 * build() that runs after the fan-out. */
void
buildStaticProgram(SimTables &t, const Region &region)
{
    // One forward pass: op ids are topological (Region::verify), so an
    // op's operands are classified before it. A static op fires at the
    // max arrival of its operands, all of which are fixed offsets from
    // the invocation start — the cycle the eager cascade would fire it.
    constexpr uint32_t kDynamic = ~uint32_t{0};
    std::vector<uint32_t> programIndex(region.numOps(), kDynamic);
    t.staticProgram.clear();
    t.frontier.clear();
    t.dynamicOps.clear();
    t.staticTotals = {};
    t.staticCriticalEnd = 0;
    t.staticCriticalOp = 0;
    for (const auto &o : region.ops()) {
        bool is_static = !o.isMem();
        for (OpId src : o.operands)
            is_static = is_static && programIndex[src] != kDynamic;
        if (!is_static) {
            t.dynamicOps.push_back(o.id);
            continue;
        }
        SimTables::StaticOp s;
        s.imm = o.imm;
        s.op = o.id;
        s.kind = o.kind;
        s.numInputs = static_cast<uint8_t>(o.operands.size());
        s.fuLatency = t.opInfo[o.id].fuLatency;
        NACHOS_ASSERT(o.operands.size() <= std::size(s.in),
                      "pure op ", o.id, " has too many operands");
        for (size_t slot = 0; slot < o.operands.size(); ++slot)
            s.in[slot] = programIndex[o.operands[slot]];
        programIndex[o.id] =
            static_cast<uint32_t>(t.staticProgram.size());
        t.staticProgram.push_back(s);
    }

    // Fire offsets, totals and the frontier, per producer's fan-out.
    for (size_t i = 0; i < t.staticProgram.size(); ++i) {
        SimTables::StaticOp &s = t.staticProgram[i];
        const uint32_t end = s.fireOffset + s.fuLatency;
        if (end >= t.staticCriticalEnd) { // ids ascend: ties go to later
            t.staticCriticalEnd = end;
            t.staticCriticalOp = s.op;
        }
        switch (fuEvent(s.kind)) {
          case FuEvent::Int: ++t.staticTotals.intOps; break;
          case FuEvent::Fp: ++t.staticTotals.fpOps; break;
          case FuEvent::None: break;
        }
        const uint32_t first = t.fanoutOffset[s.op];
        for (uint32_t e = first; e < t.fanoutOffset[s.op + 1]; ++e) {
            const SimTables::FanoutEdge &edge = t.fanoutEdges[e];
            const uint32_t arrival = end + edge.latency;
            ++t.staticTotals.netTransfers;
            t.staticTotals.netHops += edge.hops;
            const uint32_t user = programIndex[edge.user];
            if (user != kDynamic) {
                SimTables::StaticOp &u = t.staticProgram[user];
                u.fireOffset = std::max(u.fireOffset, arrival);
                continue;
            }
            // A delivery at offset 0 would schedule its consumer's
            // event into the first wave, beside the seeds.
            NACHOS_ASSERT(arrival >= 1, "frontier edge ", s.op, " -> ",
                          edge.user, " arrives at the invocation start");
            t.frontier.push_back({static_cast<uint32_t>(i), edge.user,
                                  edge.slot, arrival});
        }
    }
}

} // namespace

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
    // operands fires noteAddrReady, one with no operands at all fires
    // opInputsComplete — the same op can fire both. All land in one
    // wave, so list them in its canonical order: AddrReady events by
    // op, then InputsReady events by op. (Const and LiveIn are not
    // events: they head the static program.)
    seedEvents.clear();
    for (const auto &o : region.ops()) {
        if (o.isMem() && initialPendingAddr[o.id] == 0)
            seedEvents.push_back({o.id, /*addrSeed=*/true});
    }
    for (const auto &o : region.ops()) {
        if (o.isMem() && initialPendingAll[o.id] == 0)
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

    buildStaticProgram(*this, region);
}

SimPlan::SimPlan(const Region &region, const Placement &placement,
                 const NetworkConfig &net)
    : region_(region), placement_(placement), network_(placement, net)
{
    NACHOS_ASSERT(placement.numOps() == region.numOps(), "placement of ",
                  placement.numOps(), " ops for a region of ",
                  region.numOps());
    tables_.build(region, placement_, network_);
}

} // namespace nachos
