#include "cgra/mde_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

MdeBackend::MdeBackend(const Region &region, const MdeSet &mdes,
                       BackendKind scheme, uint32_t compares_per_cycle)
    : OrderingBackend(region), mdeSet_(mdes),
      comparesPerCycle_(compares_per_cycle),
      reportsRuntimeForwards_(scheme == BackendKind::Nachos)
{
    NACHOS_ASSERT(scheme == BackendKind::NachosSw ||
                      scheme == BackendKind::Nachos,
                  "MdeBackend runs an MDE scheme, not ",
                  backendName(scheme));
    // The only scheme decision: where a MAY edge goes.
    const bool may_is_order = scheme == BackendKind::NachosSw;
    info_.assign(region.numOps(), {});
    dyn_.resize(region.numOps());
    for (OpId op : region.memOps()) {
        OpInfo &inf = info_[op];
        for (uint32_t idx : mdes.incoming(op)) {
            const Mde &e = mdes.edge(idx);
            switch (e.kind) {
              case MdeKind::Order:
                ++inf.orderTokensExpected;
                break;
              case MdeKind::May:
                if (may_is_order) {
                    ++inf.orderTokensExpected;
                } else {
                    const auto slot =
                        static_cast<uint32_t>(inf.mayParents.size());
                    info_[e.older].mayTargets.push_back({op, slot});
                    inf.mayParents.push_back(e.older);
                }
                break;
              case MdeKind::Forward:
                NACHOS_ASSERT(!inf.hasForward,
                              "load with two FORWARD sources");
                inf.hasForward = true;
                break;
            }
        }
        if (!inf.mayParents.empty())
            inf.station = numStations_++;
        for (uint32_t idx : mdes.outgoing(op)) {
            const MdeKind kind = mdes.edge(idx).kind;
            if (kind == MdeKind::Forward)
                inf.outgoingForward.push_back(idx);
            else if (kind == MdeKind::Order || may_is_order)
                inf.outgoingOrder.push_back(idx);
        }
    }
}

void
MdeBackend::beginInvocation(uint64_t inv)
{
    (void)inv;
    // Only memory ops reach the backend, so only their state resets.
    for (OpId op : region_.memOps()) {
        dyn_[op] = OpDyn{};
        dyn_[op].tokensPending = info_[op].orderTokensExpected;
    }
    if (reportsRuntimeForwards_ && !runtimeForwards_)
        runtimeForwards_ =
            &core_->stats().counter("nachos.runtimeForwards");
    if (stations_.size() < numStations_) {
        stations_.reserve(numStations_);
        for (OpId op : region_.memOps()) {
            const OpInfo &inf = info_[op];
            if (inf.station != kNoStation)
                stations_.emplace_back(
                    static_cast<uint32_t>(inf.mayParents.size()),
                    core_->stats(), comparesPerCycle_);
        }
    } else {
        for (MayCheckStation &station : stations_)
            station.reset();
    }
}

void
MdeBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                         uint64_t cycle)
{
    // Own address reaches this op's guard station; only this op's
    // gate depends on it.
    const OpInfo &inf = info_[op];
    if (inf.station != kNoStation) {
        stations_[inf.station].ownAddressReady(addr, size, cycle);
        tryIssue(op);
    }

    // This op's address travels to every station guarding a younger
    // MAY-dependent op (one network transfer + one comparison each:
    // the 500 fJ MAY-edge activations of Figure 3).
    for (const MayTarget &target : inf.mayTargets) {
        const uint64_t arrive =
            cycle + core_->netLatency(op, target.younger);
        stations_[info_[target.younger].station].parentAddressArrived(
            target.slot, addr, size, arrive);
        tryIssue(target.younger);
    }
}

void
MdeBackend::memFullyReady(OpId op, uint64_t cycle)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(!d.fullyReady, "double fullyReady");
    d.fullyReady = true;
    d.fullCycle = cycle;

    // A store's value departs on its FORWARD edges as soon as the data
    // exists — the memory dependence became a data dependence.
    const OpInfo &inf = info_[op];
    const bool is_store = region_.op(op).isStore();
    if (is_store) {
        const int64_t value = core_->storeData(op);
        for (uint32_t idx : inf.outgoingForward) {
            const Mde &e = mdeSet_.edge(idx);
            const uint64_t arrive =
                cycle + core_->netLatency(e.older, e.younger);
            core_->countForward(e.older, e.younger);
            core_->scheduleForwardValue(arrive, e.younger, value);
        }
    }
    tryIssue(op);
    // A store's data becoming available can unblock a runtime forward
    // at a younger station.
    if (is_store) {
        for (const MayTarget &target : inf.mayTargets)
            tryIssue(target.younger);
    }
}

void
MdeBackend::memCompleted(OpId op, uint64_t cycle)
{
    const OpInfo &inf = info_[op];
    for (uint32_t idx : inf.outgoingOrder) {
        const Mde &e = mdeSet_.edge(idx);
        const uint64_t arrive =
            cycle + core_->netLatency(e.older, e.younger);
        core_->countOrderToken(e.older, e.younger);
        core_->scheduleOrderToken(arrive, e.younger);
    }
    for (const MayTarget &target : inf.mayTargets) {
        const uint64_t arrive =
            cycle + core_->netLatency(op, target.younger);
        stations_[info_[target.younger].station].parentCompleted(
            target.slot, arrive);
        tryIssue(target.younger);
    }
}

void
MdeBackend::onOrderToken(OpId op, uint64_t cycle)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(d.tokensPending > 0, "token underflow at op ", op);
    --d.tokensPending;
    d.gateCycle = std::max(d.gateCycle, cycle);
    tryIssue(op);
}

void
MdeBackend::onForwardValue(OpId op, uint64_t cycle, int64_t value)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(!d.fwdArrived, "double forward arrival");
    d.fwdArrived = true;
    d.fwdCycle = cycle;
    d.fwdValue = value;
    tryIssue(op);
}

void
MdeBackend::tryIssue(OpId op)
{
    if (tryRuntimeForward(op))
        return;
    OpDyn &d = dyn_[op];
    const OpInfo &inf = info_[op];
    if (d.issued || !d.fullyReady || d.tokensPending > 0)
        return;
    if (inf.hasForward && !d.fwdArrived)
        return;
    // Every MAY parent's result bit must be set.
    uint64_t clear = 0;
    if (inf.station != kNoStation) {
        const auto all_clear = stations_[inf.station].allClearCycle();
        if (!all_clear)
            return;
        clear = *all_clear;
    }

    const uint64_t when =
        std::max({d.fullCycle, d.gateCycle, clear,
                  inf.hasForward ? d.fwdCycle : 0});
    d.issued = true;
    if (inf.hasForward) {
        // Forwarded loads never touch the cache.
        core_->completeLoadForwarded(op, when + 1, d.fwdValue);
    } else {
        core_->performMemAccess(op, when);
    }
}

bool
MdeBackend::tryRuntimeForward(OpId op)
{
    const OpInfo &inf = info_[op];
    OpDyn &d = dyn_[op];
    if (inf.station == kNoStation || d.issued || !d.fullyReady)
        return false;
    if (!region_.op(op).isLoad() || inf.hasForward)
        return false;
    // Any ORDER edge into a load comes from a possibly-overlapping
    // store the runtime checks do not cover: forwarding would be
    // stale-prone. (Such tokens also imply tokensPending handling.)
    if (inf.orderTokensExpected > 0)
        return false;

    const MayCheckStation &st = stations_[inf.station];
    if (!st.allCompared())
        return false;
    const auto conflicts = st.conflictingParents();
    if (conflicts.size() != 1 || !st.exactConflict(conflicts[0]))
        return false;
    const OpId parent = inf.mayParents[conflicts[0]];
    if (!region_.op(parent).isStore())
        return false;
    if (!dyn_[parent].fullyReady)
        return false; // the store's data is still in flight

    // Every other parent is verified disjoint and the conflicting
    // store covers the whole footprint: its value IS the load result.
    const uint64_t when = std::max(
        {d.fullCycle, st.lastCompareDoneCycle(),
         dyn_[parent].fullCycle + core_->netLatency(parent, op)});
    d.issued = true;
    core_->countForward(parent, op);
    runtimeForwards_->inc();
    core_->completeLoadForwarded(op, when + 1,
                                 core_->storeData(parent));
    return true;
}

} // namespace nachos
