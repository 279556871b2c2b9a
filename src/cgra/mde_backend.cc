#include "cgra/mde_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

MdeBackend::MdeBackend(const Region &region, const MdeSet &mdes,
                       BackendKind scheme, uint32_t compares_per_cycle,
                       Buffers &buffers, SimStats &stats)
    : OrderingBackend(region), mdeSet_(mdes), buf_(buffers),
      info_(buffers.info), dyn_(buffers.dyn),
      stations_(buffers.stations)
{
    NACHOS_ASSERT(scheme == BackendKind::NachosSw ||
                      scheme == BackendKind::Nachos,
                  "MdeBackend runs an MDE scheme, not ",
                  backendName(scheme));
    // The only scheme decision: where a MAY edge goes.
    const bool may_is_order = scheme == BackendKind::NachosSw;
    info_.assign(region.numOps(), {});
    dyn_.resize(region.numOps());
    buf_.mayParents.clear();
    buf_.outgoingOrder.clear();
    buf_.outgoingForward.clear();
    buf_.mayTargets.clear();
    // Each op's lists are contiguous: an op's own lists fill in op
    // order, while its MAY targets (added by younger ops) are counted
    // here and placed below.
    for (OpId op : region.memOps()) {
        OpInfo &inf = info_[op];
        inf.mayParents.begin =
            static_cast<uint32_t>(buf_.mayParents.size());
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
                    ++info_[e.older].mayTargets.size;
                    buf_.mayParents.push_back(e.older);
                    ++inf.mayParents.size;
                }
                break;
              case MdeKind::Forward:
                NACHOS_ASSERT(!inf.hasForward,
                              "load with two FORWARD sources");
                inf.hasForward = true;
                break;
            }
        }
        if (inf.mayParents.size != 0)
            inf.station = numStations_++;
        inf.outgoingOrder.begin =
            static_cast<uint32_t>(buf_.outgoingOrder.size());
        inf.outgoingForward.begin =
            static_cast<uint32_t>(buf_.outgoingForward.size());
        for (uint32_t idx : mdes.outgoing(op)) {
            const MdeKind kind = mdes.edge(idx).kind;
            if (kind == MdeKind::Forward) {
                buf_.outgoingForward.push_back(idx);
                ++inf.outgoingForward.size;
            } else if (kind == MdeKind::Order || may_is_order) {
                buf_.outgoingOrder.push_back(idx);
                ++inf.outgoingOrder.size;
            }
        }
    }
    // Place the MAY targets: each parent's span starts where the
    // previous parents' end, and fills in the order the edges were
    // counted (younger ops in memOps order, then their parent slots).
    uint32_t next = 0;
    for (OpId op : region.memOps()) {
        Span &t = info_[op].mayTargets;
        t.begin = next;
        next += t.size;
        t.size = 0;
    }
    buf_.mayTargets.resize(next);
    for (OpId op : region.memOps()) {
        const OpInfo &inf = info_[op];
        for (uint32_t slot = 0; slot < inf.mayParents.size; ++slot) {
            Span &t =
                info_[buf_.mayParents[inf.mayParents.begin + slot]]
                    .mayTargets;
            buf_.mayTargets[t.begin + t.size++] = {op, slot};
        }
    }

    // Register the counters with the run, as new stations would,
    // binding the pool's stations in memOps order. Every NACHOS run
    // reports nachos.runtimeForwards, with or without stations, and no
    // NACHOS-SW run does.
    if (scheme == BackendKind::Nachos)
        runtimeForwards_ =
            &stats.counter(SimCounter::NachosRuntimeForwards);
    for (OpId op : region.memOps()) {
        const OpInfo &inf = info_[op];
        if (inf.station == kNoStation)
            continue;
        if (inf.station < stations_.size())
            stations_[inf.station].bind(inf.mayParents.size, stats,
                                        compares_per_cycle);
        else
            stations_.emplace_back(inf.mayParents.size, stats,
                                   compares_per_cycle);
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
    for (uint32_t i = 0; i < numStations_; ++i)
        stations_[i].reset();
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
    for (const MayTarget &target :
         spanOf(buf_.mayTargets, inf.mayTargets)) {
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
        for (uint32_t idx :
             spanOf(buf_.outgoingForward, inf.outgoingForward)) {
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
        for (const MayTarget &target :
             spanOf(buf_.mayTargets, inf.mayTargets))
            tryIssue(target.younger);
    }
}

void
MdeBackend::memCompleted(OpId op, uint64_t cycle)
{
    const OpInfo &inf = info_[op];
    for (uint32_t idx : spanOf(buf_.outgoingOrder, inf.outgoingOrder)) {
        const Mde &e = mdeSet_.edge(idx);
        const uint64_t arrive =
            cycle + core_->netLatency(e.older, e.younger);
        core_->countOrderToken(e.older, e.younger);
        core_->scheduleOrderToken(arrive, e.younger);
    }
    for (const MayTarget &target :
         spanOf(buf_.mayTargets, inf.mayTargets)) {
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
    const std::optional<uint32_t> conflict = st.soleConflictingParent();
    if (!conflict || !st.exactConflict(*conflict))
        return false;
    const OpId parent = buf_.mayParents[inf.mayParents.begin + *conflict];
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
