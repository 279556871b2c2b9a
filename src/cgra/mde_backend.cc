#include "cgra/mde_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

MdeBackend::MdeBackend(const Region &region, const MdeSet &mdes,
                       BackendKind scheme, uint32_t compares_per_cycle,
                       Buffers &buffers, SimStats &stats)
    : OrderingBackend(region), mdes_(mdes),
      mayIsOrder_(scheme == BackendKind::NachosSw), dyn_(buffers.dyn),
      stations_(buffers.stations)
{
    NACHOS_ASSERT(scheme == BackendKind::NachosSw ||
                      scheme == BackendKind::Nachos,
                  "MdeBackend runs an MDE scheme, not ",
                  backendName(scheme));
    dyn_.resize(region.numOps());
    if (mayIsOrder_)
        return;
    // Register the counters with the run, as new stations would. Every
    // NACHOS run reports nachos.runtimeForwards, with or without
    // stations, and no NACHOS-SW run does.
    runtimeForwards_ = &stats.counter(SimCounter::NachosRuntimeForwards);
    if (stations_.size() < region.memOps().size())
        stations_.resize(region.memOps().size());
    for (OpId op : region.memOps()) {
        const size_t parents = mdes.in(op, MdeKind::May).size();
        if (parents != 0)
            stations_[region.op(op).mem->memIndex].bind(
                static_cast<uint32_t>(parents), stats,
                compares_per_cycle);
    }
}

uint32_t
MdeBackend::tokensExpected(OpId op) const
{
    size_t n = mdes_.in(op, MdeKind::Order).size();
    if (mayIsOrder_)
        n += mdes_.in(op, MdeKind::May).size();
    return static_cast<uint32_t>(n);
}

MayCheckStation *
MdeBackend::station(OpId op)
{
    if (mayIsOrder_ || mdes_.in(op, MdeKind::May).empty())
        return nullptr;
    return &stations_[region_.op(op).mem->memIndex];
}

std::span<const uint32_t>
MdeBackend::stationTargets(OpId op) const
{
    if (mayIsOrder_)
        return {};
    return mdes_.out(op, MdeKind::May);
}

void
MdeBackend::beginInvocation(uint64_t inv)
{
    (void)inv;
    // Only memory ops reach the backend, so only their state resets.
    for (OpId op : region_.memOps()) {
        dyn_[op] = OpDyn{};
        dyn_[op].tokensPending = tokensExpected(op);
        if (MayCheckStation *st = station(op))
            st->reset();
    }
}

void
MdeBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                         uint64_t cycle)
{
    // Own address reaches this op's guard station; only this op's
    // gate depends on it.
    if (MayCheckStation *st = station(op)) {
        st->ownAddressReady(addr, size, cycle);
        tryIssue(op);
    }

    // This op's address travels to every station guarding a younger
    // MAY-dependent op (one network transfer + one comparison each:
    // the 500 fJ MAY-edge activations of Figure 3).
    for (uint32_t idx : stationTargets(op)) {
        const OpId younger = mdes_.edge(idx).younger;
        const uint64_t arrive = cycle + core_->netLatency(op, younger);
        station(younger)->parentAddressArrived(mdes_.slot(idx), addr,
                                               size, arrive);
        tryIssue(younger);
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
    const bool is_store = region_.op(op).isStore();
    if (is_store) {
        const int64_t value = core_->storeData(op);
        for (uint32_t idx : mdes_.out(op, MdeKind::Forward)) {
            const OpId younger = mdes_.edge(idx).younger;
            const uint64_t arrive =
                cycle + core_->netLatency(op, younger);
            core_->countForward();
            core_->scheduleForwardValue(arrive, younger, value);
        }
    }
    tryIssue(op);
    // A store's data becoming available can unblock a runtime forward
    // at a younger station.
    if (is_store) {
        for (uint32_t idx : stationTargets(op))
            tryIssue(mdes_.edge(idx).younger);
    }
}

void
MdeBackend::memCompleted(OpId op, uint64_t cycle)
{
    const auto send_tokens = [&](MdeKind kind) {
        for (uint32_t idx : mdes_.out(op, kind)) {
            const OpId younger = mdes_.edge(idx).younger;
            const uint64_t arrive =
                cycle + core_->netLatency(op, younger);
            core_->countOrderToken();
            core_->scheduleOrderToken(arrive, younger);
        }
    };
    send_tokens(MdeKind::Order);
    if (mayIsOrder_)
        send_tokens(MdeKind::May);
    for (uint32_t idx : stationTargets(op)) {
        const OpId younger = mdes_.edge(idx).younger;
        const uint64_t arrive = cycle + core_->netLatency(op, younger);
        station(younger)->parentCompleted(mdes_.slot(idx), arrive);
        tryIssue(younger);
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
    OpDyn &d = dyn_[op];
    if (d.issued || !d.fullyReady)
        return;
    const MayCheckStation *st = station(op);
    if (st && tryRuntimeForward(op, *st))
        return;
    if (d.tokensPending > 0)
        return;
    const bool forwarded = hasForward(op);
    if (forwarded && !d.fwdArrived)
        return;
    // Every MAY parent's result bit must be set.
    uint64_t clear = 0;
    if (st) {
        const auto all_clear = st->allClearCycle();
        if (!all_clear)
            return;
        clear = *all_clear;
    }

    const uint64_t when = std::max(
        {d.fullCycle, d.gateCycle, clear, forwarded ? d.fwdCycle : 0});
    d.issued = true;
    if (forwarded) {
        // Forwarded loads never touch the cache.
        core_->completeLoadForwarded(op, when + 1, d.fwdValue);
    } else {
        core_->performMemAccess(op, when);
    }
}

bool
MdeBackend::tryRuntimeForward(OpId op, const MayCheckStation &st)
{
    if (!region_.op(op).isLoad() || hasForward(op))
        return false;
    // Any ORDER edge into a load comes from a possibly-overlapping
    // store the runtime checks do not cover: forwarding would be
    // stale-prone.
    if (!mdes_.in(op, MdeKind::Order).empty())
        return false;

    if (!st.allCompared())
        return false;
    const std::optional<uint32_t> conflict = st.soleConflictingParent();
    if (!conflict || !st.exactConflict(*conflict))
        return false;
    const OpId parent =
        mdes_.edge(mdes_.in(op, MdeKind::May)[*conflict]).older;
    if (!region_.op(parent).isStore())
        return false;
    if (!dyn_[parent].fullyReady)
        return false; // the store's data is still in flight

    // Every other parent is verified disjoint and the conflicting
    // store covers the whole footprint: its value IS the load result.
    OpDyn &d = dyn_[op];
    const uint64_t when = std::max(
        {d.fullCycle, st.lastCompareDoneCycle(),
         dyn_[parent].fullCycle + core_->netLatency(parent, op)});
    d.issued = true;
    core_->countForward();
    runtimeForwards_->inc();
    core_->completeLoadForwarded(op, when + 1,
                                 core_->storeData(parent));
    return true;
}

} // namespace nachos
