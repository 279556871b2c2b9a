#include "cgra/lsq_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

LsqBackend::LsqBackend(const Region &region, const LsqConfig &cfg,
                       Buffers &buffers, SimStats &stats)
    : OrderingBackend(region), buf_(buffers)
{
    // Registers the LSQ counters with the run, as a new LSQ would.
    const uint32_t n = static_cast<uint32_t>(region.memOps().size());
    if (buf_.lsq)
        buf_.lsq->bind(cfg, n, stats);
    else
        buf_.lsq.emplace(cfg, n, stats);
    lsq_ = &*buf_.lsq;
}

void
LsqBackend::beginInvocation(uint64_t inv)
{
    (void)inv;
    const uint32_t n =
        static_cast<uint32_t>(region_.memOps().size());
    lsq_->reset();
    buf_.dyn.assign(n, {});
    // Clear in place: each store's parked-load buffer survives into the
    // next invocation and run instead of being freed and grown again.
    if (buf_.parked.size() < n)
        buf_.parked.resize(n);
    for (uint32_t m = 0; m < n; ++m)
        buf_.parked[m].clear();
}

CommitBatch &
LsqBackend::batchAt(uint32_t depth)
{
    if (buf_.batches.size() <= depth)
        buf_.batches.resize(depth + 1);
    return buf_.batches[depth];
}

void
LsqBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                         uint64_t cycle)
{
    const uint32_t m = region_.op(op).mem->memIndex;
    const bool is_store = region_.op(op).isStore();
    // onAllocated never resolves another address (only an AddrReady
    // event does), so the LSQ's batch buffer stays intact meanwhile.
    for (const auto &[mi, alloc_cycle] :
         lsq_->addressReady(m, is_store, addr, size, cycle))
        onAllocated(mi, alloc_cycle);
}

void
LsqBackend::onAllocated(uint32_t m, uint64_t alloc_cycle)
{
    OpDyn &d = buf_.dyn[m];
    d.allocated = true;
    d.allocCycle = alloc_cycle;
    const OpId op = region_.memOps()[m];
    if (region_.op(op).isLoad()) {
        searchLoad(m);
    } else if (d.fullyReady) {
        // Data arrived before the entry allocated (older ops were
        // address-late); commit now.
        commitStore(m, std::max(d.fullCycle, alloc_cycle));
    }
}

void
LsqBackend::memFullyReady(OpId op, uint64_t cycle)
{
    const uint32_t m = region_.op(op).mem->memIndex;
    OpDyn &d = buf_.dyn[m];
    d.fullyReady = true;
    d.fullCycle = cycle;
    if (region_.op(op).isLoad()) {
        // Loads act at allocation; nothing extra to do (a load's
        // full-readiness coincides with its address readiness).
        return;
    }
    if (d.allocated)
        commitStore(m, std::max(cycle, d.allocCycle));
}

void
LsqBackend::searchLoad(uint32_t m)
{
    const OpId op = region_.memOps()[m];
    const LoadSearchResult dec =
        lsq_->loadSearch(m, buf_.dyn[m].allocCycle);
    finishLoadDecision(op, dec);
}

void
LsqBackend::finishLoadDecision(OpId load, const LoadSearchResult &dec)
{
    const uint32_t m = region_.op(load).mem->memIndex;
    switch (dec.kind) {
      case LoadSearchResult::Kind::ToCache:
        lsq_->loadPerformAt(m, dec.cycle);
        core_->performMemAccess(load, dec.cycle);
        resumeAndDrain();
        return;
      case LoadSearchResult::Kind::ForwardFrom: {
        const uint32_t s = dec.store;
        // A forwarding load never reads memory: it cannot block any
        // younger store's commit.
        lsq_->loadElided(m);
        if (lsq_->storeHasData(s)) {
            const OpId store_op = region_.memOps()[s];
            const uint64_t when =
                std::max(dec.cycle, lsq_->storeDataCycle(s) + 1);
            core_->completeLoadForwarded(load, when,
                                         core_->storeData(store_op));
        } else {
            buf_.parked[s].push_back({load, dec.cycle, true});
        }
        resumeAndDrain();
        return;
      }
      case LoadSearchResult::Kind::WaitCommit:
        waitOrPerformLoad(load, dec.cycle);
        return;
    }
}

/**
 * A partially-overlapped load reads the cache only after EVERY older
 * overlapping store committed. The CAM's youngest conflictor is not
 * enough with multiple banks: a line-spanning older store homed in a
 * different bank commits independently of the youngest one. Park on
 * the youngest uncommitted conflictor and re-evaluate at each commit
 * until only the committed-floor remains.
 */
void
LsqBackend::waitOrPerformLoad(OpId load, uint64_t ready)
{
    const uint32_t m = region_.op(load).mem->memIndex;
    const LoadWaitStatus st = lsq_->loadWaitStatus(m);
    if (st.blockingStore != LoadWaitStatus::kNone) {
        buf_.parked[st.blockingStore].push_back({load, ready, false});
        return;
    }
    const uint64_t when = std::max(ready, st.commitFloor);
    lsq_->loadPerformAt(m, when);
    core_->performMemAccess(load, when);
    resumeAndDrain();
}

void
LsqBackend::commitStore(uint32_t m, uint64_t data_cycle)
{
    lsq_->storeDataArrived(m, data_cycle, batchAt(depth_));
    // Loads forwarding from this store only need the data, which now
    // exists; loads waiting on commits are released per cascade entry.
    // Completing a forwarded load never drains commits, so the batch
    // just filled stays intact meanwhile.
    releaseForwardWaiters(m);
    drainCommits();
}

void
LsqBackend::resumeAndDrain()
{
    lsq_->resumeCommits(batchAt(depth_));
    drainCommits();
}

/**
 * Perform the batch filled at the current depth, then keep resuming
 * the commit cascade until it stalls. Releasing a store's commit
 * waiters can perform loads and so re-enter here one depth deeper
 * while this batch is still being read: each depth owns its buffer,
 * read by index because a deeper call may grow the list of buffers.
 */
void
LsqBackend::drainCommits()
{
    const uint32_t depth = depth_++;
    while (!buf_.batches[depth].empty()) {
        for (size_t i = 0; i < buf_.batches[depth].size(); ++i) {
            const auto [s, commit] = buf_.batches[depth][i];
            core_->performMemAccess(region_.memOps()[s], commit);
            releaseCommitWaiters(s);
        }
        lsq_->resumeCommits(buf_.batches[depth]);
    }
    --depth_;
}

void
LsqBackend::releaseForwardWaiters(uint32_t store_m)
{
    auto &parked = buf_.parked[store_m];
    const OpId store_op = region_.memOps()[store_m];
    for (auto it = parked.begin(); it != parked.end();) {
        if (!it->wantsForward) {
            ++it;
            continue;
        }
        const uint64_t when = std::max(
            it->searchDone, lsq_->storeDataCycle(store_m) + 1);
        core_->completeLoadForwarded(it->load, when,
                                     core_->storeData(store_op));
        it = parked.erase(it);
    }
}

void
LsqBackend::releaseCommitWaiters(uint32_t store_m)
{
    // Detach the woken entries first: re-evaluation may park a load on
    // another store (and cascade further commits, re-entering here)
    // while we iterate. Nested calls push their frames above this one
    // and pop them before returning.
    std::vector<ParkedLoad> &woken = buf_.woken;
    const size_t base = woken.size();
    auto &parked = buf_.parked[store_m];
    for (auto it = parked.begin(); it != parked.end();) {
        if (it->wantsForward) {
            ++it;
            continue;
        }
        woken.push_back(*it);
        it = parked.erase(it);
    }
    const size_t end = woken.size();
    for (size_t i = base; i < end; ++i) {
        const ParkedLoad w = woken[i];
        waitOrPerformLoad(w.load, w.searchDone);
    }
    woken.resize(base);
}

void
LsqBackend::memCompleted(OpId op, uint64_t cycle)
{
    (void)cycle;
    const uint32_t m = region_.op(op).mem->memIndex;
    if (region_.op(op).isStore())
        lsq_->storeDrained(m);
    else
        lsq_->loadDone(m);
}

} // namespace nachos
