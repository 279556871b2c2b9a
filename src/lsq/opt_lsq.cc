#include "lsq/opt_lsq.hh"

#include <algorithm>
#include <functional>

#include "support/logging.hh"

namespace nachos {

OptLsq::OptLsq(const LsqConfig &cfg, uint32_t num_mem_ops, SimStats &stats)
    : cfg_(cfg), bloom_(cfg.bloom)
{
    bind(cfg, num_mem_ops, stats);
}

void
OptLsq::bind(const LsqConfig &cfg, uint32_t num_mem_ops, SimStats &stats)
{
    NACHOS_ASSERT(cfg.banks >= 1, "need at least one bank");
    if (!(cfg.bloom == cfg_.bloom))
        bloom_ = BloomFilter(cfg.bloom);
    cfg_ = cfg;
    allocs_ = &stats.counter(SimCounter::LsqAllocs);
    bloomProbes_ = &stats.counter(SimCounter::LsqBloomProbes);
    bloomHits_ = &stats.counter(SimCounter::LsqBloomHits);
    bloomMisses_ = &stats.counter(SimCounter::LsqBloomMisses);
    camStores_ = &stats.counter(SimCounter::LsqCamStores);
    camLoads_ = &stats.counter(SimCounter::LsqCamLoads);
    forwards_ = &stats.counter(SimCounter::LsqForwards);
    entries_.resize(num_mem_ops);
    bankPorts_.assign(cfg_.banks, BandwidthRegulator(cfg_.portsPerBank));
    // Grow-only: shrinking would free the lists' storage.
    if (bankQueues_.size() < cfg_.banks)
        bankQueues_.resize(cfg_.banks);
    if (loadWatchers_.size() < num_mem_ops) {
        loadWatchers_.resize(num_mem_ops);
        storeWatchers_.resize(num_mem_ops);
    }
    reset();
}

void
OptLsq::reset()
{
    std::fill(entries_.begin(), entries_.end(), Entry{});
    for (auto &bank : bankPorts_)
        bank.reset();
    for (uint32_t b = 0; b < cfg_.banks; ++b) {
        BankQueue &q = bankQueues_[b];
        q.stores.clear();
        q.head = 0;
        q.lastCommit = 0;
        q.anyCommit = false;
    }
    for (size_t m = 0; m < entries_.size(); ++m) {
        loadWatchers_[m].clear();
        storeWatchers_[m].clear();
    }
    commitCandidates_.clear();
    bloom_.clear();
    nextToAlloc_ = 0;
    lastAllocSlot_ = 0;
}

uint32_t
OptLsq::bankOf(uint64_t addr) const
{
    return static_cast<uint32_t>((addr / 64) % cfg_.banks);
}

bool
OptLsq::overlaps(const Entry &a, const Entry &b) const
{
    return a.addr < b.addr + b.size && b.addr < a.addr + a.size;
}

const std::vector<std::pair<uint32_t, uint64_t>> &
OptLsq::addressReady(uint32_t m, bool is_store, uint64_t addr,
                     uint32_t size, uint64_t cycle)
{
    NACHOS_ASSERT(m < entries_.size(), "memIndex out of range");
    Entry &e = entries_[m];
    NACHOS_ASSERT(!e.seen, "addressReady called twice for op ", m);
    e.seen = true;
    e.isStore = is_store;
    e.addr = addr;
    e.size = size;
    e.addrReadyAt = cycle;

    // Cascade in-order allocation over every op that is now unblocked.
    // Ordering constraint: op m's allocation SLOT is not earlier than
    // op m-1's slot (same cycle is fine — ports permitting); the
    // allocLatency pipeline stage applies to each op independently and
    // must not chain, or allocation would serialize to one per cycle.
    allocated_.clear();
    while (nextToAlloc_ < entries_.size() &&
           entries_[nextToAlloc_].seen) {
        Entry &a = entries_[nextToAlloc_];
        uint64_t earliest = std::max(a.addrReadyAt, lastAllocSlot_);
        uint64_t slot = bankPorts_[bankOf(a.addr)].admit(earliest);
        lastAllocSlot_ = slot;
        uint64_t granted = slot + cfg_.allocLatency;
        a.alloc = granted;
        allocs_->inc();
        if (a.isStore) {
            bankQueues_[bankOf(a.addr)].stores.push_back(nextToAlloc_);
            // Stores probe the filter BEFORE inserting their own
            // address (no self-hits) and CAM-check both queues on a
            // probe hit, as in a conventional LSQ.
            bloomProbes_->inc();
            if (bloom_.mayContain(a.addr, a.size)) {
                bloomHits_->inc();
                camStores_->inc();
            } else {
                bloomMisses_->inc();
            }
            bloom_.insert(a.addr, a.size);
        }
        allocated_.emplace_back(nextToAlloc_, granted);
        ++nextToAlloc_;
    }
    return allocated_;
}

LoadSearchResult
OptLsq::loadSearch(uint32_t m, uint64_t cycle)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && !e.isStore, "loadSearch on non-load ", m);
    NACHOS_ASSERT(e.alloc && cycle >= *e.alloc,
                  "search before allocation");

    LoadSearchResult result;
    result.cycle = cycle + cfg_.searchLatency;

    bloomProbes_->inc();
    if (!bloom_.mayContain(e.addr, e.size)) {
        bloomMisses_->inc();
        result.kind = LoadSearchResult::Kind::ToCache;
        return result;
    }
    bloomHits_->inc();
    camLoads_->inc();

    // CAM: youngest older in-flight store overlapping this load.
    for (uint32_t i = m; i-- > 0;) {
        const Entry &s = entries_[i];
        if (!s.isStore || !s.seen || s.drained)
            continue;
        if (!overlaps(e, s))
            continue;
        if (s.addr == e.addr && s.size == e.size) {
            forwards_->inc();
            result.kind = LoadSearchResult::Kind::ForwardFrom;
        } else {
            result.kind = LoadSearchResult::Kind::WaitCommit;
        }
        result.store = i;
        return result;
    }
    result.kind = LoadSearchResult::Kind::ToCache;
    return result;
}

LoadWaitStatus
OptLsq::loadWaitStatus(uint32_t m) const
{
    const Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && !e.isStore, "loadWaitStatus on non-load ",
                  m);
    LoadWaitStatus st;
    for (uint32_t i = m; i-- > 0;) {
        const Entry &s = entries_[i];
        if (!s.isStore || !s.seen || s.drained)
            continue;
        if (!overlaps(e, s))
            continue;
        if (s.commit) {
            st.commitFloor = std::max(st.commitFloor, *s.commit + 1);
        } else if (st.blockingStore == LoadWaitStatus::kNone) {
            st.blockingStore = i;
        }
    }
    return st;
}

void
OptLsq::storeDataArrived(uint32_t m, uint64_t cycle, CommitBatch &out)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && e.isStore,
                  "storeDataArrived on non-store ", m);
    NACHOS_ASSERT(e.alloc, "store data before allocation");
    NACHOS_ASSERT(!e.dataReady, "store data arrived twice for ", m);
    e.dataReady = std::max(cycle, *e.alloc);

    // One-time anti-dependence registration. In-order allocation
    // guarantees every older op's address is resolved by the time a
    // younger store has allocated (a precondition of having data), so
    // the set of older overlapping loads is final here: fold the
    // already-performed ones into the commit floor and subscribe to
    // the rest.
    for (uint32_t i = 0; i < m; ++i) {
        const Entry &o = entries_[i];
        NACHOS_ASSERT(o.seen, "older op unresolved after allocation");
        if (!overlaps(o, e))
            continue;
        if (o.isStore) {
            // Same-bank ST-ST order comes from the bank's program-
            // order queue; a line-spanning overlap into another bank
            // must wait for the older store's commit explicitly.
            if (bankOf(o.addr) == bankOf(e.addr))
                continue;
            if (o.commit) {
                e.storeFloor = std::max(e.storeFloor, *o.commit + 1);
            } else {
                ++e.pendingOlderStores;
                storeWatchers_[i].push_back(m);
            }
            continue;
        }
        if (o.elided)
            continue;
        if (o.performAt) {
            e.loadFloor = std::max(e.loadFloor, *o.performAt + 1);
        } else {
            ++e.pendingOlderLoads;
            loadWatchers_[i].push_back(m);
        }
    }
    noteCommitCandidate(m);
    resumeCommits(out);
}

void
OptLsq::loadPerformAt(uint32_t m, uint64_t cycle)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && !e.isStore, "loadPerformAt on non-load ", m);
    NACHOS_ASSERT(!e.performAt && !e.elided, "load perform set twice");
    e.performAt = cycle;
    for (uint32_t s : loadWatchers_[m]) {
        Entry &st = entries_[s];
        NACHOS_ASSERT(st.pendingOlderLoads > 0, "watcher underflow");
        st.loadFloor = std::max(st.loadFloor, cycle + 1);
        if (--st.pendingOlderLoads == 0)
            noteCommitCandidate(s);
    }
    loadWatchers_[m].clear();
}

void
OptLsq::loadElided(uint32_t m)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && !e.isStore, "loadElided on non-load ", m);
    NACHOS_ASSERT(!e.performAt && !e.elided, "load perform set twice");
    e.elided = true;
    for (uint32_t s : loadWatchers_[m]) {
        Entry &st = entries_[s];
        NACHOS_ASSERT(st.pendingOlderLoads > 0, "watcher underflow");
        if (--st.pendingOlderLoads == 0)
            noteCommitCandidate(s);
    }
    loadWatchers_[m].clear();
}

void
OptLsq::noteCommitCandidate(uint32_t m)
{
    const Entry &s = entries_[m];
    const BankQueue &q = bankQueues_[bankOf(s.addr)];
    if (s.dataReady && !s.commit && s.pendingOlderLoads == 0 &&
        s.pendingOlderStores == 0 && q.head < q.stores.size() &&
        q.stores[q.head] == m)
        commitCandidates_.push_back(m);
}

void
OptLsq::resumeCommits(CommitBatch &out)
{
    // Address-partitioned in-order commit (Sethumadhavan et al. [34]):
    // a store writes the cache only after every older store IN ITS
    // BANK has committed (same-address stores always share a bank, so
    // ST-ST program order holds) and after every older overlapping
    // load has issued its cache read (anti-dependence), so loads never
    // observe a younger store's value. Banks drain independently.
    //
    // Blocking relations only point at OLDER ops, so the cascade is
    // a single pass over a min-heap of unblocked stores: committing a
    // store can unblock only its (younger) bank successor, and the
    // heap keeps the emitted order ascending in memIndex — the same
    // order the previous full-rescan implementation produced.
    out.clear();
    if (commitCandidates_.empty())
        return;

    // Both buffers keep their own capacity: swapping them would hand
    // the candidates a buffer sized for the heap, and each would grow
    // again on the next call.
    std::vector<uint32_t> &heap = commitHeap_;
    heap.assign(commitCandidates_.begin(), commitCandidates_.end());
    commitCandidates_.clear();
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const uint32_t m = heap.back();
        heap.pop_back();
        Entry &s = entries_[m];
        if (s.commit)
            continue; // duplicate candidate
        const uint32_t bank = bankOf(s.addr);
        BankQueue &q = bankQueues_[bank];
        NACHOS_ASSERT(s.dataReady && s.pendingOlderLoads == 0 &&
                          s.pendingOlderStores == 0 &&
                          q.head < q.stores.size() &&
                          q.stores[q.head] == m,
                      "stale commit candidate ", m);

        uint64_t floor =
            std::max({*s.dataReady, s.loadFloor, s.storeFloor});
        if (q.anyCommit)
            floor = std::max(floor, q.lastCommit + 1);
        const uint64_t commit = bankPorts_[bank].admit(floor);
        s.commit = commit;
        q.lastCommit = commit;
        q.anyCommit = true;
        ++q.head;
        out.emplace_back(m, commit);

        // Cross-bank overlapping younger stores stop waiting on us.
        for (uint32_t w : storeWatchers_[m]) {
            Entry &sw = entries_[w];
            NACHOS_ASSERT(sw.pendingOlderStores > 0,
                          "store watcher underflow");
            sw.storeFloor = std::max(sw.storeFloor, commit + 1);
            if (--sw.pendingOlderStores == 0) {
                const BankQueue &qw = bankQueues_[bankOf(sw.addr)];
                if (sw.dataReady && !sw.commit &&
                    sw.pendingOlderLoads == 0 &&
                    qw.head < qw.stores.size() &&
                    qw.stores[qw.head] == w) {
                    heap.push_back(w);
                    std::push_heap(heap.begin(), heap.end(),
                                   std::greater<>{});
                }
            }
        }
        storeWatchers_[m].clear();

        if (q.head < q.stores.size()) {
            const uint32_t next = q.stores[q.head];
            const Entry &sn = entries_[next];
            if (sn.dataReady && sn.pendingOlderLoads == 0 &&
                sn.pendingOlderStores == 0) {
                heap.push_back(next);
                std::push_heap(heap.begin(), heap.end(),
                               std::greater<>{});
            }
        }
    }
}

void
OptLsq::storeDrained(uint32_t m)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.isStore && e.commit && !e.drained,
                  "bad storeDrained on op ", m);
    e.drained = true;
    bloom_.remove(e.addr, e.size);
}

void
OptLsq::loadDone(uint32_t m)
{
    Entry &e = entries_[m];
    NACHOS_ASSERT(e.seen && !e.isStore, "loadDone on non-load ", m);
    e.done = true;
}

bool
OptLsq::storeHasData(uint32_t m) const
{
    const Entry &e = entries_[m];
    NACHOS_ASSERT(e.isStore, "storeHasData on non-store ", m);
    return e.dataReady.has_value();
}

uint64_t
OptLsq::storeDataCycle(uint32_t m) const
{
    const Entry &e = entries_[m];
    NACHOS_ASSERT(e.isStore && e.dataReady, "store data not ready");
    return *e.dataReady;
}

bool
OptLsq::allDrained() const
{
    for (const Entry &e : entries_) {
        if (!e.seen)
            return false;
        if (e.isStore ? !e.drained : !e.done)
            return false;
    }
    return true;
}

} // namespace nachos
