/**
 * @file
 * Timing model of a non-blocking set-associative cache.
 *
 * The model is a stateful latency oracle: each access() returns the
 * completion cycle, after accounting for port bandwidth, tag lookup,
 * MSHR allocation/merging and the next level's latency. Writebacks are
 * counted (for energy) but modeled off the critical path, as in the
 * paper's aggressive non-blocking interface.
 *
 * The access path is built for speed (DESIGN.md §10): stat counters
 * are resolved to `Counter*` handles once at construction, the hit
 * path is a short inlineable function that falls through to an
 * out-of-line miss path, and the level is a template over its concrete
 * next-level type so the fixed L1→LLC→DRAM chain compiles to direct
 * (non-virtual) calls.
 */

#ifndef NACHOS_MEM_CACHE_HH
#define NACHOS_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/bandwidth.hh"
#include "support/sim_stats.hh"

namespace nachos {

/** Which level a cache models: selects its counter-table rows. */
enum class CacheLevel : uint8_t { L1, Llc };

/** Configuration of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;
    uint32_t assoc = 4;
    uint32_t lineBytes = 64;
    uint32_t hitLatency = 3;
    uint32_t numMshrs = 16;
    /** Requests accepted per cycle. */
    uint32_t ports = 2;
    CacheLevel level = CacheLevel::L1; ///< counter rows ("l1.*")

    bool operator==(const CacheConfig &) const = default;
};

/**
 * The paper's Figure-3 geometry of each level: L1 64 KiB, 4-way,
 * 3 cycles; LLC 4 MiB, 16-way, 25 cycles (HierarchyConfig's defaults).
 */
constexpr CacheConfig
figure3Cache(CacheLevel level)
{
    return level == CacheLevel::L1
               ? CacheConfig{64 * 1024, 4, 64, 3, 16, 4, CacheLevel::L1}
               : CacheConfig{4 * 1024 * 1024, 16, 64, 25, 32, 4,
                             CacheLevel::Llc};
}

/**
 * Fixed-latency DRAM with a simple per-request issue bandwidth: the
 * timing sink under the last cache level.
 */
class MainMemory final
{
  public:
    explicit MainMemory(uint32_t latency = 200,
                        uint32_t requests_per_cycle = 4)
        : latency_(latency), bw_(requests_per_cycle)
    {}

    /** Issue a request at `cycle`; returns its completion cycle. */
    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle)
    {
        (void)addr;
        (void)write;
        ++accesses_;
        return bw_.admit(cycle) + latency_;
    }

    uint64_t totalAccesses() const { return accesses_; }

    void
    reset()
    {
        bw_.reset();
        accesses_ = 0;
    }

  private:
    uint32_t latency_;
    BandwidthRegulator bw_;
    uint64_t accesses_ = 0;
};

/**
 * One set-associative, write-back, write-allocate cache level,
 * parameterized on the concrete type of the level below it so that
 * `next_.access(...)` is a direct call.
 *
 * In-flight line fills are tracked in the ways themselves (`fillDone`)
 * instead of a side hash map: a fill is installed into its way within
 * the same access() that issues it, so a line with a pending fill is
 * always resident, and eviction of the way retires the pending entry
 * with it. `fillDone == 0` means "no fill in flight" — benign, since a
 * pending cycle of 0 can never exceed the (admitted) request cycle and
 * therefore behaves exactly like an already-expired fill.
 */
template <class Next>
class CacheT final
{
  public:
    CacheT(const CacheConfig &cfg, Next &next, SimStats &stats)
        : next_(next), bw_(cfg.ports)
    {
        reshape(cfg, stats);
    }

    /**
     * Issue a request at `cycle`; returns its completion cycle. Hit
     * fast path; misses fall through to accessMiss().
     */
    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle)
    {
        cycle = bw_.admit(cycle);
        ++useClock_;
        const uint64_t line = lineOf(addr);
        (write ? writes_ : reads_)->inc();

        if (Way *way = findWay(line)) {
            way->lastUse = useClock_;
            way->dirty |= write;
            // A fill may still be in flight for this (installed)
            // line: the access is a miss that merges into the pending
            // MSHR.
            if (way->fillDone != 0) {
                if (way->fillDone > cycle) {
                    misses_->inc();
                    mshrMerges_->inc();
                    return std::max(way->fillDone,
                                    cycle + cfg_.hitLatency);
                }
                way->fillDone = 0;
            }
            hits_->inc();
            return cycle + cfg_.hitLatency;
        }
        return accessMiss(line, write, cycle);
    }

    /** Would this address hit right now? (no state change) */
    bool probe(uint64_t addr) const
    {
        return findWay(lineOf(addr)) != nullptr;
    }

    /**
     * Drop all lines and in-flight state (between experiments). An
     * epoch bump invalidates every way in O(1); only the MSHR array
     * (numMshrs entries) and the regulator are actually rewritten.
     */
    void
    reset()
    {
        if (++epoch_ == 0) {
            // Epoch wrapped (2^32 resets): hard-clear so stale ways
            // cannot alias the reused epoch value.
            std::fill(ways_.begin(), ways_.end(), Way{});
            epoch_ = 1;
        }
        std::fill(mshrFreeAt_.begin(), mshrFreeAt_.end(), 0);
        bw_.reset();
        useClock_ = 0;
    }

    /**
     * Become indistinguishable from a fresh `CacheT(cfg, next, stats)`
     * without rebuilding the way array (multi-megabyte for an LLC):
     * the kept storage is resized to `cfg`'s sets and the epoch bump
     * of reset() invalidates every way, kept or new (a new way has
     * epoch 0, which the cache epoch never equals). The MSHR array and
     * the bandwidth regulator take the new config, and the counter
     * rows are registered in `stats` and their handles resolved.
     *
     * Kept storage is bounded: when it exceeds twice what the larger
     * of `cfg` and this level's Figure-3 geometry needs, the excess is
     * given back, so one huge run does not pin its array for good.
     */
    void
    reshape(const CacheConfig &cfg, SimStats &stats)
    {
        NACHOS_ASSERT(cfg.lineBytes > 0 && cfg.assoc > 0,
                      "bad cache geometry");
        NACHOS_ASSERT(cfg.numMshrs > 0, "cache needs at least 1 MSHR");
        cfg_ = cfg;
        numSets_ = static_cast<uint32_t>(cfg_.sizeBytes /
                                         (cfg_.lineBytes * cfg_.assoc));
        NACHOS_ASSERT(numSets_ > 0, "cache too small for its geometry");
        const size_t ways = static_cast<size_t>(numSets_) * cfg_.assoc;
        const CacheConfig figure3 = figure3Cache(cfg_.level);
        const size_t keep = std::max<size_t>(
            ways, figure3.sizeBytes / figure3.lineBytes);
        if (ways_.capacity() > 2 * keep) {
            std::vector<Way> smaller;
            smaller.reserve(keep);
            ways_.swap(smaller);
        }
        ways_.resize(ways);
        mshrFreeAt_.resize(cfg_.numMshrs);
        bw_ = BandwidthRegulator(cfg_.ports);

        using C = SimCounter;
        const bool l1 = cfg_.level == CacheLevel::L1;
        reads_ = &stats.counter(l1 ? C::L1Reads : C::LlcReads);
        writes_ = &stats.counter(l1 ? C::L1Writes : C::LlcWrites);
        hits_ = &stats.counter(l1 ? C::L1Hits : C::LlcHits);
        misses_ = &stats.counter(l1 ? C::L1Misses : C::LlcMisses);
        writebacks_ =
            &stats.counter(l1 ? C::L1Writebacks : C::LlcWritebacks);
        mshrMerges_ =
            &stats.counter(l1 ? C::L1MshrMerges : C::LlcMshrMerges);
        mshrStalls_ =
            &stats.counter(l1 ? C::L1MshrStalls : C::LlcMshrStalls);
        reset();
    }

    /** Bytes of way storage held, in use or kept for a later reshape. */
    size_t
    wayStorageBytes() const
    {
        return ways_.capacity() * sizeof(Way);
    }

    const CacheConfig &config() const { return cfg_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        /** Data-ready cycle of an in-flight fill; 0 = none. */
        uint64_t fillDone = 0;
        /** Way is valid iff epoch == the cache's current epoch_. */
        uint32_t epoch = 0;
        bool dirty = false;
    };

    CacheConfig cfg_;
    Next &next_;
    Counter *reads_;
    Counter *writes_;
    Counter *hits_;
    Counter *misses_;
    Counter *writebacks_;
    Counter *mshrMerges_;
    Counter *mshrStalls_;
    std::vector<Way> ways_; // sets * assoc, row-major
    uint32_t numSets_ = 0;
    uint32_t epoch_ = 1;
    /** MSHR occupancy: per-entry free-at cycle. */
    std::vector<uint64_t> mshrFreeAt_;
    BandwidthRegulator bw_;
    uint64_t useClock_ = 0;

    uint64_t lineOf(uint64_t addr) const { return addr / cfg_.lineBytes; }
    uint32_t setOf(uint64_t line) const
    {
        return static_cast<uint32_t>(line % numSets_);
    }

    Way *
    findWay(uint64_t line)
    {
        Way *set = &ways_[static_cast<size_t>(setOf(line)) * cfg_.assoc];
        for (uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].epoch == epoch_ && set[w].tag == line)
                return set + w;
        }
        return nullptr;
    }

    const Way *
    findWay(uint64_t line) const
    {
        return const_cast<CacheT *>(this)->findWay(line);
    }

    Way &
    victimWay(uint64_t line)
    {
        Way *set = &ways_[static_cast<size_t>(setOf(line)) * cfg_.assoc];
        Way *victim = nullptr;
        for (uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].epoch != epoch_)
                return set[w];
            if (victim == nullptr || set[w].lastUse < victim->lastUse)
                victim = set + w;
        }
        return *victim;
    }

    void
    install(Way &way, uint64_t line, bool dirty, uint64_t fill_done)
    {
        way.tag = line;
        way.lastUse = useClock_;
        way.fillDone = fill_done;
        way.epoch = epoch_;
        way.dirty = dirty;
    }

    uint64_t accessMiss(uint64_t line, bool write, uint64_t cycle);
};

template <class Next>
uint64_t
CacheT<Next>::accessMiss(uint64_t line, bool write, uint64_t cycle)
{
    misses_->inc();

    // Allocate an MSHR: take the earliest-free entry; if none is free
    // at `cycle`, the request stalls until one is.
    auto earliest =
        std::min_element(mshrFreeAt_.begin(), mshrFreeAt_.end());
    const uint64_t issue = std::max(cycle, *earliest);
    if (*earliest > cycle)
        mshrStalls_->inc();

    const uint64_t fill_done =
        next_.access(line * cfg_.lineBytes, false,
                     issue + cfg_.hitLatency);
    *earliest = fill_done;

    // Install the line now; timing-wise it becomes usable at
    // fill_done (enforced for merging requests via the way's
    // fillDone).
    Way &victim = victimWay(line);
    if (victim.epoch == epoch_ && victim.dirty) {
        writebacks_->inc();
        // Writeback is off the critical path: issue it at fill time
        // without delaying the demand request.
        next_.access(victim.tag * cfg_.lineBytes, true, fill_done);
    }
    install(victim, line, write, fill_done);

    return fill_done;
}

/** The fixed hierarchy chain, bottom-up. */
using LlcCache = CacheT<MainMemory>;
using L1Cache = CacheT<LlcCache>;

// The two chain instantiations live in cache.cc; this keeps the miss
// path out of line at call sites in other translation units.
extern template class CacheT<MainMemory>;
extern template class CacheT<CacheT<MainMemory>>;

} // namespace nachos

#endif // NACHOS_MEM_CACHE_HH
