/**
 * Synthesized-region cache: hit/miss behaviour, LRU eviction, the
 * hits + misses == lookups invariant, and — the property the serving
 * plane leans on — that a cache hit hands back a byte-identical,
 * unmutated front end no matter how many simulations ran against it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cgra/simulator.hh"
#include "harness/region_cache.hh"
#include "harness/run_json.hh"
#include "harness/runner.hh"
#include "ir/serialize.hh"
#include "support/value_hash.hh"
#include "workloads/benchmark_info.hh"

namespace nachos {
namespace {

/** FNV-1a 64 over the serialized region. */
uint64_t
regionDigest(const Region &region)
{
    return fnv1a64(regionToString(region));
}

RunRequest
request(uint64_t seed = 1, uint32_t pathIndex = 0)
{
    RunRequest req;
    req.seed = seed;
    req.pathIndex = pathIndex;
    return req;
}

TEST(RegionCache, MissThenHitSameEntry)
{
    RegionCache cache(4);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    bool hit = true;
    auto first = cache.acquire(info, request(), &hit);
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(hit);
    auto second = cache.acquire(info, request(), &hit);
    EXPECT_TRUE(hit);
    // A hit is the same immutable entry, not an equal copy.
    EXPECT_EQ(first.get(), second.get());

    const RegionCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.size, 1u);
}

TEST(RegionCache, HitMatchesFreshBuildByteForByte)
{
    RegionCache cache(4);
    const BenchmarkInfo &info = *findBenchmark("179.art");
    cache.acquire(info, request(7));
    auto cached = cache.acquire(info, request(7));
    auto fresh = RegionCache::build(info, request(7));
    EXPECT_EQ(regionToString(cached->region),
              regionToString(fresh->region));
    EXPECT_EQ(cached->mdes.size(), fresh->mdes.size());
}

TEST(RegionCache, KeyCoversSeedPathAndPipeline)
{
    RegionCache cache(16);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    cache.acquire(info, request(1));
    bool hit = true;
    cache.acquire(info, request(2), &hit); // different seed
    EXPECT_FALSE(hit);
    RunRequest stage2Off = request(1);
    stage2Off.pipeline.stage2 = false; // different pipeline flags
    cache.acquire(info, stage2Off, &hit);
    EXPECT_FALSE(hit);
    // The original key is still resident.
    cache.acquire(info, request(1), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.counters().size, 3u);
}

TEST(RegionCache, LruEvictionBeyondCapacity)
{
    RegionCache cache(2);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    cache.acquire(info, request(1));
    cache.acquire(info, request(2));
    // Touch seed 1 so seed 2 is the LRU victim.
    bool hit = false;
    cache.acquire(info, request(1), &hit);
    EXPECT_TRUE(hit);
    cache.acquire(info, request(3)); // evicts seed 2
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(cache.counters().size, 2u);
    cache.acquire(info, request(1), &hit);
    EXPECT_TRUE(hit); // survived
    cache.acquire(info, request(2), &hit);
    EXPECT_FALSE(hit); // evicted: misses again
}

TEST(RegionCache, ZeroCapacityDisablesResidency)
{
    RegionCache cache(0);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    bool hit = true;
    auto a = cache.acquire(info, request(), &hit);
    EXPECT_FALSE(hit);
    ASSERT_NE(a, nullptr);
    auto b = cache.acquire(info, request(), &hit);
    EXPECT_FALSE(hit); // nothing was stored
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.counters().size, 0u);
    EXPECT_EQ(cache.counters().misses, 2u);
}

// Satellite 3: simulating against a cached entry must not mutate it —
// a later hit serves the same bytes the first request saw.
TEST(RegionCache, SimulationDoesNotMutateCachedEntries)
{
    RegionCache cache(4);
    const BenchmarkInfo &info = *findBenchmark("179.art");
    auto entry = cache.acquire(info, request(3));
    const std::string before = regionToString(entry->region);
    const uint64_t digest = regionDigest(entry->region);

    // Simulate every backend against the cached front end, twice,
    // through the same path the daemon uses.
    HierarchyPool pool;
    for (int round = 0; round < 2; ++round) {
        RunRequest req = request(3);
        req.invocationsOverride = 2;
        bool hit = false;
        const auto served = cache.acquire(info, req, &hit);
        EXPECT_TRUE(hit);
        simulateRequest(info, req, *served, pool);
        EXPECT_EQ(regionDigest(entry->region), digest) << round;
    }
    EXPECT_EQ(regionToString(entry->region), before);
    bool hit = false;
    auto again = cache.acquire(info, request(3), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(regionToString(again->region), before);
}

// Satellite 2: the cache key is machine-independent by design — the
// synthesized front end (region, analysis, MDEs) doesn't depend on
// cache sizes or LSQ geometry — so two requests that differ only in
// machine overrides share one entry, and the *timing* divergence
// happens downstream in simulate().
TEST(RegionCache, MachineOverridesShareOneEntry)
{
    RegionCache cache(4);
    const BenchmarkInfo &info = *findBenchmark("179.art");

    RunRequest stock = request(3);
    RunRequest tiny = request(3);
    tiny.machine.l1SizeBytes = 16 * 1024;
    tiny.machine.dramLatency = 1000;

    bool hit = true;
    auto first = cache.acquire(info, stock, &hit);
    EXPECT_FALSE(hit);
    auto second = cache.acquire(info, tiny, &hit);
    EXPECT_TRUE(hit); // machine fields must not reach the key
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.counters().size, 1u);

    // Same entry, different machines: simulation results diverge in
    // timing but agree functionally.
    SimConfig stockSim;
    stockSim.invocations = 3;
    SimConfig tinySim = stockSim;
    tiny.machine.applyTo(tinySim);
    const uint64_t digest = regionDigest(first->region);
    const SimResult a = simulate(first->region, first->mdes,
                                 BackendKind::Nachos, stockSim);
    const SimResult b = simulate(second->region, second->mdes,
                                 BackendKind::Nachos, tinySim);
    EXPECT_NE(a.cycles, b.cycles);
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest);
    EXPECT_EQ(regionDigest(first->region), digest);
}

/** The daemon-visible bytes of a run served from `cache`. */
std::string
servedOutcomeJson(RegionCache &cache, HierarchyPool &pool,
                  const BenchmarkInfo &info, const RunRequest &req,
                  bool &hit)
{
    const auto entry = cache.acquire(info, req, &hit);
    const BackendResults sims = simulateRequest(info, req, *entry, pool);
    return dumpJson(
        encodeOutcome(summarizeOutcome(info, req, *entry, sims)));
}

TEST(RegionCache, CacheHitRunMatchesCacheMissRun)
{
    const BenchmarkInfo &info = *findBenchmark("179.art");
    RegionCache cache(4);
    HierarchyPool pool;
    RunRequest req = request(5);
    req.runLsq = false;
    req.invocationsOverride = 2;
    bool missHit = true;
    bool hitHit = false;
    const std::string miss =
        servedOutcomeJson(cache, pool, info, req, missHit);
    const std::string hit = servedOutcomeJson(cache, pool, info, req, hitHit);
    EXPECT_FALSE(missHit);
    EXPECT_TRUE(hitHit);
    EXPECT_EQ(hit, miss);
    // Both equal the direct, uncached path.
    EXPECT_EQ(miss, dumpJson(encodeOutcome(summarizeOutcome(
                        info, req, runWorkload(info, req)))));
}

// The cached front end carries the region's placement on the
// Figure-3 grid, exactly the one a fresh Placement computes.
TEST(RegionCache, EntryPlacementMatchesFreshPlacement)
{
    for (const char *name : {"179.art", "183.equake"}) {
        const auto entry = RegionCache::build(*findBenchmark(name), request(2));
        const Placement fresh(entry->region);
        const Placement &cached = entry->placement;
        ASSERT_EQ(cached.numOps(), entry->region.numOps()) << name;
        EXPECT_EQ(cached.depth(), fresh.depth()) << name;
        for (OpId op = 0; op < entry->region.numOps(); ++op) {
            EXPECT_EQ(cached.coordOf(op), fresh.coordOf(op))
                << name << " op " << op;
            EXPECT_EQ(cached.levelOf(op), fresh.levelOf(op))
                << name << " op " << op;
        }
    }
}

void
expectSameSim(const SimResult &a, const SimResult &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.stats.dump(), b.stats.dump()) << what;
    EXPECT_EQ(a.energy.total(), b.energy.total()) << what;
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest) << what;
    EXPECT_EQ(a.memImage, b.memImage) << what;
}

// A hit simulates on the entry's placement under the request's own
// machine, including an operand-network override (a new network over
// the cached placement): every backend matches a fresh runWorkload.
TEST(RegionCache, CachedPlacementRunsMatchFreshRuns)
{
    const BenchmarkInfo &info = *findBenchmark("179.art");
    RegionCache cache(4);
    HierarchyPool pool;
    RunRequest stock = request(4);
    stock.invocationsOverride = 3;
    cache.acquire(info, stock);
    RunRequest tuned = stock;
    tuned.machine.lsqBanks = 2;
    tuned.machine.l1SizeBytes = 16384;
    tuned.machine.netHopsPerCycle = 2;
    for (const RunRequest &req : {stock, tuned}) {
        bool hit = false;
        const auto entry = cache.acquire(info, req, &hit);
        ASSERT_TRUE(hit);
        const BackendResults sims = simulateRequest(info, req, *entry, pool);
        const RunOutcome fresh = runWorkload(info, req);
        ASSERT_TRUE(sims.lsq && sims.sw && sims.nachos);
        expectSameSim(*sims.lsq, *fresh.lsq, "lsq");
        expectSameSim(*sims.sw, *fresh.sw, "sw");
        expectSameSim(*sims.nachos, *fresh.nachos, "nachos");
    }
    // The network override reached the simulation.
    const auto entry = cache.acquire(info, stock);
    EXPECT_NE(simulateRequest(info, stock, *entry, pool).sw->cycles,
              simulateRequest(info, tuned, *entry, pool).sw->cycles);
}

// Every job on one cached entry plans on that entry's placement, not
// on a copy: placement happens once per front end.
TEST(RegionCache, JobsBorrowTheEntryPlacement)
{
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RegionCache cache(4);
    RunRequest slowNet = request(3);
    slowNet.machine.netHopsPerCycle = 1;
    const auto first = cache.acquire(info, request(3));
    const auto second = cache.acquire(info, slowNet);
    ASSERT_EQ(first.get(), second.get());
    for (const RunRequest &req : {request(3), slowNet}) {
        SimConfig sim;
        req.machine.applyTo(sim);
        const SimPlan plan(second->region, second->placement, sim.net);
        EXPECT_EQ(&plan.placement(), &first->placement);
        EXPECT_EQ(plan.network().config(), sim.net);
    }
}

TEST(RegionCache, HitsPlusMissesEqualsLookups)
{
    RegionCache cache(2);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    uint64_t lookups = 0;
    for (const uint64_t seed : {1u, 2u, 3u, 1u, 3u, 2u, 2u, 1u}) {
        cache.acquire(info, request(seed));
        ++lookups;
    }
    const RegionCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses, lookups);
    EXPECT_LE(c.size, 2u);
}

TEST(RegionCache, ConcurrentAcquiresAgree)
{
    RegionCache cache(8);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    constexpr int kThreads = 4;
    std::vector<std::string> serialized(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Everyone wants the same two keys; racing builders must
            // converge on consistent bytes.
            auto a = cache.acquire(info, request(1));
            auto b = cache.acquire(info, request(2));
            serialized[static_cast<size_t>(t)] =
                regionToString(a->region) + regionToString(b->region);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(serialized[static_cast<size_t>(t)], serialized[0]);
    const RegionCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses,
              static_cast<uint64_t>(2 * kThreads));
    EXPECT_EQ(c.size, 2u);
}

// Entries a `retain` acquire used are evicted only after every other
// entry, so a stream of one-off keys (a sweep's regions) cannot flush
// them; at most half the capacity is retained, the least recently
// used mark going first.
TEST(RegionCache, RetainedEntriesAreEvictedLast)
{
    RegionCache cache(4);
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    const auto acquire = [&](uint64_t seed, bool retain) {
        bool hit = false;
        cache.acquire(info, request(seed), &hit, nullptr, retain);
        return hit;
    };
    acquire(1, true);  // retained when built
    acquire(2, false);
    EXPECT_TRUE(acquire(2, true)); // retained by a later hit
    for (uint64_t seed = 10; seed < 20; ++seed)
        EXPECT_FALSE(acquire(seed, false));
    EXPECT_TRUE(acquire(1, false));
    EXPECT_TRUE(acquire(2, false));
    EXPECT_EQ(cache.counters().size, 4u);

    // A third retained entry takes the mark of the least recently used
    // one (seed 1), which then goes first.
    EXPECT_FALSE(acquire(3, true));
    EXPECT_FALSE(acquire(30, false));
    EXPECT_FALSE(acquire(31, false));
    EXPECT_FALSE(acquire(1, false));
    EXPECT_TRUE(acquire(2, false));
    EXPECT_TRUE(acquire(3, false));
}

// Threads that acquire one key at once share one build: the others
// wait for it and count hits, so misses count builds. onBuilt runs
// once per build, after building() stops reporting the key.
TEST(RegionCache, ConcurrentAcquiresBuildEachKeyOnce)
{
    const BenchmarkInfo &info = *findBenchmark("183.equake");
    RegionCache *self = nullptr;
    std::atomic<int> builds{0};
    std::atomic<int> stillBuilding{0};
    RegionCache cache(8, [&] {
        ++builds;
        if (self->building(info, request(1)))
            ++stillBuilding;
    });
    self = &cache;
    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const FrontEnd>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready < kThreads) {
            }
            got[static_cast<size_t>(t)] = cache.acquire(info, request(1));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<size_t>(t)], got[0]);
    const RegionCache::Counters c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(stillBuilding, 0);
    EXPECT_FALSE(cache.building(info, request(1)));
}

} // namespace
} // namespace nachos
