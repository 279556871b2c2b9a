#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/pooled_run.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "support/alloc_hook.hh"
#include "testing/region_gen.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

constexpr BackendKind kBackends[] = {BackendKind::OptLsq,
                                     BackendKind::NachosSw,
                                     BackendKind::Nachos};

/** A region with its MDEs, placement and firing plan. */
struct Planned
{
    explicit Planned(Region r, const SimConfig &cfg)
        : region(std::move(r)),
          mdes(insertMdes(region, runAliasPipeline(region).matrix)),
          placement(region),
          plan(region, placement, cfg.net)
    {}

    Region region;
    MdeSet mdes;
    Placement placement;
    SimPlan plan;
};

/** The heap buffers a result owns: its image and its commit trace. */
uint64_t
resultBuffers(const SimResult &r)
{
    return (r.memImage.empty() ? 0 : 1) +
           (r.memCommits.empty() ? 0 : 1);
}

/** One simulate() on `pool`, counting this thread's allocations. */
uint64_t
countedRun(const Planned &p, BackendKind kind, const SimConfig &cfg,
           HierarchyPool &pool, SimResult &out)
{
    const uint64_t before = threadAllocCount();
    SimResult r = simulate(p.plan, p.mdes, kind, cfg, pool);
    const uint64_t allocs = threadAllocCount() - before;
    out = std::move(r);
    return allocs;
}

std::vector<Region>
probeRegions()
{
    std::vector<Region> out;
    for (uint64_t seed = 7919; seed < 7919 + 24; ++seed)
        out.push_back(testing::generateRegion(seed));
    out.push_back(synthesizeRegion(benchmarkByName("art")));
    return out;
}

// A warm simulate() of the region and config the pool last ran
// allocates only its result buffers: the counters, hierarchy, engine
// buffers, OPT-LSQ and MDE tables all come from the pool, and the
// image and commit trace are each sized once. So invocations after the
// first allocate nothing: a warm six-invocation run allocates what a
// warm one-invocation run does.
TEST(SimAlloc, WarmSimulateAllocatesOnlyItsResult)
{
    SimConfig six;
    six.invocations = 6;
    six.recordMemTrace = true;
    SimConfig one = six;
    one.invocations = 1;
    for (const Region &r : probeRegions()) {
        const Planned p(r, six);
        for (BackendKind kind : kBackends) {
            const std::string what =
                r.name() + "/" + backendName(kind);
            HierarchyPool pool;
            SimResult result;
            countedRun(p, kind, six, pool, result);
            uint64_t allocs = countedRun(p, kind, six, pool, result);
            EXPECT_EQ(allocs, resultBuffers(result)) << what;
            allocs = countedRun(p, kind, one, pool, result);
            EXPECT_EQ(allocs, resultBuffers(result)) << what;
            allocs = countedRun(p, kind, six, pool, result);
            EXPECT_EQ(allocs, resultBuffers(result)) << what;
        }
    }
}

// The pool re-shapes its one hierarchy to each run's machine, so a
// warm run after a machine change allocates only its result too, once
// the pool has held that geometry: the L1 shrinks to 16 KiB and the
// LLC doubles to 8 MiB (the most way storage the pool keeps for a
// Figure-3 run) and back.
TEST(SimAlloc, WarmRunAfterAMachineChangeAllocatesOnlyItsResult)
{
    SimConfig figure3;
    figure3.invocations = 6;
    figure3.recordMemTrace = true;
    SimConfig other = figure3;
    other.mem.l1.sizeBytes = 16 * 1024;
    other.mem.llc.sizeBytes = 8 * 1024 * 1024;
    other.mem.dramLatency = 300;
    for (const Region &r : probeRegions()) {
        const Planned p(r, figure3);
        for (BackendKind kind : kBackends) {
            const std::string what =
                r.name() + "/" + backendName(kind);
            HierarchyPool pool;
            SimResult result;
            countedRun(p, kind, figure3, pool, result);
            countedRun(p, kind, other, pool, result);
            for (const SimConfig *cfg : {&figure3, &other, &figure3}) {
                const uint64_t allocs =
                    countedRun(p, kind, *cfg, pool, result);
                EXPECT_EQ(allocs, resultBuffers(result)) << what;
            }
        }
    }
}

// A pool keeps at most twice the way storage that the larger of its
// run and the Figure-3 machine needs: a run on a 64 MiB LLC does not
// pin its 32 MiB way array once a Figure-3 run follows.
TEST(HierarchyPool, KeptWayStorageIsBounded)
{
    HierarchyPool pool;
    const size_t figure3 =
        pool.beginRun(HierarchyConfig{}).hierarchy.wayStorageBytes();
    HierarchyConfig big;
    big.llc.sizeBytes = 64ull * 1024 * 1024;
    EXPECT_GT(pool.beginRun(big).hierarchy.wayStorageBytes(),
              2 * figure3);
    EXPECT_LE(pool.beginRun(HierarchyConfig{}).hierarchy.wayStorageBytes(),
              2 * figure3);
}

} // namespace
} // namespace nachos
