#include <gtest/gtest.h>

#include <string>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "ir/builder.hh"
#include "mde/inserter.hh"
#include "workloads/benchmark_info.hh"
#include "workloads/synthesizer.hh"

namespace nachos {
namespace {

SimResult
run(const Region &r, BackendKind kind, SimConfig cfg)
{
    AliasAnalysisResult analysis = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, analysis.matrix);
    return simulate(r, mdes, kind, cfg);
}

/** A MAY ST->LD pair that truly conflicts (exact match). */
Region
conflictingMayRegion()
{
    RegionBuilder b("rtfwd");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", a, 0); // same location, MAY
    OpId v = b.constant(0x77);
    b.store(b.atParam(p, 0), v);
    OpId ld = b.load(b.atParam(q, 0));
    b.liveOut(ld);
    return b.build();
}

TEST(NachosRuntimeForwarding, ForwardsOnConfirmedExactConflict)
{
    Region r = conflictingMayRegion();
    SimConfig cfg;
    cfg.invocations = 4;
    SimResult hw = run(r, BackendKind::Nachos, cfg);
    EXPECT_GT(hw.stats.get("nachos.runtimeForwards"), 0u);
    // The load never touched the cache.
    EXPECT_EQ(hw.stats.get("l1.reads"), 0u);

    // Values still match the LSQ's (which also forwards from the SQ).
    SimResult lsq = run(r, BackendKind::OptLsq, cfg);
    EXPECT_EQ(hw.loadValueDigest, lsq.loadValueDigest);
    EXPECT_EQ(hw.memImage, lsq.memImage);
}

/** Two MAY stores to the load's exact address. */
Region
twoConflictingParentsRegion()
{
    RegionBuilder b("multi");
    ObjectId a = b.object("A", 4096);
    ParamId p1 = b.pointerParam("p1", a, 0);
    ParamId p2 = b.pointerParam("p2", a, 0);
    ParamId q = b.pointerParam("q", a, 0);
    OpId v1 = b.constant(1);
    OpId v2 = b.constant(2);
    b.store(b.atParam(p1, 0), v1);
    b.store(b.atParam(p2, 0), v2);
    OpId ld = b.load(b.atParam(q, 0));
    b.liveOut(ld);
    return b.build();
}

TEST(NachosRuntimeForwarding, NoForwardWhenTwoParentsConflict)
{
    // Two MAY stores to the same address as the load: multi-source
    // forwarding is unsafe, so NACHOS must fall back to ordering.
    Region r = twoConflictingParentsRegion();

    SimConfig cfg;
    cfg.invocations = 3;
    SimResult hw = run(r, BackendKind::Nachos, cfg);
    EXPECT_EQ(hw.stats.get("nachos.runtimeForwards"), 0u);
    SimResult lsq = run(r, BackendKind::OptLsq, cfg);
    EXPECT_EQ(hw.loadValueDigest, lsq.loadValueDigest);
}

TEST(NachosRuntimeForwarding, NoForwardOnPartialConflict)
{
    RegionBuilder b("partial");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", a, 4); // overlapping, not exact
    OpId v = b.constant(0x1234);
    b.store(b.atParam(p, 0), v, 8);
    OpId ld = b.load(b.atParam(q, 0), 8);
    b.liveOut(ld);
    Region r = b.build();

    SimConfig cfg;
    cfg.invocations = 3;
    SimResult hw = run(r, BackendKind::Nachos, cfg);
    EXPECT_EQ(hw.stats.get("nachos.runtimeForwards"), 0u);
    SimResult lsq = run(r, BackendKind::OptLsq, cfg);
    EXPECT_EQ(hw.loadValueDigest, lsq.loadValueDigest);
    EXPECT_EQ(hw.memImage, lsq.memImage);
}

TEST(SwBackend, OrderTokensCounted)
{
    RegionBuilder b("tokens");
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(1);
    b.load(b.at(a, 0));      // 0
    b.store(b.at(a, 0), v);  // 1: LD->ST order
    Region r = b.build();

    SimConfig cfg;
    cfg.invocations = 5;
    SimResult sw = run(r, BackendKind::NachosSw, cfg);
    EXPECT_EQ(sw.stats.get("mde.orderTokens"), 5u);
}

TEST(SwBackend, MayEdgeCountsAsOrderToken)
{
    RegionBuilder b("mayorder");
    ObjectId a = b.object("A", 1 << 16);
    ObjectId c = b.object("C", 1 << 16);
    ParamId p = b.pointerParam("p", a);
    ParamId q = b.pointerParam("q", c);
    OpId v = b.constant(1);
    b.store(b.atParam(p, 0), v);
    b.load(b.atParam(q, 0));
    Region r = b.build();

    SimConfig cfg;
    cfg.invocations = 3;
    SimResult sw = run(r, BackendKind::NachosSw, cfg);
    // SW serializes the MAY pair with a 1-bit token, not a check.
    EXPECT_EQ(sw.stats.get("mde.orderTokens"), 3u);
    EXPECT_EQ(sw.stats.get("mde.mayChecks"), 0u);

    SimResult hw = run(r, BackendKind::Nachos, cfg);
    EXPECT_EQ(hw.stats.get("mde.mayChecks"), 3u);
    EXPECT_EQ(hw.stats.get("mde.orderTokens"), 0u);
}

TEST(LsqBackend, ParkedLoadWaitsForStoreData)
{
    // The store's data is behind a long FP chain; a same-address load
    // must receive exactly that value via SQ forwarding.
    RegionBuilder b("parked");
    ObjectId a = b.object("A", 4096);
    OpId x = b.constant(3);
    OpId y = b.constant(5);
    OpId slow = b.fdiv(x, y); // 12-cycle FU
    OpId slow2 = b.fdiv(slow, x);
    b.store(b.at(a, 0), slow2);
    OpId ld = b.load(b.at(a, 0));
    b.liveOut(ld);
    Region r = b.build();

    SimConfig cfg;
    cfg.invocations = 2;
    SimResult lsq = run(r, BackendKind::OptLsq, cfg);
    EXPECT_GT(lsq.stats.get("lsq.forwards"), 0u);
    SimResult sw = run(r, BackendKind::NachosSw, cfg);
    EXPECT_EQ(lsq.loadValueDigest, sw.loadValueDigest);
}

TEST(LsqBackend, CommitWaiterReadsStoreValue)
{
    // Partial overlap: the load must wait for the store commit and
    // read merged bytes from memory.
    RegionBuilder b("commitwait");
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(0x0102030405060708LL);
    b.store(b.at(a, 0), v, 8);
    OpId ld = b.load(b.at(a, 4), 8);
    b.liveOut(ld);
    Region r = b.build();

    SimConfig cfg;
    cfg.invocations = 2;
    SimResult lsq = run(r, BackendKind::OptLsq, cfg);
    SimResult sw = run(r, BackendKind::NachosSw, cfg);
    SimResult hw = run(r, BackendKind::Nachos, cfg);
    EXPECT_EQ(lsq.loadValueDigest, sw.loadValueDigest);
    EXPECT_EQ(sw.loadValueDigest, hw.loadValueDigest);
}

TEST(Backends, ComparatorWidthNeverChangesValues)
{
    Region r = conflictingMayRegion();
    SimConfig w1, w8;
    w1.invocations = w8.invocations = 4;
    w1.nachosComparesPerCycle = 1;
    w8.nachosComparesPerCycle = 8;
    SimResult a = run(r, BackendKind::Nachos, w1);
    SimResult b2 = run(r, BackendKind::Nachos, w8);
    EXPECT_EQ(a.loadValueDigest, b2.loadValueDigest);
    EXPECT_EQ(a.memImage, b2.memImage);
    EXPECT_LE(b2.cycles, a.cycles);
}

/** Every counter name of a run, space-separated, in dump order. */
std::string
statNames(const SimResult &r)
{
    std::string out;
    for (const auto &[name, value] : r.stats.dump())
        out += (out.empty() ? "" : " ") + name;
    return out;
}

/** "name=value" for every mde.* and nachos.* counter, in dump order. */
std::string
mdeCounters(const SimResult &r)
{
    std::string out;
    for (const auto &[name, value] : r.stats.dump()) {
        if (name.starts_with("mde.") || name.starts_with("nachos."))
            out += (out.empty() ? "" : " ") + name + "=" +
                   std::to_string(value);
    }
    return out;
}

TEST(Backends, MdeSchemesArePinned)
{
    // NACHOS-SW and NACHOS on a runtime-forward region, a two-parent
    // conflict and a high MAY fan-in workload path: timing, values,
    // energy, which counters exist and the MDE counter values. Any
    // change to either scheme's modeled behaviour shows up here.
    struct Pin
    {
        const char *region;
        BackendKind kind;
        uint64_t cycles;
        uint64_t loadValueDigest;
        double energyTotal;
        const char *mdeCounters;
        const char *statNames;
    };
    // Counter names present after a run: NACHOS adds the comparator
    // stations' counters and the runtime-forward counter.
    const char *const sw_names =
        "fu.fpOps fu.intOps l1.hits l1.misses l1.mshrMerges "
        "l1.mshrStalls l1.reads l1.writebacks l1.writes llc.hits "
        "llc.misses llc.mshrMerges llc.mshrStalls llc.reads "
        "llc.writebacks llc.writes "
        "mde.forwards mde.orderTokens "
        "net.hops net.transfers scratchpad.reads scratchpad.writes";
    const char *const nachos_names =
        "fu.fpOps fu.intOps l1.hits l1.misses l1.mshrMerges "
        "l1.mshrStalls l1.reads l1.writebacks l1.writes llc.hits "
        "llc.misses llc.mshrMerges llc.mshrStalls llc.reads "
        "llc.writebacks llc.writes "
        "mde.forwards mde.mayChecks mde.orderTokens "
        "nachos.checksClear nachos.checksConflict "
        "nachos.runtimeForwards "
        "net.hops net.transfers scratchpad.reads scratchpad.writes";
    const Pin pins[] = {
        {"rtfwd", BackendKind::NachosSw, 269, 0xdf34dadc709072bbull,
         25000, "mde.forwards=0 mde.orderTokens=4", sw_names},
        {"rtfwd", BackendKind::Nachos, 251, 0xdf34dadc709072bbull,
         19200,
         "mde.forwards=4 mde.mayChecks=4 mde.orderTokens=0 "
         "nachos.checksClear=0 nachos.checksConflict=4 "
         "nachos.runtimeForwards=4",
         nachos_names},
        {"multi", BackendKind::NachosSw, 270, 0x188c01e59cdd0137ull,
         29850, "mde.forwards=0 mde.orderTokens=9", sw_names},
        {"multi", BackendKind::Nachos, 270, 0x188c01e59cdd0137ull,
         32100,
         "mde.forwards=0 mde.mayChecks=9 mde.orderTokens=0 "
         "nachos.checksClear=0 nachos.checksConflict=9 "
         "nachos.runtimeForwards=0",
         nachos_names},
        {"401.bzip2", BackendKind::NachosSw, 3769,
         0x2aafcac49fb5a5ccull, 2821200,
         "mde.forwards=3 mde.orderTokens=420", sw_names},
        {"401.bzip2", BackendKind::Nachos, 2607, 0x2aafcac49fb5a5ccull,
         2924700,
         "mde.forwards=3 mde.mayChecks=414 mde.orderTokens=6 "
         "nachos.checksClear=414 nachos.checksConflict=0 "
         "nachos.runtimeForwards=0",
         nachos_names},
    };
    const BenchmarkInfo *bzip2 = findBenchmark("401.bzip2");
    ASSERT_NE(bzip2, nullptr);
    const Region regions[] = {conflictingMayRegion(),
                              twoConflictingParentsRegion(),
                              synthesizeRegion(*bzip2)};
    const uint64_t invocations[] = {4, 3, 3};
    for (size_t i = 0; i < std::size(pins); ++i) {
        const Pin &pin = pins[i];
        const size_t ri = i / 2; // two pins per region
        SimConfig cfg;
        cfg.invocations = invocations[ri];
        const SimResult r = run(regions[ri], pin.kind, cfg);
        SCOPED_TRACE(std::string(pin.region) + " " +
                     backendName(pin.kind));
        EXPECT_EQ(r.cycles, pin.cycles);
        EXPECT_EQ(r.loadValueDigest, pin.loadValueDigest);
        EXPECT_EQ(r.energy.total(), pin.energyTotal);
        EXPECT_EQ(mdeCounters(r), pin.mdeCounters);
        EXPECT_EQ(statNames(r), pin.statNames);
    }
}

// Comparator stations exist only for ops with MAY parents, and only
// they register the station rows: a NACHOS run of a region with no MAY
// edge lists none, even on a pool whose last run bound stations.
TEST(Backends, StationRowsOnlyWithMayEdges)
{
    RegionBuilder b("nomay");
    ObjectId a = b.object("A", 4096);
    ObjectId c = b.object("C", 4096);
    b.store(b.at(a, 0), b.constant(3));
    b.liveOut(b.load(b.at(c, 0)));
    const Region no_may = b.build();
    const Region with_may = conflictingMayRegion();
    SimConfig cfg;
    cfg.invocations = 2;
    HierarchyPool pool;
    const auto simulateOn = [&](const Region &r) {
        const MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
        return simulate(r, mdes, BackendKind::Nachos, cfg, pool);
    };
    ASSERT_EQ(
        insertMdes(no_may, runAliasPipeline(no_may).matrix).counts().may,
        0u);
    EXPECT_GT(simulateOn(with_may).stats.get("mde.mayChecks"), 0u);
    const std::string names = statNames(simulateOn(no_may));
    EXPECT_EQ(names.find("mde.mayChecks"), std::string::npos) << names;
    EXPECT_EQ(names.find("nachos.checks"), std::string::npos) << names;
    EXPECT_NE(names.find("nachos.runtimeForwards"), std::string::npos)
        << names;
}

} // namespace
} // namespace nachos
