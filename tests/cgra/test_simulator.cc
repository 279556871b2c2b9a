#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/mde_backend.hh"
#include "cgra/simulator.hh"
#include "harness/machine_config.hh"
#include "ir/builder.hh"
#include "ir/serialize.hh"
#include "mde/inserter.hh"
#include "support/json.hh"
#include "testing/diff_fuzzer.hh"
#include "testing/region_gen.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

SimConfig
smallConfig(uint64_t invocations = 4)
{
    SimConfig cfg;
    cfg.invocations = invocations;
    return cfg;
}

SimResult
runRegion(const Region &r, BackendKind kind, uint64_t invocations = 4)
{
    AliasAnalysisResult analysis = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, analysis.matrix);
    return simulate(r, mdes, kind, smallConfig(invocations));
}

Region
computeOnlyRegion()
{
    RegionBuilder b("compute");
    OpId x = b.liveIn();
    OpId y = b.liveIn();
    OpId s = b.iadd(x, y);
    OpId t = b.imul(s, x);
    b.liveOut(t);
    return b.build();
}

TEST(Simulator, ComputeOnlyRunsUnderEveryBackend)
{
    Region r = computeOnlyRegion();
    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        SimResult res = runRegion(r, kind);
        EXPECT_GT(res.cycles, 0u) << backendName(kind);
        EXPECT_EQ(res.stats.get("fu.intOps"), 2u * 4) // 2 ops x 4 inv
            << backendName(kind);
        EXPECT_EQ(res.maxMlp, 0u);
    }
}

/** Field-by-field equality of two runs' observable results. */
void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.stats.dump(), b.stats.dump()) << what;
    EXPECT_EQ(a.energy.compute, b.energy.compute) << what;
    EXPECT_EQ(a.energy.mde, b.energy.mde) << what;
    EXPECT_EQ(a.energy.lsqBloom, b.energy.lsqBloom) << what;
    EXPECT_EQ(a.energy.lsqCam, b.energy.lsqCam) << what;
    EXPECT_EQ(a.energy.l1, b.energy.l1) << what;
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest) << what;
    EXPECT_EQ(a.maxMlp, b.maxMlp) << what;
    EXPECT_EQ(a.avgMlp, b.avgMlp) << what;
    EXPECT_EQ(a.criticalOp, b.criticalOp) << what;
    EXPECT_EQ(a.planEventsDispatched, b.planEventsDispatched) << what;
    EXPECT_EQ(a.memImage, b.memImage) << what;
    ASSERT_EQ(a.memCommits.size(), b.memCommits.size()) << what;
    for (size_t i = 0; i < a.memCommits.size(); ++i) {
        const MemCommit &x = a.memCommits[i];
        const MemCommit &y = b.memCommits[i];
        EXPECT_TRUE(x.op == y.op && x.invocation == y.invocation &&
                    x.cycle == y.cycle && x.addr == y.addr &&
                    x.forwarded == y.forwarded)
            << what << " commit " << i;
    }
}

// A pooled simulate() reuses the whole run — counters, hierarchy,
// engine buffers, OPT-LSQ, MDE tables and stations — across regions,
// backends and machine changes; every run must be observably
// identical to a run on a fresh pool. One pool runs a suite region, a
// fuzz region, then the suite region again, under every backend, while
// the L1 size, the LSQ bank count (8 -> 1 -> 8) and the comparator
// width (1 -> 2) change between runs, and then every machine field
// that shapes the memory hierarchy walks from its default to twice it,
// half of it and twice it again (grow, shrink, grow), so the pool
// re-shapes its one hierarchy in both directions.
TEST(Simulator, PooledSimulateMatchesFresh)
{
    struct Subject
    {
        std::string name;
        Region region;
    };
    std::vector<Subject> subjects;
    subjects.push_back({"art", synthesizeRegion(benchmarkByName("art"))});
    subjects.push_back({"fuzz7919", testing::generateRegion(7919)});
    subjects.push_back({"art", synthesizeRegion(benchmarkByName("art"))});

    struct Machine
    {
        std::string label;
        SimConfig cfg;
    };
    std::vector<Machine> machines;
    const auto add = [&](const std::string &label, uint64_t l1Bytes,
                         uint32_t banks, uint32_t compares) {
        SimConfig cfg = smallConfig(3);
        cfg.recordMemTrace = true;
        cfg.mem.l1.sizeBytes = l1Bytes;
        cfg.lsq.banks = banks;
        cfg.nachosComparesPerCycle = compares;
        machines.push_back({label, cfg});
    };
    add("l1=64k/banks=8/compares=1", 64 * 1024, 8, 1);
    add("l1=16k/banks=1/compares=2", 16 * 1024, 1, 2);
    add("l1=64k/banks=8/compares=2", 64 * 1024, 8, 2);
    std::vector<std::string> walked;
    for (const MachineField &field : machineFields()) {
        const uint64_t d = field.defaultValue();
        SimConfig probe = smallConfig(3);
        field.sim.set(probe, 2 * d);
        if (probe.mem == SimConfig{}.mem)
            continue; // not a hierarchy field
        walked.push_back(field.name);
        for (const uint64_t v : {2 * d, d / 2, 2 * d}) {
            SimConfig cfg = smallConfig(3);
            cfg.recordMemTrace = true;
            field.sim.set(cfg, v);
            machines.push_back(
                {std::string(field.name) + "=" + std::to_string(v), cfg});
        }
    }
    EXPECT_EQ(walked, (std::vector<std::string>{
                          "l1SizeBytes", "l1Assoc", "l1LineBytes",
                          "l1Ports", "llcSizeBytes", "dramLatency",
                          "dramRequestsPerCycle"}));

    HierarchyPool pool;
    for (const Subject &subject : subjects) {
        const Region &r = subject.region;
        const AliasAnalysisResult analysis = runAliasPipeline(r);
        const MdeSet mdes = insertMdes(r, analysis.matrix);
        for (const Machine &m : machines) {
            for (BackendKind kind :
                 {BackendKind::OptLsq, BackendKind::NachosSw,
                  BackendKind::Nachos}) {
                const SimResult fresh = simulate(r, mdes, kind, m.cfg);
                const SimResult pooled =
                    simulate(r, mdes, kind, m.cfg, pool);
                expectSameResult(pooled, fresh,
                                 subject.name + "/" +
                                     backendName(kind) + "/" + m.label);
            }
        }
    }
}

// A machine field a row declares for one backend (MachineField::onlyFor)
// must leave every other backend's run unchanged, field by field: a
// sweep fills those backends' points from one result (projectFor), so
// a row that claims a backend ignores it when it does not would reuse
// a wrong result. The declaring backend must see the field on one of
// the subjects, or the comparison proves nothing: gzip, MAY-heavy
// equake, and art, where the comparator width moves NACHOS (it moves
// nothing on gzip or equake).
TEST(Simulator, ProjectedMachineFieldsAreIgnored)
{
    struct Subject
    {
        std::string name;
        Region region;
        MdeSet mdes;
    };
    std::vector<Subject> subjects;
    for (const char *name : {"gzip", "equake", "art"}) {
        Region r = synthesizeRegion(benchmarkByName(name));
        MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
        subjects.push_back({name, std::move(r), std::move(mdes)});
    }
    const std::vector<BackendKind> kinds = {
        BackendKind::OptLsq, BackendKind::NachosSw, BackendKind::Nachos};

    std::vector<std::string> projected;
    HierarchyPool pool;
    for (const MachineField &field : machineFields()) {
        if (!field.onlyFor)
            continue;
        projected.push_back(field.name);
        const uint64_t d = field.defaultValue();
        bool declarerSees = false;
        for (const uint64_t v : {uint64_t{1}, 2 * d}) {
            if (v == d)
                continue;
            ASSERT_EQ(field.reject(v), "") << field.name << "=" << v;
            for (const Subject &s : subjects) {
                for (const BackendKind kind : kinds) {
                    SimConfig base = smallConfig(8);
                    base.recordMemTrace = true;
                    SimConfig moved = base;
                    field.sim.set(moved, v);
                    const SimResult at = simulate(s.region, s.mdes, kind,
                                                  base, pool);
                    const SimResult off = simulate(s.region, s.mdes, kind,
                                                   moved, pool);
                    const std::string what =
                        s.name + "/" + backendName(kind) + "/" +
                        field.name + "=" + std::to_string(v);
                    if (kind != *field.onlyFor) {
                        expectSameResult(at, off, what);
                        MachineOverrides m;
                        field.slot.set(m, v);
                        EXPECT_TRUE(projectFor(m, kind) == MachineOverrides{})
                            << what;
                    } else if (at.cycles != off.cycles ||
                               at.stats.dump() != off.stats.dump()) {
                        declarerSees = true;
                    }
                }
            }
        }
        EXPECT_TRUE(declarerSees)
            << field.name << " changes nothing for "
            << backendName(*field.onlyFor) << " on any subject";
    }
    EXPECT_EQ(projected,
              (std::vector<std::string>{"lsqBanks", "lsqPortsPerBank",
                                        "nachosComparesPerCycle"}));

    // The projection keeps what the backend reads, unless it is the
    // default.
    MachineOverrides m;
    m.lsqBanks = 8;
    m.l1SizeBytes = 16384;
    m.dramLatency = static_cast<uint32_t>(
        findMachineField("dramLatency")->defaultValue());
    MachineOverrides lsqSees;
    lsqSees.lsqBanks = 8;
    lsqSees.l1SizeBytes = 16384;
    EXPECT_TRUE(projectFor(m, BackendKind::OptLsq) == lsqSees);
    MachineOverrides nachosSees;
    nachosSees.l1SizeBytes = 16384;
    EXPECT_TRUE(projectFor(m, BackendKind::Nachos) == nachosSees);
}

// NACHOS on an MDE set with no MAY edge is NACHOS-SW's machine, so
// simulateRequest derives that NACHOS result from the NACHOS-SW one
// (nachosResultFromSw). Every such set of the suite (paths 0-4 at
// synthesis seeds 7920 and 1) and of generated regions 1-2000, under
// three machines, must give a simulated NACHOS run equal to the
// derived one on every member but planEventsDispatched, which counts
// the host engine's work and reads 0 when derived.
TEST(Simulator, NachosWithoutMayEdgesIsDerivedFromNachosSw)
{
    struct Machine
    {
        const char *label;
        MachineOverrides overrides;
        uint64_t invocations; ///< 0 = the region's own count
    };
    MachineOverrides smallL1;
    smallL1.l1SizeBytes = 16 * 1024;
    smallL1.nachosComparesPerCycle = 4;
    const std::vector<Machine> machines = {
        {"default", {}, 0}, {"l1=16K,cmp=4", smallL1, 0}, {"inv=7", {}, 7}};

    HierarchyPool pool;
    size_t suiteCases = 0;
    size_t generatedCases = 0;
    const auto check = [&](const Region &r, uint64_t invocations,
                           const std::string &name, size_t &cases) {
        const MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
        if (!nachosRunsAsNachosSw(mdes))
            return;
        const Placement placement(r);
        for (const Machine &machine : machines) {
            SimConfig cfg;
            cfg.invocations =
                machine.invocations ? machine.invocations : invocations;
            cfg.recordMemTrace = true;
            machine.overrides.applyTo(cfg);
            const SimPlan plan(r, placement, cfg.net);
            const SimResult sw =
                simulate(plan, mdes, BackendKind::NachosSw, cfg, pool);
            const SimResult nachos =
                simulate(plan, mdes, BackendKind::Nachos, cfg, pool);
            SimResult derived = nachosResultFromSw(sw);
            const std::string what = name + "/" + machine.label;
            EXPECT_EQ(derived.planEventsDispatched, 0u) << what;
            derived.planEventsDispatched = nachos.planEventsDispatched;
            expectSameResult(nachos, derived, what);
            ++cases;
        }
    };

    for (const uint64_t seed : {7920, 1}) {
        for (const SuiteRegion &s : buildFullSuite(seed)) {
            check(s.region, s.info->invocations,
                  s.info->name + "/path" + std::to_string(s.pathIndex) +
                      "/seed" + std::to_string(seed),
                  suiteCases);
            if (HasFailure())
                return;
        }
    }
    const uint64_t fuzzInvocations = testing::FuzzOptions{}.invocations;
    for (uint64_t seed = 1; seed <= 2000; ++seed) {
        check(testing::generateRegion(seed), fuzzInvocations,
              "generated" + std::to_string(seed), generatedCases);
        if (HasFailure())
            return;
    }
    // A set without a MAY edge counts once per machine: 549 suite and
    // 960 generated cases when this was written.
    EXPECT_GT(suiteCases, 300u);
    EXPECT_GT(generatedCases, 600u);
}

// Every counter-table row is registered by some backend on the suite's
// first paths: a row nothing registers is dead and should go.
TEST(Simulator, EveryCounterRowIsRegisteredOnTheSuite)
{
    std::set<SimCounter> seen;
    for (const SuiteRegion &s : buildSuitePaths(0)) {
        const AliasAnalysisResult analysis = runAliasPipeline(s.region);
        const MdeSet mdes = insertMdes(s.region, analysis.matrix);
        for (BackendKind kind : {BackendKind::OptLsq,
                                 BackendKind::NachosSw,
                                 BackendKind::Nachos}) {
            const SimResult r =
                simulate(s.region, mdes, kind, smallConfig(1));
            for (const SimCounterRow &row : kSimCounterRows) {
                if (r.stats.registered(row.id))
                    seen.insert(row.id);
            }
        }
        if (seen.size() == kNumSimCounters)
            break;
    }
    for (const SimCounterRow &row : kSimCounterRows)
        EXPECT_TRUE(seen.count(row.id)) << row.name;
}

// One Placement and one SimPlan shared across the fuzzer's six backend
// runs (OPT-LSQ at 1/2/4/8 banks, NACHOS-SW, NACHOS) must give exactly
// the results of placing the region and building a plan per run.
TEST(Simulator, SharedPlanMatchesPerRunPlans)
{
    HierarchyPool pool;
    SimConfig cfg = smallConfig(6);
    cfg.recordMemTrace = true;
    const auto check = [&](const Region &r, const std::string &name) {
        const AliasAnalysisResult analysis = runAliasPipeline(r);
        const MdeSet mdes = insertMdes(r, analysis.matrix);
        const Placement placement(r);
        const SimPlan plan(r, placement, cfg.net);
        const auto both = [&](BackendKind kind, const SimConfig &c,
                              const std::string &label) {
            const SimResult shared = simulate(plan, mdes, kind, c, pool);
            const SimResult own = simulate(r, mdes, kind, c, pool);
            expectSameResult(shared, own, name + "/" + label);
        };
        for (uint32_t banks : {1u, 2u, 4u, 8u}) {
            SimConfig lsq = cfg;
            lsq.lsq.banks = banks;
            both(BackendKind::OptLsq, lsq,
                 "lsq" + std::to_string(banks));
        }
        both(BackendKind::NachosSw, cfg, "sw");
        both(BackendKind::Nachos, cfg, "nachos");
    };
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        check(testing::generateRegion(seed, testing::RegionGenOptions{}),
              "seed" + std::to_string(seed));
    }
    check(synthesizeRegion(benchmarkByName("art")), "art");
}

TEST(Simulator, DeterministicAcrossRuns)
{
    Region r = computeOnlyRegion();
    SimResult a = runRegion(r, BackendKind::Nachos);
    SimResult b = runRegion(r, BackendKind::Nachos);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.loadValueDigest, b.loadValueDigest);
}

TEST(Simulator, IndependentLoadsOverlapInTime)
{
    RegionBuilder b("mlp");
    ObjectId o1 = b.object("A", 1 << 16);
    ObjectId o2 = b.object("B", 1 << 16);
    ObjectId o3 = b.object("C", 1 << 16);
    b.load(b.at(o1, 0));
    b.load(b.at(o2, 0));
    b.load(b.at(o3, 0));
    Region r = b.build();

    SimResult res = runRegion(r, BackendKind::Nachos, 2);
    EXPECT_GE(res.maxMlp, 3u);
}

TEST(Simulator, StLdForwardingElidesCacheRead)
{
    RegionBuilder b("fwd");
    ObjectId a = b.object("A", 4096);
    OpId v = b.liveIn();
    b.store(b.at(a, 0), v);
    OpId ld = b.load(b.at(a, 0));
    b.liveOut(ld);
    Region r = b.build();

    SimResult sw = runRegion(r, BackendKind::NachosSw, 4);
    // 4 invocations: 4 store writes, zero load reads (forwarded).
    EXPECT_EQ(sw.stats.get("l1.writes"), 4u);
    EXPECT_EQ(sw.stats.get("l1.reads"), 0u);
    EXPECT_EQ(sw.stats.get("mde.forwards"), 4u);
}

TEST(Simulator, ForwardedValueMatchesStoredValue)
{
    RegionBuilder b("fwdval");
    ObjectId a = b.object("A", 4096);
    OpId v = b.constant(0x5a5a);
    b.store(b.at(a, 0), v);
    OpId ld = b.load(b.at(a, 0));
    b.liveOut(ld);
    Region r = b.build();

    // Under the LSQ the load forwards from the SQ; under SW/NACHOS it
    // forwards over the F edge; all must read 0x5a5a.
    SimResult lsq = runRegion(r, BackendKind::OptLsq, 2);
    SimResult sw = runRegion(r, BackendKind::NachosSw, 2);
    SimResult hw = runRegion(r, BackendKind::Nachos, 2);
    EXPECT_EQ(lsq.loadValueDigest, sw.loadValueDigest);
    EXPECT_EQ(sw.loadValueDigest, hw.loadValueDigest);
}

TEST(Simulator, OrderEdgeSerializesConflictingStores)
{
    RegionBuilder b("stst");
    ObjectId a = b.object("A", 4096);
    OpId v1 = b.constant(1);
    OpId v2 = b.constant(2);
    b.store(b.at(a, 0), v1);
    b.store(b.at(a, 0), v2);
    Region r = b.build();

    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        SimResult res = runRegion(r, kind, 1);
        // Final value must be the younger store's.
        FunctionalMemory check;
        for (auto [addr, byte] : res.memImage)
            check.write(addr, 1, byte);
        EXPECT_EQ(check.read(r.object(a).baseAddr, 8), 2)
            << backendName(kind);
    }
}

TEST(Simulator, MayConflictOrderedByNachosHardware)
{
    // Two params that actually point to the same object location:
    // the compiler says MAY; NACHOS's comparator finds the conflict
    // and orders the pair.
    RegionBuilder b("mayconflict");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", a, 0);
    OpId v = b.constant(7);
    b.store(b.atParam(p, 0), v);
    OpId ld = b.load(b.atParam(q, 0));
    b.liveOut(ld);
    Region r = b.build();

    SimResult hw = runRegion(r, BackendKind::Nachos, 2);
    EXPECT_GT(hw.stats.get("nachos.checksConflict"), 0u);

    SimResult lsq = runRegion(r, BackendKind::OptLsq, 2);
    EXPECT_EQ(hw.loadValueDigest, lsq.loadValueDigest);
}

TEST(Simulator, MayNoConflictRunsParallelUnderNachos)
{
    // Params to distinct objects without provenance: MAY at compile
    // time, disjoint at run time. NACHOS clears the check; SW
    // serializes.
    RegionBuilder b("maypar");
    ObjectId a = b.object("A", 1 << 16);
    ObjectId c = b.object("C", 1 << 16);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", c, 0);
    OpId v = b.constant(7);
    b.store(b.atParam(p, 0), v);
    OpId ld = b.load(b.atParam(q, 0));
    b.liveOut(ld);
    Region r = b.build();

    SimResult hw = runRegion(r, BackendKind::Nachos, 4);
    SimResult sw = runRegion(r, BackendKind::NachosSw, 4);
    EXPECT_GT(hw.stats.get("nachos.checksClear"), 0u);
    EXPECT_LT(hw.cycles, sw.cycles); // parallelism recovered
    EXPECT_EQ(hw.loadValueDigest, sw.loadValueDigest);
}

TEST(Simulator, LsqAddsLoadToUseLatencyOnHits)
{
    // Independent hot loads: all schemes hit in the cache, but the LSQ
    // pays allocate+search on the load path.
    RegionBuilder b("loaduse");
    ObjectId a = b.object("A", 4096);
    OpId l0 = b.load(b.at(a, 0));
    OpId l1 = b.load(b.at(a, 8));
    OpId s = b.iadd(l0, l1);
    b.liveOut(s);
    Region r = b.build();

    SimResult lsq = runRegion(r, BackendKind::OptLsq, 50);
    SimResult sw = runRegion(r, BackendKind::NachosSw, 50);
    SimResult hw = runRegion(r, BackendKind::Nachos, 50);
    EXPECT_LT(sw.cycles, lsq.cycles);
    EXPECT_LT(hw.cycles, lsq.cycles);
}

TEST(Simulator, ScratchpadOpsBypassOrdering)
{
    RegionBuilder b("scratch");
    ObjectId loc = b.localObject("L", 512);
    OpId v = b.constant(3);
    b.scratchStore(loc, 0, v);
    OpId ld = b.scratchLoad(loc, 64);
    b.liveOut(ld);
    Region r = b.build();

    SimResult res = runRegion(r, BackendKind::OptLsq, 2);
    EXPECT_EQ(res.stats.get("scratchpad.writes"), 2u);
    EXPECT_EQ(res.stats.get("lsq.allocs"), 0u);
    EXPECT_EQ(res.stats.get("l1.reads"), 0u);
}

TEST(Simulator, EnergyCountersPopulated)
{
    RegionBuilder b("energy");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 512);
    OpId v = b.liveIn();
    OpId w = b.fmul(v, v);
    b.store(b.at(a, 0), w);
    b.load(b.atParam(p, 0));
    Region r = b.build();

    SimResult lsq = runRegion(r, BackendKind::OptLsq, 3);
    EXPECT_GT(lsq.stats.get("lsq.bloomProbes"), 0u);
    EXPECT_GT(lsq.stats.get("fu.fpOps"), 0u);
    EXPECT_GT(lsq.stats.get("net.transfers"), 0u);
    EXPECT_GT(lsq.energy.lsqBloom, 0.0);
    EXPECT_GT(lsq.energy.compute, 0.0);
    EXPECT_GT(lsq.energy.l1, 0.0);
    EXPECT_EQ(lsq.energy.mde, 0.0);

    SimResult hw = runRegion(r, BackendKind::Nachos, 3);
    EXPECT_GT(hw.stats.get("mde.mayChecks"), 0u);
    EXPECT_GT(hw.energy.mde, 0.0);
    EXPECT_EQ(hw.stats.get("lsq.bloomProbes"), 0u);
}

TEST(Simulator, InvocationsAccumulateCycles)
{
    Region r = computeOnlyRegion();
    SimResult one = runRegion(r, BackendKind::Nachos, 1);
    SimResult four = runRegion(r, BackendKind::Nachos, 4);
    EXPECT_GT(four.cycles, one.cycles);
    EXPECT_NEAR(four.cyclesPerInvocation, one.cyclesPerInvocation,
                one.cyclesPerInvocation * 0.5 + 2);
}

/**
 * A static Select -> LiveOut chain feeding a store's data and a load's
 * address, an FP chain that runs past the memory phase, and a pure op
 * mixing a load with a static value.
 */
Region
staticChainRegion()
{
    RegionBuilder b("static-chain");
    ObjectId a = b.object("A", 4096);
    OpId x = b.liveIn();
    OpId y = b.liveIn();
    OpId c = b.constant(3);
    OpId lt = b.binary(OpKind::ICmp, x, y);
    OpId s = b.select(lt, x, c);
    b.liveOut(s);
    b.store(b.at(a, 0), s);
    OpId ld = b.load(b.at(a, 0), 8, {s});
    b.liveOut(b.fdiv(b.fmul(x, c), c));
    b.liveOut(b.iadd(ld, s));
    return b.build();
}

std::string
statDump(const SimResult &r)
{
    std::string out;
    for (const auto &[name, value] : r.stats.dump())
        out += (out.empty() ? "" : " ") + name + "=" +
               std::to_string(value);
    return out;
}

// Timing, values, energy, counters and the engine's own event counts
// of all three backends on a suite path, a hand-built static chain and
// a corpus reproducer. Pinned so that any change to how the engine
// fires pure ops shows up as a changed number.
TEST(Simulator, FiringIsPinned)
{
    struct Pin
    {
        BackendKind kind;
        uint64_t cycles;
        OpId criticalOp;
        uint64_t loadValueDigest;
        double energyTotal;
        /** Events dispatched when every Const and LiveIn op was an
         * invocation-start event; the static program fires them
         * without one. */
        uint64_t cascadeEventsDispatched;
        const char *stats;
    };
    const Pin pins[] = {
        {BackendKind::OptLsq, 4877, 100, 0x53b42ab4de9317ull,
         1048800, 435,
         "fu.fpOps=48 fu.intOps=132 l1.hits=50 l1.misses=55 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=69 "
         "l1.writebacks=0 l1.writes=36 llc.hits=0 llc.misses=55 "
         "llc.mshrMerges=0 llc.mshrStalls=0 llc.reads=55 "
         "llc.writebacks=0 llc.writes=0 lsq.allocs=108 "
         "lsq.bloomHits=6 lsq.bloomMisses=102 lsq.bloomProbes=108 "
         "lsq.camLoads=3 lsq.camStores=3 lsq.forwards=3 "
         "mde.forwards=0 mde.orderTokens=0 net.hops=1536 "
         "net.transfers=534 scratchpad.reads=0 scratchpad.writes=0"},
        {BackendKind::NachosSw, 5493, 100, 0x53b42ab4de9317ull,
         710100, 492,
         "fu.fpOps=48 fu.intOps=132 l1.hits=44 l1.misses=55 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=63 "
         "l1.writebacks=0 l1.writes=36 llc.hits=0 llc.misses=55 "
         "llc.mshrMerges=0 llc.mshrStalls=0 llc.reads=55 "
         "llc.writebacks=0 llc.writes=0 mde.forwards=9 "
         "mde.orderTokens=60 net.hops=1536 net.transfers=534 "
         "scratchpad.reads=0 scratchpad.writes=0"},
        {BackendKind::Nachos, 4836, 100, 0x53b42ab4de9317ull,
         719850, 459,
         "fu.fpOps=48 fu.intOps=132 l1.hits=44 l1.misses=55 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=63 "
         "l1.writebacks=0 l1.writes=36 llc.hits=0 llc.misses=55 "
         "llc.mshrMerges=0 llc.mshrStalls=0 llc.reads=55 "
         "llc.writebacks=0 llc.writes=0 mde.forwards=9 "
         "mde.mayChecks=39 mde.orderTokens=21 nachos.checksClear=39 "
         "nachos.checksConflict=0 nachos.runtimeForwards=0 "
         "net.hops=1536 net.transfers=534 scratchpad.reads=0 "
         "scratchpad.writes=0"},
        {BackendKind::OptLsq, 277, 10, 0x168d667da9ec4f44ull,
         78600, 30,
         "fu.fpOps=6 fu.intOps=9 l1.hits=2 l1.misses=1 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=0 l1.writebacks=0 "
         "l1.writes=3 llc.hits=0 llc.misses=1 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=1 llc.writebacks=0 llc.writes=0 "
         "lsq.allocs=6 lsq.bloomHits=3 lsq.bloomMisses=3 "
         "lsq.bloomProbes=6 lsq.camLoads=3 lsq.camStores=0 "
         "lsq.forwards=3 mde.forwards=0 mde.orderTokens=0 "
         "net.hops=66 net.transfers=48 scratchpad.reads=0 "
         "scratchpad.writes=0"},
        {BackendKind::NachosSw, 276, 10, 0x168d667da9ec4f44ull,
         51600, 30,
         "fu.fpOps=6 fu.intOps=9 l1.hits=2 l1.misses=1 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=0 l1.writebacks=0 "
         "l1.writes=3 llc.hits=0 llc.misses=1 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=1 llc.writebacks=0 llc.writes=0 "
         "mde.forwards=3 mde.orderTokens=0 net.hops=66 "
         "net.transfers=48 scratchpad.reads=0 scratchpad.writes=0"},
        {BackendKind::Nachos, 276, 10, 0x168d667da9ec4f44ull,
         51600, 30,
         "fu.fpOps=6 fu.intOps=9 l1.hits=2 l1.misses=1 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=0 l1.writebacks=0 "
         "l1.writes=3 llc.hits=0 llc.misses=1 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=1 llc.writebacks=0 llc.writes=0 "
         "mde.forwards=3 mde.orderTokens=0 nachos.runtimeForwards=0 "
         "net.hops=66 net.transfers=48 scratchpad.reads=0 "
         "scratchpad.writes=0"},
        {BackendKind::OptLsq, 948, 10, 0xe53fdca9aecac200ull,
         126600, 75,
         "fu.fpOps=0 fu.intOps=6 l1.hits=6 l1.misses=9 "
         "l1.mshrMerges=3 l1.mshrStalls=0 l1.reads=9 l1.writebacks=0 "
         "l1.writes=6 llc.hits=0 llc.misses=6 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=6 llc.writebacks=0 llc.writes=0 "
         "lsq.allocs=18 lsq.bloomHits=6 lsq.bloomMisses=12 "
         "lsq.bloomProbes=18 lsq.camLoads=6 lsq.camStores=0 "
         "lsq.forwards=3 mde.forwards=0 mde.orderTokens=0 "
         "net.hops=39 net.transfers=27 scratchpad.reads=0 "
         "scratchpad.writes=0"},
        {BackendKind::NachosSw, 1409, 10, 0xe53fdca9aecac200ull,
         61350, 87,
         "fu.fpOps=0 fu.intOps=6 l1.hits=9 l1.misses=6 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=9 l1.writebacks=0 "
         "l1.writes=6 llc.hits=0 llc.misses=6 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=6 llc.writebacks=0 llc.writes=0 "
         "mde.forwards=3 mde.orderTokens=21 net.hops=39 "
         "net.transfers=27 scratchpad.reads=0 scratchpad.writes=0"},
        {BackendKind::Nachos, 951, 10, 0xe53fdca9aecac200ull,
         65850, 75,
         "fu.fpOps=0 fu.intOps=6 l1.hits=9 l1.misses=6 "
         "l1.mshrMerges=0 l1.mshrStalls=0 l1.reads=9 l1.writebacks=0 "
         "l1.writes=6 llc.hits=0 llc.misses=6 llc.mshrMerges=0 "
         "llc.mshrStalls=0 llc.reads=6 llc.writebacks=0 llc.writes=0 "
         "mde.forwards=3 mde.mayChecks=18 mde.orderTokens=3 "
         "nachos.checksClear=18 nachos.checksConflict=0 "
         "nachos.runtimeForwards=0 net.hops=39 net.transfers=27 "
         "scratchpad.reads=0 scratchpad.writes=0"},
    };
    std::ifstream corpus(std::string(NACHOS_CORPUS_DIR) +
                         "/seed-61.region");
    ASSERT_TRUE(corpus.good());
    std::ostringstream text;
    text << corpus.rdbuf();
    const Region regions[] = {synthesizeRegion(benchmarkByName("art")),
                              staticChainRegion(),
                              regionFromString(text.str())};
    for (size_t i = 0; i < std::size(pins); ++i) {
        const Pin &pin = pins[i];
        const Region &r = regions[i / 3]; // three backends per region
        SCOPED_TRACE(r.name() + " " + backendName(pin.kind));
        const SimResult res = runRegion(r, pin.kind, 3);
        EXPECT_EQ(res.cycles, pin.cycles);
        EXPECT_EQ(res.criticalOp, pin.criticalOp);
        EXPECT_EQ(res.loadValueDigest, pin.loadValueDigest);
        EXPECT_EQ(res.energy.total(), pin.energyTotal);
        uint64_t sources = 0;
        for (const Operation &o : r.ops())
            sources += o.kind == OpKind::Const || o.kind == OpKind::LiveIn;
        EXPECT_EQ(res.planEventsDispatched + sources * 3,
                  pin.cascadeEventsDispatched);
        EXPECT_EQ(statDump(res), pin.stats);
    }
}

// The trace of the static chain, as a sorted list of its events: which
// op ran when, for how long and on which grid row.
TEST(Simulator, TraceEventsArePinned)
{
    const Region r = staticChainRegion();
    const AliasAnalysisResult analysis = runAliasPipeline(r);
    const MdeSet mdes = insertMdes(r, analysis.matrix);
    SimConfig cfg = smallConfig(2);
    cfg.traceFile = "test_trace_pinned.json";
    simulate(r, mdes, BackendKind::Nachos, cfg);
    std::ifstream in(cfg.traceFile);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(cfg.traceFile.c_str());

    // Sorted on (start, name, category, duration, row).
    const JsonValue trace = parseWritten(text.str());
    const JsonValue &events = *trace.find("traceEvents");
    std::vector<std::tuple<uint64_t, std::string, std::string, uint64_t,
                           uint64_t>>
        rows;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        rows.emplace_back(e.find("ts")->asU64(), e.find("name")->str(),
                          e.find("cat")->str(), e.find("dur")->asU64(),
                          e.find("tid")->asU64());
    }
    std::sort(rows.begin(), rows.end());
    std::string sorted;
    for (const auto &[ts, name, cat, dur, tid] : rows) {
        sorted += std::to_string(ts) + " " + name + " " + cat + " " +
                  std::to_string(dur) + " " + std::to_string(tid) + "\n";
    }
    // start name category duration row
    EXPECT_EQ(sorted,
              "1 fmul#8 compute 4 16\n"
              "1 icmp#3 compute 1 15\n"
              "3 select#4 compute 1 15\n"
              "5 liveout#5 compute 1 14\n"
              "5 store#6 memory 228 13\n"
              "6 fdiv#9 compute 12 16\n"
              "7 forward#7 forward 1 15\n"
              "8 iadd#11 compute 1 15\n"
              "10 liveout#12 compute 1 14\n"
              "19 liveout#10 compute 1 16\n"
              "235 fmul#8 compute 4 16\n"
              "235 icmp#3 compute 1 15\n"
              "237 select#4 compute 1 15\n"
              "239 liveout#5 compute 1 14\n"
              "239 store#6 memory 3 13\n"
              "240 fdiv#9 compute 12 16\n"
              "241 forward#7 forward 1 15\n"
              "242 iadd#11 compute 1 15\n"
              "244 liveout#12 compute 1 14\n"
              "253 liveout#10 compute 1 16\n");
}

} // namespace
} // namespace nachos
