/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * alias pipeline, MDE insertion, placement, the firing-plan build, the
 * cycle simulator, the bloom filter, the comparator station, and the
 * synthesizer.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/sim_tables.hh"
#include "cgra/simulator.hh"
#include "harness/suite_runner.hh"
#include "lsq/bloom.hh"
#include "mde/inserter.hh"
#include "mem/hierarchy.hh"
#include "nachos/may_station.hh"
#include "support/event_queue.hh"
#include "support/logging.hh"
#include "testing/region_gen.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

void
BM_SynthesizeRegion(benchmark::State &state)
{
    setQuiet(true);
    const BenchmarkInfo &info = benchmarkByName("equake");
    for (auto _ : state) {
        Region r = synthesizeRegion(info);
        benchmark::DoNotOptimize(r.numOps());
    }
}
BENCHMARK(BM_SynthesizeRegion);

void
BM_AliasPipeline(benchmark::State &state)
{
    setQuiet(true);
    const BenchmarkInfo &info = benchmarkByName("equake");
    Region r = synthesizeRegion(info);
    for (auto _ : state) {
        AliasAnalysisResult res = runAliasPipeline(r);
        benchmark::DoNotOptimize(res.final().all.total());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(r.numMemOps() * (r.numMemOps() - 1) / 2));
}
BENCHMARK(BM_AliasPipeline);

void
BM_MdeInsertion(benchmark::State &state)
{
    setQuiet(true);
    Region r = synthesizeRegion(benchmarkByName("povray"));
    AliasAnalysisResult res = runAliasPipeline(r);
    for (auto _ : state) {
        MdeSet mdes = insertMdes(r, res.matrix);
        benchmark::DoNotOptimize(mdes.size());
    }
}
BENCHMARK(BM_MdeInsertion);

/** Arg 0 = a suite region (183.equake, long address spines), arg 1 = a
 * small generated region (the fuzzer's typical case). */
Region
planBenchRegion(int64_t arg)
{
    return arg == 0
               ? synthesizeRegion(benchmarkByName("equake"))
               : testing::generateRegion(7, testing::RegionGenOptions{});
}

/**
 * Placing a region on the grid: paid once per region, in the front
 * end that nachosd's region cache keeps. Args as planBenchRegion.
 * Items = placements.
 */
void
BM_PlacementBuild(benchmark::State &state)
{
    setQuiet(true);
    const Region r = planBenchRegion(state.range(0));
    for (auto _ : state) {
        const Placement placement(r);
        benchmark::DoNotOptimize(placement.depth());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.SetLabel(std::to_string(r.numOps()) + " ops");
}
BENCHMARK(BM_PlacementBuild)
    ->Arg(0)  // suite region
    ->Arg(1); // generated region

/**
 * Building a firing plan on a prebuilt placement (SimPlan: operand
 * network and SimTables::build): paid once per request, since the
 * network is a machine parameter, and shared by every backend run of
 * it. Args as planBenchRegion. Items = plan builds.
 */
void
BM_SimTablesBuild(benchmark::State &state)
{
    setQuiet(true);
    const Region r = planBenchRegion(state.range(0));
    const SimConfig cfg;
    const Placement placement(r);
    for (auto _ : state) {
        const SimPlan plan(r, placement, cfg.net);
        benchmark::DoNotOptimize(plan.tables().arenaSize());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.SetLabel(std::to_string(r.numOps()) + " ops");
}
BENCHMARK(BM_SimTablesBuild)
    ->Arg(0)  // suite region
    ->Arg(1); // generated region

/**
 * Warm simulate() runs on a prebuilt plan and a pool that already ran
 * it, as a daemon worker runs a sweep. Arg 0 = backend (0 OPT-LSQ,
 * 1 NACHOS-SW, 2 NACHOS); arg 1 = 1 alternates l1SizeBytes
 * 16k/64k/256k between runs, so the pool re-shapes its hierarchy to a
 * new machine every run (arg 1 = 0 keeps the Figure-3 machine); arg 2
 * = region: 0 is parser's at 16 invocations, 1 the differential
 * fuzzer's run of planBenchRegion(1) (6 invocations, commit trace on),
 * where the fixed cost each run still pays shows. Items = invocations.
 */
void
BM_SimulatorInvocation(benchmark::State &state)
{
    setQuiet(true);
    const bool fuzzRun = state.range(2) != 0;
    const Region r = fuzzRun ? planBenchRegion(1)
                             : synthesizeRegion(benchmarkByName("parser"));
    const MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
    SimConfig cfg;
    cfg.invocations = fuzzRun ? 6 : 16;
    cfg.recordMemTrace = fuzzRun;
    const Placement placement(r);
    const SimPlan plan(r, placement, cfg.net);
    const BackendKind kind = static_cast<BackendKind>(state.range(0));
    const bool alternate = state.range(1) != 0;
    constexpr uint64_t kL1Bytes[] = {16 * 1024, 64 * 1024, 256 * 1024};
    HierarchyPool pool;
    simulate(plan, mdes, kind, cfg, pool);
    uint64_t run = 0;
    for (auto _ : state) {
        if (alternate)
            cfg.mem.l1.sizeBytes = kL1Bytes[run++ % 3];
        SimResult sim = simulate(plan, mdes, kind, cfg, pool);
        benchmark::DoNotOptimize(sim.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(cfg.invocations));
    state.SetLabel(std::to_string(r.numOps()) + " ops");
}
BENCHMARK(BM_SimulatorInvocation)
    ->Args({0, 0, 0}) // OPT-LSQ
    ->Args({1, 0, 0}) // NACHOS-SW
    ->Args({2, 0, 0}) // NACHOS
    ->Args({0, 1, 0}) // OPT-LSQ, L1 16k/64k/256k
    ->Args({1, 1, 0})
    ->Args({2, 1, 0})
    ->Args({0, 0, 1}) // OPT-LSQ, fuzz-sized run
    ->Args({1, 0, 1})
    ->Args({2, 0, 1});

/**
 * Event-queue schedule/drain throughput: the typed-record CalendarQueue
 * the simulator dispatches from. The schedule pattern mimics the hot
 * path (mixed near-future latencies, occasional DRAM-distance
 * completions); ops arrive out of order, so same-cycle events take the
 * ordered-insert paths as well as the tail append.
 */
void
BM_EventQueuePushPop(benchmark::State &state)
{
    struct Ev
    {
        int64_t value;
        uint32_t op;
    };
    struct EvBefore
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.op != b.op ? a.op < b.op : a.value < b.value;
        }
    };
    constexpr uint32_t kBatch = 64;
    CalendarQueue<Ev, EvBefore> queue;
    std::vector<Ev> wave;
    uint64_t scheduled = 0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < kBatch; ++i) {
            // Latency mix: mesh hops (1-16), L1 (3), DRAM-ish (228).
            const uint64_t lat = (i % 8 == 0) ? 228 : 1 + (i % 16);
            queue.schedule(queue.now() + lat,
                           {static_cast<int64_t>(i), (i * 37) % kBatch});
            ++scheduled;
        }
        while (!queue.empty()) {
            wave.clear();
            benchmark::DoNotOptimize(queue.drainWave(wave));
            benchmark::DoNotOptimize(wave.data());
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(scheduled));
}
BENCHMARK(BM_EventQueuePushPop);

/**
 * L1 hit streaming: a working set far smaller than the 64 KiB L1,
 * touched line by line — after warm-up every access runs the inlined
 * hit path (handle-cached stats, no hashing, devirtualized chain).
 * Items = timed accesses.
 */
void
BM_MemHitStreaming(benchmark::State &state)
{
    SimStats stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kLines = 128; // 8 KiB, fits every L1 set
    uint64_t cycle = 0;
    uint64_t accesses = 0;
    for (uint64_t line = 0; line < kLines; ++line)
        mem.timedAccess(line * 64, false, cycle++);
    for (auto _ : state) {
        for (uint64_t line = 0; line < kLines; ++line) {
            benchmark::DoNotOptimize(
                mem.timedAccess(line * 64, (line & 7) == 0, cycle));
            ++cycle;
        }
        accesses += kLines;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemHitStreaming);

/**
 * Miss streaming: every access touches a new line of an 8 MiB sweep
 * (larger than the LLC), exercising the out-of-line miss path — MSHR
 * allocation, next-level fill, victim choice, writeback of dirtied
 * lines. Items = timed accesses.
 */
void
BM_MemMissStreaming(benchmark::State &state)
{
    SimStats stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kLines = (8 * 1024 * 1024) / 64;
    uint64_t cycle = 0;
    uint64_t line = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.timedAccess((line % kLines) * 64, (line & 1) == 0,
                            cycle));
        ++line;
        cycle += 4; // keep MSHRs from saturating into stalls only
        ++accesses;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemMissStreaming);

/**
 * Random mix over a 1 MiB window: hits in L1 and LLC interleave with
 * misses and writebacks, approximating the simulator's real address
 * streams. Items = timed accesses.
 */
void
BM_MemRandomMix(benchmark::State &state)
{
    SimStats stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kMask = (1 << 20) - 1; // 1 MiB window
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t cycle = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        benchmark::DoNotOptimize(
            mem.timedAccess(x & kMask & ~uint64_t{7}, (x & 3) == 0,
                            cycle));
        ++cycle;
        ++accesses;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemRandomMix);

/**
 * Functional (value) memory read/write mix: word writes then a read
 * stream over half-written pages, so both the memcpy fast path and the
 * background-byte merge path run. Items = operations.
 */
void
BM_FunctionalMemoryMix(benchmark::State &state)
{
    FunctionalMemory fm;
    constexpr uint64_t kWords = 4096; // 32 KiB: 8 pages
    for (uint64_t w = 0; w < kWords; w += 2)
        fm.write(w * 8, 8, static_cast<int64_t>(w));
    uint64_t w = 0;
    uint64_t ops = 0;
    int64_t sink = 0;
    for (auto _ : state) {
        if ((w & 7) == 0)
            fm.write((w % kWords) * 8, 8, static_cast<int64_t>(w));
        else
            sink += fm.read((w % kWords) * 8, 8);
        ++w;
        ++ops;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_FunctionalMemoryMix);

/**
 * Hierarchy reset cost after a bounded touch: a re-shape to the same
 * config (the pooled run's reset) is the epoch-bump cache reset plus
 * the page-bitmap clear, and must scale with touched state, not with
 * capacity. Items = resets.
 */
void
BM_HierarchyReset(benchmark::State &state)
{
    SimStats stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    uint64_t resets = 0;
    for (auto _ : state) {
        for (uint64_t line = 0; line < 64; ++line) {
            mem.timedAccess(line * 64, true, line);
            mem.data().write(line * 64, 8, static_cast<int64_t>(line));
        }
        mem.reshape(HierarchyConfig{}, stats);
        ++resets;
    }
    state.SetItemsProcessed(static_cast<int64_t>(resets));
}
BENCHMARK(BM_HierarchyReset);

void
BM_BloomFilter(benchmark::State &state)
{
    BloomFilter bloom;
    for (uint64_t a = 0; a < 32; ++a)
        bloom.insert(0x1000 + a * 8, 8);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bloom.mayContain(addr, 8));
        addr += 8;
    }
}
BENCHMARK(BM_BloomFilter);

void
BM_SuiteRunner(benchmark::State &state)
{
    setQuiet(true);
    RunRequest req;
    req.invocationsOverride = 4;
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        SuiteRun run = runSuite(benchmarkSuite(), req, threads);
        benchmark::DoNotOptimize(run.outcomes.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(benchmarkSuite().size()));
}
BENCHMARK(BM_SuiteRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_MayStationHighFanIn(benchmark::State &state)
{
    const uint32_t parents = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        SimStats stats;
        MayCheckStation station(parents, stats);
        station.ownAddressReady(0x1000, 8, 0);
        for (uint32_t p = 0; p < parents; ++p)
            station.parentAddressArrived(p, 0x2000 + p * 64, 8, 0);
        benchmark::DoNotOptimize(station.allClearCycle());
    }
}
BENCHMARK(BM_MayStationHighFanIn)->Arg(4)->Arg(16)->Arg(64);

} // namespace
} // namespace nachos

BENCHMARK_MAIN();
