/**
 * Design-space sweep subsystem: spec decoding and deterministic
 * expansion (constraint and geometry filtering, coordinate-derived
 * point ids), the append-only store's resume semantics (torn-tail
 * truncation, duplicate detection), Pareto/report determinism, the
 * in-process orchestrator's skip-completed resume loop, the daemon
 * orchestrator's equivalence with it, fills (points a backend cannot
 * tell apart share one simulation) and the verify check.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "harness/region_cache.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "sweep/orchestrator.hh"
#include "sweep/report.hh"

namespace nachos {
namespace {

JsonValue
mustParse(const std::string &text)
{
    JsonValue v;
    const JsonParseStatus parsed = parseJson(text, v);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return v;
}

SweepSpec
mustDecode(const std::string &text)
{
    SweepSpec spec;
    CodecError err;
    const bool ok = decodeSweepSpec(mustParse(text), spec, err);
    EXPECT_TRUE(ok) << "[" << err.code << "] " << err.message;
    return spec;
}

/** A fresh temp-store path; any previous run's file is removed. */
std::string
tempStore(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "nachos_test_sweep_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

// ---- spec decode + expansion -------------------------------------

TEST(SweepSpec, ExpansionOrderAndCount)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"seeds":[1,2],
            "backends":["lsq","nachos"],
            "axes":{"lsqBanks":[1,2],"dramLatency":[100,400]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    // 1 workload x 1 path x 2 seeds x 2 backends x 2x2 machines.
    ASSERT_EQ(points.size(), 16u);
    // The last axis varies fastest; backends vary slower than axes.
    EXPECT_EQ(points[0].machine.lsqBanks, 1u);
    EXPECT_EQ(points[0].machine.dramLatency, 100u);
    EXPECT_EQ(points[1].machine.dramLatency, 400u);
    EXPECT_EQ(points[2].machine.lsqBanks, 2u);
    EXPECT_EQ(points[0].backend, "lsq");
    EXPECT_EQ(points[4].backend, "nachos");
    EXPECT_EQ(points[0].seed, 1u);
    EXPECT_EQ(points[8].seed, 2u);
    // Ids carry every coordinate; hashes are ids, so all distinct.
    std::unordered_set<uint64_t> hashes;
    for (const SweepPoint &p : points) {
        EXPECT_EQ(p.hash, fnv1a64(p.id));
        EXPECT_TRUE(hashes.insert(p.hash).second) << p.id;
        EXPECT_NE(p.id.find("workload=164.gzip"), std::string::npos);
        EXPECT_NE(p.id.find("lsqBanks="), std::string::npos);
    }
    // Expansion is a pure function of the spec.
    const std::vector<SweepPoint> again = expandSweep(spec);
    ASSERT_EQ(again.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(again[i].id, points[i].id);
}

TEST(SweepSpec, PointIdsSurviveSpecEdits)
{
    const SweepSpec small = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"lsqBanks":[2,4],"dramLatency":[100]}})");
    // Same sweep with the axes reordered and one extended: ids are
    // derived from coordinates, not positions, so every original
    // point keeps its identity (and its store records stay valid).
    const SweepSpec grown = mustDecode(
        R"({"name":"t2","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"dramLatency":[100,400],"lsqBanks":[2,4,8]}})");
    std::unordered_set<uint64_t> grownHashes;
    for (const SweepPoint &p : expandSweep(grown))
        grownHashes.insert(p.hash);
    for (const SweepPoint &p : expandSweep(small))
        EXPECT_TRUE(grownHashes.count(p.hash)) << p.id;
}

TEST(SweepSpec, ConstraintsFilterPoints)
{
    // Literal rhs: lsqBanks <= 2 keeps half the axis.
    const SweepSpec literal = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"lsqBanks":[1,2,4,8]},
            "constraints":[{"lhs":"lsqBanks","op":"le","rhs":2}]})");
    EXPECT_EQ(expandSweep(literal).size(), 2u);

    // Axis rhs, with the rhs axis unswept: it evaluates as the
    // Figure-3 default (llcSizeBytes = 4 MiB), so only L1 sizes up
    // to 4 MiB survive -- which is all of these.
    const SweepSpec axis = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"l1SizeBytes":[65536,262144]},
            "constraints":[{"lhs":"l1SizeBytes","op":"le",
                            "rhs":"llcSizeBytes"}]})");
    EXPECT_EQ(expandSweep(axis).size(), 2u);

    // And an impossible constraint empties the sweep.
    const SweepSpec empty = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"l1SizeBytes":[65536,262144]},
            "constraints":[{"lhs":"l1SizeBytes","op":"gt",
                            "rhs":"llcSizeBytes"}]})");
    EXPECT_EQ(expandSweep(empty).size(), 0u);
}

TEST(SweepSpec, InfeasibleGeometryCornersAreSkipped)
{
    // Each single value passes decode-time validation (probed alone
    // against the defaults), but 64-way x 128B lines cannot fit a
    // 4 KiB L1 -- that corner of the cross product must vanish.
    const SweepSpec spec = mustDecode(
        R"({"name":"t","workloads":["164.gzip"],"backends":["sw"],
            "axes":{"l1SizeBytes":[4096,65536],
                    "l1Assoc":[4,64],
                    "l1LineBytes":[64,128]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    for (const SweepPoint &p : points) {
        SimConfig sim;
        p.machine.applyTo(sim);
        EXPECT_GE(sim.mem.l1.sizeBytes,
                  uint64_t(sim.mem.l1.assoc) * sim.mem.l1.lineBytes)
            << p.id;
    }
    EXPECT_LT(points.size(), 8u); // something was filtered
    EXPECT_GT(points.size(), 0u); // but not everything
}

TEST(SweepSpec, DecodeRejectsBadSpecs)
{
    struct BadCase
    {
        const char *json;
        const char *code;
    };
    const BadCase cases[] = {
        {R"({"workloads":["164.gzip"]})", "bad_sweep"}, // no name
        {R"({"name":"t"})", "bad_sweep"},               // no workloads
        {R"({"name":"t","workloads":["no-such"]})", "unknown_workload"},
        {R"({"name":"t","workloads":["164.gzip"],"bogus":1})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],"seeds":[0]})",
         "bad_seed"},
        {R"({"name":"t","workloads":["164.gzip"],
             "backends":["vliw"]})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],
             "axes":{"frobnicate":[1]}})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],
             "axes":{"lsqBanks":[]}})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],
             "axes":{"lsqBanks":[2,2]}})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],
             "axes":{"l1LineBytes":[48]}})",
         "bad_machine"}, // per-value probe: not a power of two
        {R"({"name":"t","workloads":["164.gzip"],
             "axes":{"lsqBanks":[4294967296,2]}})",
         "bad_machine"}, // over the cap, and 0 once cut to 32 bits
        {R"({"name":"t","workloads":["164.gzip"],
             "constraints":[{"lhs":"lsqBanks","op":"approx",
                             "rhs":2}]})",
         "bad_sweep"},
        {R"({"name":"t","workloads":["164.gzip"],
             "constraints":[{"lhs":"nope","op":"le","rhs":2}]})",
         "bad_sweep"},
    };
    for (const BadCase &c : cases) {
        SweepSpec spec;
        CodecError err;
        EXPECT_FALSE(decodeSweepSpec(mustParse(c.json), spec, err))
            << c.json;
        EXPECT_EQ(err.code, c.code) << c.json;
    }
}

TEST(SweepSpec, EveryAxisIdIsPinned)
{
    // Ids and hashes key the result store: a spec naming every axis
    // (each at its Figure-3 default) must expand to these exact ids.
    const SweepSpec spec = mustDecode(
        R"({"name":"pin","workloads":["183.equake"],
            "backends":["lsq","nachos"],"invocations":3,
            "axes":{"nachosComparesPerCycle":[1],"netHopsPerCycle":[4],
                    "dramRequestsPerCycle":[4],"dramLatency":[200],
                    "llcSizeBytes":[4194304],"l1Ports":[4],
                    "l1LineBytes":[64],"l1Assoc":[4],
                    "l1SizeBytes":[65536],"lsqPortsPerBank":[4],
                    "lsqBanks":[4]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 2u);
    const char *const machine =
        " inv=3 lsqBanks=4 lsqPortsPerBank=4 l1SizeBytes=65536 l1Assoc=4"
        " l1LineBytes=64 l1Ports=4 llcSizeBytes=4194304 dramLatency=200"
        " dramRequestsPerCycle=4 netHopsPerCycle=4"
        " nachosComparesPerCycle=1";
    EXPECT_EQ(points[0].id,
              std::string("workload=183.equake path=0 seed=1 backend=lsq") +
                  machine);
    EXPECT_EQ(points[0].hash, 4147756519143456387ull);
    EXPECT_EQ(points[1].id,
              std::string("workload=183.equake path=0 seed=1 "
                          "backend=nachos") +
                  machine);
    EXPECT_EQ(points[1].hash, 5386464821273328225ull);
}

TEST(SweepReport, RenderIsPinned)
{
    // Six records over two axes (l1SizeBytes partly left at its
    // default) and two backends.
    const uint64_t cycles[] = {1200, 900, 1250, 800, 950, 1000};
    const double energy[] = {50.5, 70.25, 95, 90, 60, 55.5};
    std::vector<SweepRecord> records;
    for (uint32_t i = 0; i < 6; ++i) {
        SweepRecord r;
        r.workload = "164.gzip";
        r.seed = 1;
        r.backend = i % 2 ? "nachos" : "lsq";
        r.machine.lsqBanks = 2u << (i % 3);
        r.machine.l1SizeBytes = i < 3 ? 0 : 32768;
        r.id = "point-" + std::to_string(i);
        r.hash = fnv1a64(r.id);
        r.summary.cycles = cycles[i];
        r.summary.energyTotal = energy[i];
        r.areaProxy = areaProxy(r.machine, r.backend);
        records.push_back(r);
    }
    EXPECT_EQ(renderSweepReport(records),
              "sweep report: 6 points\n"
              "\n"
              "== pareto (cycles, energy, area): 164.gzip path=0 seed=1 "
              "==\n"
              "  cycles=800 energy=90.0 area=40551.7 backend=nachos "
              "lsqBanks=2 l1SizeBytes=32768\n"
              "  cycles=900 energy=70.2 area=41780.4 backend=nachos "
              "lsqBanks=4\n"
              "  cycles=950 energy=60.0 area=41254.4 backend=lsq "
              "lsqBanks=4 l1SizeBytes=32768\n"
              "  cycles=1000 energy=55.5 area=40551.7 backend=nachos "
              "lsqBanks=8 l1SizeBytes=32768\n"
              "  cycles=1200 energy=50.5 area=42195.2 backend=lsq "
              "lsqBanks=2\n"
              "  (5 of 6 points on the frontier)\n"
              "\n"
              "== sensitivity (mean over all points sharing the axis "
              "value) ==\n"
              "axis lsqBanks:\n"
              "  2: points=2 meanCycles=1000.0 meanEnergy=70.2\n"
              "  4: points=2 meanCycles=925.0 meanEnergy=65.1\n"
              "  8: points=2 meanCycles=1125.0 meanEnergy=75.2\n"
              "axis l1SizeBytes:\n"
              "  default(65536): points=3 meanCycles=1116.7 "
              "meanEnergy=71.9\n"
              "  32768: points=3 meanCycles=916.7 meanEnergy=68.5\n");
}

TEST(MachineFields, EveryRowIsWiredThrough)
{
    // One lone override per row, at the row's cap (valid alone for
    // every field): the table is the only list of machine fields, so
    // this walks every codec, sweep and SimConfig path for each one.
    const SimConfig defaults;
    for (const MachineField &field : machineFields()) {
        SCOPED_TRACE(field.name);
        EXPECT_GT(field.defaultValue(), 0u);
        EXPECT_NE(field.max, field.defaultValue());
        MachineOverrides m;
        field.slot.set(m, field.max);
        ASSERT_EQ(field.slot.get(m), field.max);

        // Round-trips through the wire codec.
        const std::string member = std::string("\"") + field.name +
                                   "\":" + std::to_string(field.max);
        std::string bytes;
        JsonWriter w(bytes);
        writeMachineOverrides(w, m);
        EXPECT_EQ(bytes, "{" + member + "}");
        MachineOverrides back;
        CodecError err;
        ASSERT_TRUE(decodeMachineOverrides(mustParse(bytes), back, err))
            << err.message;
        EXPECT_TRUE(back == m);

        // Lands in its SimConfig field, and only there.
        SimConfig sim;
        m.applyTo(sim);
        for (const MachineField &other : machineFields())
            EXPECT_EQ(other.sim.get(sim), &other == &field
                                              ? field.max
                                              : other.sim.get(defaults))
                << other.name;

        // Is a sweep axis whose single point carries the override.
        auto axisSpec = [&](uint64_t value) {
            return std::string(R"({"name":"t","workloads":["164.gzip"],)"
                               R"("backends":["sw"],"axes":{")") +
                   field.name + "\":[" + std::to_string(value) + "]}}";
        };
        const std::vector<SweepPoint> points =
            expandSweep(mustDecode(axisSpec(field.max)));
        ASSERT_EQ(points.size(), 1u);
        EXPECT_TRUE(points[0].machine == m);

        // And one past the cap is a typed error on both surfaces.
        const std::string over = std::string("{\"") + field.name +
                                 "\":" + std::to_string(field.max + 1) +
                                 "}";
        EXPECT_FALSE(decodeMachineOverrides(mustParse(over), back, err));
        EXPECT_EQ(err.code, "bad_machine");
        SweepSpec ignored;
        EXPECT_FALSE(decodeSweepSpec(mustParse(axisSpec(field.max + 1)),
                                     ignored, err));
        EXPECT_EQ(err.code, "bad_machine");
    }
}

TEST(BackendFields, EveryRowIsWiredThrough)
{
    for (const BackendField &backend : backendFields()) {
        SCOPED_TRACE(backend.name);
        ASSERT_EQ(findBackend(backend.name), &backend);
        SweepPoint point;
        point.info = findBenchmark("164.gzip");
        point.backend = backend.name;
        const RunRequest request = point.toRequest();
        for (const BackendField &other : backendFields())
            EXPECT_EQ(request.*other.run, &other == &backend) << other.name;

        // The request codec carries exactly that backend.
        JobSpec job;
        job.info = point.info;
        job.request = request;
        std::string bytes;
        JsonWriter w(bytes);
        writeRunRequest(w, job);
        EXPECT_NE(bytes.find(std::string("\"backends\":[\"") +
                             backend.name + "\"]"),
                  std::string::npos)
            << bytes;
        JobSpec back;
        CodecError err;
        ASSERT_TRUE(decodeRunRequest(mustParse(bytes), back, err))
            << err.message;
        for (const BackendField &other : backendFields())
            EXPECT_EQ(back.request.*other.run, request.*other.run)
                << other.name;
    }
    EXPECT_EQ(findBackend("vliw"), nullptr);
}

// ---- store --------------------------------------------------------

SweepRecord
record(uint64_t n)
{
    SweepRecord r;
    r.id = "point-" + std::to_string(n);
    r.hash = fnv1a64(r.id);
    r.workload = "164.gzip";
    r.seed = 1;
    r.backend = "sw";
    r.invocations = 2;
    r.machine.lsqBanks = static_cast<uint32_t>(n % 7 + 1);
    r.summary.cycles = 1000 + n;
    r.summary.cyclesPerInvocation = (1000.0 + n) / 2.0;
    r.summary.maxMlp = 4;
    r.summary.avgMlp = 2.5;
    r.summary.loadValueDigest = 0x9e3779b97f4a7c15ull ^ n;
    r.summary.energyTotal = 123.5 + n;
    r.areaProxy = 40.25;
    r.seconds = 0.001 * n;
    return r;
}

TEST(SweepStore, RecordRoundTripsAndRejectsJunk)
{
    const SweepRecord r = record(3);
    SweepRecord back;
    CodecError err;
    ASSERT_TRUE(decodeSweepRecord(encodeSweepRecord(r), back, err))
        << err.message;
    EXPECT_EQ(dumpJson(encodeSweepRecord(back)),
              dumpJson(encodeSweepRecord(r)));
    EXPECT_EQ(back.hash, r.hash);
    EXPECT_EQ(back.machine, r.machine);
    EXPECT_EQ(back.summary.cycles, r.summary.cycles);
    EXPECT_EQ(back.summary.energyTotal, r.summary.energyTotal);

    JsonValue missing = encodeSweepRecord(r);
    EXPECT_FALSE(decodeSweepRecord(mustParse("[1]"), back, err));
    EXPECT_EQ(err.code, "bad_record");
    EXPECT_FALSE(
        decodeSweepRecord(mustParse(R"({"id":"x"})"), back, err));
    EXPECT_EQ(err.code, "bad_record");
}

TEST(SweepStore, UnknownMemberFailsAsBadRecord)
{
    std::string line = dumpJson(encodeSweepRecord(record(3)));
    SweepRecord back;
    CodecError err;
    ASSERT_TRUE(decodeSweepRecord(mustParse(line), back, err))
        << err.message;
    line.insert(1, R"("typo":1,)");
    EXPECT_FALSE(decodeSweepRecord(mustParse(line), back, err));
    EXPECT_EQ(err.code, "bad_record");
    EXPECT_EQ(err.message, "unknown member 'typo'");
}

// A line written before SweepRecord held a SimSummary, when the record
// repeated the summary's six fields with a writer of its own: it
// decodes, and today's writer gives back the same bytes.
TEST(SweepStore, EarlierWriterLineReencodesByteIdentically)
{
    const std::string line =
        R"({"id":"workload=179.art path=0 seed=4 backend=nachos inv=3 )"
        R"(lsqBanks=2 l1SizeBytes=16384","hash":11070035205443656565,)"
        R"("workload":"179.art","pathIndex":0,"seed":4,)"
        R"("backend":"nachos","invocations":3,)"
        R"("machine":{"lsqBanks":2,"l1SizeBytes":16384},"cycles":4822,)"
        R"("cyclesPerInvocation":1607.3333333333333,"maxMlp":6,)"
        R"("avgMlp":2.586965904186448,)"
        R"("loadValueDigest":2067443871689031085,"energyTotal":708000,)"
        R"("areaProxy":39937.25,"seconds":0.002141548})";
    SweepRecord r;
    CodecError err;
    ASSERT_TRUE(decodeSweepRecord(mustParse(line), r, err))
        << err.message;
    EXPECT_EQ(r.summary.cycles, 4822u);
    EXPECT_EQ(r.summary.maxMlp, 6u);
    EXPECT_EQ(r.summary.loadValueDigest, 2067443871689031085ull);
    EXPECT_EQ(r.summary.energyTotal, 708000.0);
    std::string again;
    JsonWriter w(again);
    writeSweepRecord(w, r);
    EXPECT_EQ(again, line);
}

TEST(SweepStore, MissingFileIsEmptyAndAppendsAccumulate)
{
    const std::string path = tempStore("accumulate");
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    ASSERT_TRUE(store.load(loaded, &error)) << error;
    EXPECT_TRUE(loaded.records.empty());
    EXPECT_FALSE(loaded.tornTail);

    ASSERT_TRUE(store.openForAppend(loaded, &error)) << error;
    ASSERT_TRUE(store.append(record(1), &error)) << error;
    ASSERT_TRUE(store.append(record(2), &error)) << error;
    store.close();

    // Reopening resumes where the file left off.
    SweepStore again(path);
    ASSERT_TRUE(again.openForAppend(loaded, &error)) << error;
    ASSERT_EQ(loaded.records.size(), 2u);
    ASSERT_TRUE(again.append(record(3), &error)) << error;
    again.close();
    ASSERT_TRUE(again.load(loaded, &error)) << error;
    ASSERT_EQ(loaded.records.size(), 3u);
    EXPECT_EQ(loaded.records[2].summary.cycles, 1003u);
    EXPECT_EQ(completedHashes(loaded.records).size(), 3u);
}

TEST(SweepStore, TornTailIsDroppedAndTruncated)
{
    const std::string path = tempStore("torn");
    {
        SweepStore store(path);
        SweepLoadResult loaded;
        std::string error;
        ASSERT_TRUE(store.openForAppend(loaded, &error)) << error;
        ASSERT_TRUE(store.append(record(1), &error)) << error;
        ASSERT_TRUE(store.append(record(2), &error)) << error;
    }
    // Simulate a kill mid-append: half a record, no newline.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << R"({"id":"point-3","hash":12)";
    }
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    ASSERT_TRUE(store.load(loaded, &error)) << error;
    EXPECT_TRUE(loaded.tornTail);
    ASSERT_EQ(loaded.records.size(), 2u);

    // openForAppend truncates the tail; the next append lands on a
    // clean line boundary and the store parses whole again.
    ASSERT_TRUE(store.openForAppend(loaded, &error)) << error;
    ASSERT_TRUE(store.append(record(3), &error)) << error;
    store.close();
    ASSERT_TRUE(store.load(loaded, &error)) << error;
    EXPECT_FALSE(loaded.tornTail);
    ASSERT_EQ(loaded.records.size(), 3u);
    EXPECT_EQ(loaded.records[2].id, "point-3");
}

TEST(SweepStore, CompleteFinalLineWithoutNewlineIsTorn)
{
    // A record whose bytes all arrived but whose newline didn't must
    // be re-run, not half-trusted: the append that wrote it died.
    const std::string path = tempStore("nonewline");
    {
        std::ofstream out(path, std::ios::binary);
        out << dumpJson(encodeSweepRecord(record(1))) << "\n";
        out << dumpJson(encodeSweepRecord(record(2))); // no newline
    }
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    ASSERT_TRUE(store.load(loaded, &error)) << error;
    EXPECT_TRUE(loaded.tornTail);
    ASSERT_EQ(loaded.records.size(), 1u);
}

TEST(SweepStore, CorruptionBeforeTheTailFailsLoud)
{
    const std::string path = tempStore("corrupt");
    {
        std::ofstream out(path, std::ios::binary);
        out << dumpJson(encodeSweepRecord(record(1))) << "\n";
        out << "garbage\n";
        out << dumpJson(encodeSweepRecord(record(2))) << "\n";
    }
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    EXPECT_FALSE(store.load(loaded, &error));
    EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(SweepStore, DuplicateHashFailsLoud)
{
    const std::string path = tempStore("dup");
    {
        std::ofstream out(path, std::ios::binary);
        out << dumpJson(encodeSweepRecord(record(1))) << "\n";
        out << dumpJson(encodeSweepRecord(record(1))) << "\n";
    }
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    EXPECT_FALSE(store.load(loaded, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// ---- reports ------------------------------------------------------

TEST(SweepReport, AreaProxyTracksStructuresAndBackends)
{
    const MachineOverrides stock;
    // Disambiguation hardware: LSQ pays CAMs, NACHOS pays
    // comparators, software pays nothing extra.
    EXPECT_GT(areaProxy(stock, "lsq"), areaProxy(stock, "nachos"));
    EXPECT_GT(areaProxy(stock, "nachos"), areaProxy(stock, "sw"));
    // Growing an array grows the proxy.
    MachineOverrides bigL1;
    bigL1.l1SizeBytes = 256 * 1024;
    EXPECT_GT(areaProxy(bigL1, "sw"), areaProxy(stock, "sw"));
    MachineOverrides moreBanks;
    moreBanks.lsqBanks = 8;
    EXPECT_GT(areaProxy(moreBanks, "lsq"), areaProxy(stock, "lsq"));
    // ...but only on the backend that owns the structure.
    EXPECT_EQ(areaProxy(moreBanks, "sw"), areaProxy(stock, "sw"));
}

TEST(SweepReport, ParetoFrontierDropsDominatedKeepsTies)
{
    auto point = [](uint64_t cycles, double energy, double area) {
        SweepRecord r;
        r.summary.cycles = cycles;
        r.summary.energyTotal = energy;
        r.areaProxy = area;
        return r;
    };
    const std::vector<SweepRecord> records = {
        point(100, 10.0, 5.0), // [0] fast but hot
        point(200, 5.0, 5.0),  // [1] slow but cool
        point(200, 10.0, 5.0), // [2] dominated by both
        point(150, 7.0, 4.0),  // [3] the compromise, smallest area
        point(100, 10.0, 5.0), // [4] exact tie with [0]: survives
    };
    const std::vector<size_t> frontier = paretoFrontier(records);
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1, 3, 4}));
}

TEST(SweepReport, ReportIsIndependentOfStoreOrderAndWallClock)
{
    std::vector<SweepRecord> straight;
    for (uint64_t n = 1; n <= 6; ++n) {
        SweepRecord r = record(n);
        r.backend = n % 2 ? "lsq" : "nachos";
        r.machine.lsqBanks = static_cast<uint32_t>(n);
        straight.push_back(r);
    }
    // A resumed sweep stores the same records in a different order
    // with different wall-clock timings.
    std::vector<SweepRecord> resumed = {straight[4], straight[5],
                                        straight[0], straight[1],
                                        straight[2], straight[3]};
    for (SweepRecord &r : resumed)
        r.seconds *= 100.0;
    const std::string a = renderSweepReport(straight);
    EXPECT_EQ(a, renderSweepReport(resumed));
    EXPECT_NE(a.find("pareto"), std::string::npos);
    EXPECT_NE(a.find("axis lsqBanks:"), std::string::npos);
}

// ---- in-process orchestrator -------------------------------------

TEST(SweepRun, InProcessRunSkipResumeMatchesStraightThrough)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"mini","workloads":["164.gzip"],"backends":["sw"],
            "invocations":2,"axes":{"dramLatency":[100,400]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 2u);

    SweepRunOptions options;
    options.cacheEntries = 2;
    SweepRunStats stats;
    std::string error;

    // Straight through.
    SweepStore straight(tempStore("straight"));
    ASSERT_TRUE(runSweepInProcess(points, straight, options, stats,
                                  &error))
        << error;
    EXPECT_EQ(stats.expanded, 2u);
    EXPECT_EQ(stats.ran, 2u);
    EXPECT_EQ(stats.skipped, 0u);
    straight.close();

    // Interrupted after one point, then resumed.
    SweepStore interrupted(tempStore("interrupted"));
    SweepRunOptions firstHalf = options;
    firstHalf.limit = 1;
    ASSERT_TRUE(runSweepInProcess(points, interrupted, firstHalf,
                                  stats, &error))
        << error;
    EXPECT_EQ(stats.ran, 1u);
    interrupted.close();
    ASSERT_TRUE(runSweepInProcess(points, interrupted, options, stats,
                                  &error))
        << error;
    EXPECT_EQ(stats.skipped, 1u);
    EXPECT_EQ(stats.ran, 1u);
    interrupted.close();

    // Nothing left: a third run is a no-op.
    ASSERT_TRUE(runSweepInProcess(points, interrupted, options, stats,
                                  &error))
        << error;
    EXPECT_EQ(stats.skipped, 2u);
    EXPECT_EQ(stats.ran, 0u);
    interrupted.close();

    // One record per point either way, and byte-identical reports.
    SweepLoadResult a, b;
    ASSERT_TRUE(straight.load(a, &error)) << error;
    ASSERT_TRUE(interrupted.load(b, &error)) << error;
    ASSERT_EQ(a.records.size(), 2u);
    ASSERT_EQ(b.records.size(), 2u);
    EXPECT_EQ(renderSweepReport(a.records),
              renderSweepReport(b.records));
    for (const SweepRecord &r : a.records) {
        EXPECT_EQ(r.backend, "sw");
        EXPECT_EQ(r.invocations, 2u);
        EXPECT_GT(r.summary.cycles, 0u);
        EXPECT_GT(r.summary.energyTotal, 0.0);
    }
    // The overridden DRAM latency reached the simulator.
    EXPECT_NE(a.records[0].summary.cycles, a.records[1].summary.cycles);
}

// ---- daemon orchestrator -----------------------------------------

TEST(SweepRun, OverDaemonMatchesInProcess)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"mini","workloads":["164.gzip"],
            "backends":["sw","nachos"],"invocations":2,
            "axes":{"dramLatency":[100,400]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 4u);

    const std::string socketPath = "/tmp/nachos-test-sweep-" +
                                   std::to_string(::getpid()) + ".sock";
    DaemonConfig config;
    config.socketPath = socketPath;
    config.workers = 2;
    Daemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::unique_ptr<ServiceClient> client =
        ServiceClient::connectUnix(socketPath, &error);
    ASSERT_NE(client, nullptr) << error;

    SweepRunOptions options;
    options.window = 3;
    SweepRunStats stats;
    SweepStore overDaemon(tempStore("over_daemon"));
    ASSERT_TRUE(runSweepOverDaemon(points, overDaemon, *client, options,
                                   stats, &error))
        << error;
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.ran, 4u);
    overDaemon.close();

    SweepStore inProcess(tempStore("in_process"));
    ASSERT_TRUE(
        runSweepInProcess(points, inProcess, options, stats, &error))
        << error;
    inProcess.close();

    SweepLoadResult a, b;
    ASSERT_TRUE(overDaemon.load(a, &error)) << error;
    ASSERT_TRUE(inProcess.load(b, &error)) << error;
    ASSERT_EQ(a.records.size(), 4u);
    ASSERT_EQ(b.records.size(), 4u);
    for (size_t i = 0; i < a.records.size(); ++i) {
        SweepRecord x = a.records[i];
        SweepRecord y = b.records[i];
        x.seconds = y.seconds = 0;
        EXPECT_EQ(dumpJson(encodeSweepRecord(x)),
                  dumpJson(encodeSweepRecord(y)))
            << "point " << i;
    }
    EXPECT_EQ(renderSweepReport(a.records),
              renderSweepReport(b.records));

    // Resume over the daemon: every point is already in the store.
    ASSERT_TRUE(runSweepOverDaemon(points, overDaemon, *client, options,
                                   stats, &error))
        << error;
    EXPECT_EQ(stats.skipped, 4u);
    EXPECT_EQ(stats.ran, 0u);
    overDaemon.close();

    client.reset();
    ::unlink(socketPath.c_str()); // ~Daemon drains
}

// ---- fills ---------------------------------------------------------

/** Each point simulated on its own, unprojected, as its record. */
std::vector<SweepRecord>
simulatedRecords(const std::vector<SweepPoint> &points)
{
    RegionCache cache(4);
    HierarchyPool pool;
    std::vector<SweepRecord> records;
    for (const SweepPoint &p : points) {
        const RunRequest request = p.toRequest();
        std::shared_ptr<const FrontEnd> entry =
            cache.acquire(*p.info, request);
        const OutcomeSummary summary = summarizeOutcome(
            *p.info, request, *entry,
            simulateRequest(*p.info, request, *entry, pool));
        records.push_back(makeSweepRecord(
            p, summary.invocations,
            *(summary.*findBackend(p.backend)->summary)));
    }
    return records;
}

/** The store's lines with the wall clock cleared. */
std::vector<std::string>
storeLines(const std::vector<SweepRecord> &records)
{
    std::vector<std::string> lines;
    for (SweepRecord r : records) {
        r.seconds = 0;
        lines.push_back(dumpJson(encodeSweepRecord(r)));
    }
    return lines;
}

std::vector<SweepRecord>
loadStore(const std::string &path)
{
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    EXPECT_TRUE(store.load(loaded, &error)) << error;
    return std::move(loaded.records);
}

uint64_t
daemonCounter(const Daemon &daemon, const char *name)
{
    const JsonValue snap = daemon.metricsSnapshot();
    const JsonValue *counters = snap.find("counters");
    const JsonValue *v = counters ? counters->find(name) : nullptr;
    return v && v->isU64() ? v->asU64() : 0;
}

/** Spin (with a 30 s cap) until the daemon counter reaches `want`. */
void
waitForCounter(const Daemon &daemon, const char *name, uint64_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemonCounter(daemon, name) != want) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timed out waiting for " << name << " == " << want;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

std::string
testSocket(const std::string &name)
{
    return "/tmp/nachos-test-sweep-" + name + "-" +
           std::to_string(::getpid()) + ".sock";
}

// A serve-shaped sweep: NACHOS-SW and NACHOS read no LSQ field, so
// their points at banks 2, 4 and 8 (24 of 48) are filled from banks 1.
// Filled or not, the store, the ids and the report are exactly those
// of simulating every point on its own, in-process and over a daemon,
// and a resume fills from records already in the store.
TEST(SweepRun, FillsMatchSimulatingEveryPoint)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"serve-shaped","workloads":["183.equake"],
            "paths":[0,1],"invocations":4,
            "axes":{"lsqBanks":[1,2,4,8],"l1SizeBytes":[16384,65536]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 48u);
    const std::vector<SweepRecord> reference = simulatedRecords(points);
    const std::vector<std::string> referenceLines = storeLines(reference);
    const std::string referenceReport = renderSweepReport(reference);

    const auto expectReference = [&](const std::string &path,
                                     const char *what) {
        const std::vector<SweepRecord> got = loadStore(path);
        ASSERT_EQ(got.size(), points.size()) << what;
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].id, points[i].id) << what;
        EXPECT_EQ(storeLines(got), referenceLines) << what;
        EXPECT_EQ(renderSweepReport(got), referenceReport) << what;
    };

    SweepRunOptions options;
    SweepRunStats stats;
    std::string error;
    const std::string inProcessPath = tempStore("fills_in_process");
    SweepStore inProcess(inProcessPath);
    ASSERT_TRUE(
        runSweepInProcess(points, inProcess, options, stats, &error))
        << error;
    inProcess.close();
    EXPECT_EQ(stats.ran, 48u);
    EXPECT_EQ(stats.reused, 24u);
    EXPECT_EQ(stats.failed, 0u);
    expectReference(inProcessPath, "in-process");

    const std::string socketPath = testSocket("fills");
    DaemonConfig config;
    config.socketPath = socketPath;
    config.workers = 2;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::unique_ptr<ServiceClient> client =
        ServiceClient::connectUnix(socketPath, &error);
    ASSERT_NE(client, nullptr) << error;

    options.window = 3;
    const std::string overDaemonPath = tempStore("fills_over_daemon");
    SweepStore overDaemon(overDaemonPath);
    ASSERT_TRUE(runSweepOverDaemon(points, overDaemon, *client, options,
                                   stats, &error))
        << error;
    overDaemon.close();
    EXPECT_EQ(stats.ran, 48u);
    EXPECT_EQ(stats.reused, 24u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(daemonCounter(daemon, "requests.total"), 24u);
    expectReference(overDaemonPath, "over the daemon");

    // Resume from a store that holds every OPT-LSQ record and the
    // banks-1 records: each pending point is a fill, so no request.
    const auto seedStore = [&](const std::string &path) {
        SweepStore store(path);
        SweepLoadResult ignored;
        ASSERT_TRUE(store.openForAppend(ignored, &error)) << error;
        for (const SweepRecord &r : reference) {
            if (r.backend == "lsq" || r.machine.lsqBanks == 1) {
                ASSERT_TRUE(store.append(r, &error)) << error;
            }
        }
    };
    for (const bool viaDaemon : {false, true}) {
        SCOPED_TRACE(viaDaemon ? "daemon resume" : "in-process resume");
        const std::string path = tempStore("fills_resume");
        seedStore(path);
        const uint64_t requestsBefore =
            daemonCounter(daemon, "requests.total");
        SweepStore resumed(path);
        ASSERT_TRUE(viaDaemon
                        ? runSweepOverDaemon(points, resumed, *client,
                                             options, stats, &error)
                        : runSweepInProcess(points, resumed, options,
                                            stats, &error))
            << error;
        resumed.close();
        EXPECT_EQ(stats.skipped, 24u);
        EXPECT_EQ(stats.ran, 24u);
        EXPECT_EQ(stats.reused, 24u);
        EXPECT_EQ(daemonCounter(daemon, "requests.total"),
                  requestsBefore);
        EXPECT_EQ(renderSweepReport(loadStore(path)), referenceReport);
    }

    client.reset();
    ::unlink(socketPath.c_str()); // ~Daemon drains
}

// A fill is only as good as its source: when the source's request is
// turned away (queue_full), the fill fails with it, and neither lands
// in the store, so a resume re-runs both.
TEST(SweepRun, FillFailsWithItsSource)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"fail","workloads":["164.gzip"],"backends":["sw"],
            "invocations":2,"axes":{"lsqBanks":[1,2]}})");
    const std::vector<SweepPoint> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 2u);

    const std::string socketPath = testSocket("fill_fails");
    DaemonConfig config;
    config.socketPath = socketPath;
    config.workers = 1;
    config.bulkQueueCapacity = 1;
    Daemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::unique_ptr<ServiceClient> hog =
        ServiceClient::connectUnix(socketPath, &error);
    ASSERT_NE(hog, nullptr) << error;
    std::unique_ptr<ServiceClient> client =
        ServiceClient::connectUnix(socketPath, &error);
    ASSERT_NE(client, nullptr) << error;

    // A sleeper holds the one worker, and a bulk job fills the bulk
    // queue's one slot.
    const auto hogRequest = [](uint64_t id, const char *klass) {
        JsonValue run = JsonValue::makeObject();
        run.set("workload", "164.gzip");
        run.set("invocations", uint64_t{1});
        run.set("sleepMillis", uint64_t{300});
        run.set("class", klass);
        JsonValue request = requestEnvelope(id, "run");
        request.set("run", std::move(run));
        return request;
    };
    ASSERT_TRUE(hog->sendRequest(hogRequest(1, "interactive")));
    waitForCounter(daemon, "jobs.accepted", 1);
    waitForCounter(daemon, "queue.depth", 0);
    ASSERT_TRUE(hog->sendRequest(hogRequest(2, "bulk")));
    waitForCounter(daemon, "queue.bulkDepth", 1);

    SweepRunOptions options;
    SweepRunStats stats;
    const std::string path = tempStore("fill_fails");
    SweepStore store(path);
    ASSERT_TRUE(
        runSweepOverDaemon(points, store, *client, options, stats, &error))
        << error;
    store.close();
    EXPECT_EQ(daemonCounter(daemon, "jobs.rejected"), 1u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.ran, 0u);
    EXPECT_EQ(stats.reused, 0u);
    EXPECT_TRUE(loadStore(path).empty());

    for (const uint64_t id : {1u, 2u})
        EXPECT_TRUE(hog->waitFor(id).has_value()) << id;
    hog.reset();
    client.reset();
    ::unlink(socketPath.c_str());
}

// verify compares the whole summary: tampering with any one member of
// a stored record is reported as a mismatch.
TEST(SweepVerify, AnyTamperedSummaryMemberIsAMismatch)
{
    const SweepSpec spec = mustDecode(
        R"({"name":"verify","workloads":["183.equake"],
            "backends":["nachos"],"invocations":2})");
    const std::vector<SweepRecord> records =
        simulatedRecords(expandSweep(spec));
    ASSERT_EQ(records.size(), 1u);
    RegionCache cache(1);
    HierarchyPool pool;
    EXPECT_EQ(verifySweepRecord(records[0], cache, pool), "");

    const std::vector<std::function<void(SimSummary &)>> tamper = {
        [](SimSummary &s) { ++s.cycles; },
        [](SimSummary &s) { s.cyclesPerInvocation += 0.5; },
        [](SimSummary &s) { ++s.maxMlp; },
        [](SimSummary &s) { s.avgMlp += 0.25; },
        [](SimSummary &s) { s.loadValueDigest ^= 1; },
        [](SimSummary &s) { s.energyTotal += 1; },
    };
    for (size_t i = 0; i < tamper.size(); ++i) {
        SweepRecord bad = records[0];
        tamper[i](bad.summary);
        const std::string report = verifySweepRecord(bad, cache, pool);
        EXPECT_EQ(report.rfind("MISMATCH " + bad.id, 0), 0u)
            << "member " << i << ": " << report;
    }

    SweepRecord unknown = records[0];
    unknown.workload = "999.nope";
    EXPECT_NE(verifySweepRecord(unknown, cache, pool), "");
}

} // namespace
} // namespace nachos
