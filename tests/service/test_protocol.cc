#include <gtest/gtest.h>

#include <algorithm>

#include "harness/run_json.hh"
#include "harness/runner.hh"
#include "support/alloc_hook.hh"
#include "support/random.hh"
#include "sweep/store.hh"
#include "workloads/benchmark_info.hh"

#include "service/protocol.hh"
#include "support/json.hh"

namespace nachos {
namespace {

TEST(ParseRequestLine, PingMetricsShutdown)
{
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine("{\"v\":1,\"id\":3,\"type\":\"ping\"}",
                                 tree, req, err));
    EXPECT_EQ(req.type, Request::Type::Ping);
    EXPECT_EQ(req.id, 3u);
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":4,\"type\":\"metrics\"}", tree, req, err));
    EXPECT_EQ(req.type, Request::Type::Metrics);
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":5,\"type\":\"shutdown\"}", tree, req, err));
    EXPECT_EQ(req.type, Request::Type::Shutdown);
}

TEST(ParseRequestLine, RunRequest)
{
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":9,\"type\":\"run\",\"run\":"
        "{\"workload\":\"art\",\"seed\":2}}",
        tree, req, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(req.type, Request::Type::Run);
    EXPECT_EQ(req.id, 9u);
    ASSERT_NE(req.job.info, nullptr);
    EXPECT_EQ(req.job.info->name, "179.art");
    EXPECT_EQ(req.job.request.seed, 2u);
}

TEST(ParseRequestLine, CancelRequest)
{
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":10,\"type\":\"cancel\",\"target\":9}", tree, req,
        err));
    EXPECT_EQ(req.type, Request::Type::Cancel);
    EXPECT_EQ(req.cancelTarget, 9u);
    EXPECT_FALSE(parseRequestLine(
        "{\"v\":1,\"id\":10,\"type\":\"cancel\"}", tree, req, err));
    EXPECT_EQ(err.code, "bad_request");
    EXPECT_FALSE(parseRequestLine(
        "{\"v\":1,\"id\":10,\"type\":\"cancel\",\"target\":0}", tree, req,
        err));
    EXPECT_EQ(err.code, "bad_request");
}

struct BadLine
{
    const char *line;
    const char *code;
};

TEST(ParseRequestLine, TypedErrors)
{
    const BadLine cases[] = {
        {"", "bad_json"},
        {"{", "bad_json"},
        {"nonsense", "bad_json"},
        {"\x01\x02garbage", "bad_json"},
        {"[1,2,3]", "bad_request"},
        {"\"just a string\"", "bad_request"},
        {"{\"v\":1,\"type\":\"ping\"}", "bad_request"},     // no id
        {"{\"v\":1,\"id\":0,\"type\":\"ping\"}", "bad_request"},
        {"{\"v\":1,\"id\":\"x\",\"type\":\"ping\"}", "bad_request"},
        {"{\"id\":1,\"type\":\"ping\"}", "bad_request"},    // no v
        {"{\"v\":2,\"id\":1,\"type\":\"ping\"}", "unsupported_version"},
        {"{\"v\":1,\"id\":1}", "bad_request"},              // no type
        {"{\"v\":1,\"id\":1,\"type\":7}", "bad_request"},
        {"{\"v\":1,\"id\":1,\"type\":\"frob\"}", "unknown_type"},
        {"{\"v\":1,\"id\":1,\"type\":\"ping\",\"x\":1}", "bad_request"},
        {"{\"v\":1,\"id\":1,\"type\":\"run\"}", "bad_request"},
        {"{\"v\":1,\"id\":1,\"type\":\"run\",\"run\":"
         "{\"workload\":\"nope\"}}",
         "unknown_workload"},
        {"{\"v\":1,\"id\":1,\"type\":\"run\",\"run\":"
         "{\"workload\":\"art\",\"pathIndex\":9}}",
         "bad_path_index"},
    };
    for (const BadLine &c : cases) {
        JsonValue tree;
        Request req;
        CodecError err;
        EXPECT_FALSE(parseRequestLine(c.line, tree, req, err))
            << "accepted: " << c.line;
        EXPECT_EQ(err.code, c.code) << c.line;
    }
}

TEST(ParseRequestLine, IdSurvivesLaterErrors)
{
    // The id parses before the failing member, so the daemon's error
    // response can echo it back.
    JsonValue tree;
    Request req;
    CodecError err;
    EXPECT_FALSE(parseRequestLine(
        "{\"id\":42,\"v\":2,\"type\":\"ping\"}", tree, req, err));
    EXPECT_EQ(err.code, "unsupported_version");
    EXPECT_EQ(req.id, 42u);
}

TEST(ParseRequestLine, OversizedLineRejected)
{
    std::string line = "{\"v\":1,\"id\":1,\"type\":\"ping\",\"p\":\"";
    line.append(kMaxRequestLineBytes, 'x');
    line += "\"}";
    JsonValue tree;
    Request req;
    CodecError err;
    EXPECT_FALSE(parseRequestLine(line, tree, req, err));
    EXPECT_EQ(err.code, "oversized");
}

TEST(Responses, BuildersIncludeEnvelope)
{
    std::string out;
    appendErrorResponse(out, 7, "queue_full", "try later");
    EXPECT_EQ(out, "{\"v\":1,\"id\":7,\"type\":\"error\","
                   "\"code\":\"queue_full\",\"message\":\"try later\"}");
    out.clear();
    appendPongResponse(out, 1);
    EXPECT_EQ(out, "{\"v\":1,\"id\":1,\"type\":\"pong\"}");
    out.clear();
    appendOkResponse(out, 2);
    EXPECT_EQ(out, "{\"v\":1,\"id\":2,\"type\":\"ok\"}");
    out.clear();
    JsonValue stats = JsonValue::makeObject();
    stats.set("cycles", 5);
    appendMetricsResponse(out, 3, stats);
    EXPECT_EQ(out, "{\"v\":1,\"id\":3,\"type\":\"metrics\","
                   "\"stats\":{\"cycles\":5}}");
    // Appending never clears what the buffer already holds.
    out = "prefix:";
    appendPongResponse(out, 4);
    EXPECT_EQ(out, "prefix:{\"v\":1,\"id\":4,\"type\":\"pong\"}");
}

TEST(Responses, RunEnvelopeRoundTrips)
{
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":6,\"type\":\"run\",\"run\":"
        "{\"workload\":\"183.equake\",\"backends\":[\"nachos\"]}}",
        tree, req, err));
    const JsonValue again = runRequestEnvelope(req.id, req.job);
    Request req2;
    ASSERT_TRUE(parseRequestLine(dumpJson(again), tree, req2, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(req2.id, 6u);
    EXPECT_EQ(req2.job.info, req.job.info);
    EXPECT_FALSE(req2.job.request.runLsq);
    EXPECT_TRUE(req2.job.request.runNachos);
}

TEST(ParseRequestLine, AdmissionClass)
{
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":1,\"type\":\"run\",\"run\":"
        "{\"workload\":\"art\"}}",
        tree, req, err));
    EXPECT_EQ(req.job.klass, AdmitClass::Interactive); // default
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":2,\"type\":\"run\",\"run\":"
        "{\"workload\":\"art\",\"class\":\"bulk\"}}",
        tree, req, err));
    EXPECT_EQ(req.job.klass, AdmitClass::Bulk);
    ASSERT_TRUE(parseRequestLine(
        "{\"v\":1,\"id\":3,\"type\":\"run\",\"run\":"
        "{\"workload\":\"art\",\"class\":\"interactive\"}}",
        tree, req, err));
    EXPECT_EQ(req.job.klass, AdmitClass::Interactive);
    EXPECT_FALSE(parseRequestLine(
        "{\"v\":1,\"id\":4,\"type\":\"run\",\"run\":"
        "{\"workload\":\"art\",\"class\":\"batch\"}}",
        tree, req, err));
    EXPECT_EQ(err.code, "bad_request");
}

TEST(Responses, ResultLineIsPinned)
{
    // The result line for 164.gzip, seed 1, one invocation, all three
    // backends, byte for byte: any change to the outcome record's
    // members, their order, or number formatting shows up here.
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RunRequest req;
    req.seed = 1;
    req.invocationsOverride = 1;
    const RunOutcome outcome = runWorkload(info, req);
    std::string line;
    appendResultResponse(line, 1, summarizeOutcome(info, req, outcome));
    EXPECT_EQ(
        line,
        "{\"v\":1,\"id\":1,\"type\":\"result\","
        "\"outcome\":{\"workload\":\"164.gzip\",\"pathIndex\":0,\"seed\":1,"
        "\"invocations\":1,\"labels\":{\"no\":0,\"may\":0,\"must\":0},"
        "\"enforced\":{\"no\":0,\"may\":0,\"must\":0},\"mdes\":{\"order\":0,"
        "\"forward\":0,\"may\":0},\"backends\":{\"lsq\":{\"cycles\":240,"
        "\"cyclesPerInvocation\":240,\"maxMlp\":4,\"avgMlp\":4,"
        "\"loadValueDigest\":16644486459654870880,"
        "\"energyTotal\":112400},\"sw\":{\"cycles\":238,"
        "\"cyclesPerInvocation\":238,\"maxMlp\":4,\"avgMlp\":4,"
        "\"loadValueDigest\":16644486459654870880,"
        "\"energyTotal\":100400},\"nachos\":{\"cycles\":238,"
        "\"cyclesPerInvocation\":238,\"maxMlp\":4,\"avgMlp\":4,"
        "\"loadValueDigest\":16644486459654870880,"
        "\"energyTotal\":100400}}}}");
}

TEST(Responses, AppendResultResponseIsZeroAllocWhenWarm)
{
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RunRequest req;
    req.seed = 1;
    req.invocationsOverride = 1;
    const RunOutcome outcome = runWorkload(info, req);
    const OutcomeSummary summary = summarizeOutcome(info, req, outcome);
    std::string buf;
    appendResultResponse(buf, 1, summary); // warm to high-water mark
    const uint64_t before = threadAllocCount();
    for (uint64_t id = 2; id < 102; ++id) {
        buf.clear();
        appendResultResponse(buf, id, summary);
    }
    EXPECT_EQ(threadAllocCount() - before, 0u)
        << "warm result encoding touched the heap";
}

TEST(TreeAdapters, DumpEqualsWriterBytes)
{
    // Every tree-returning adapter parses its record's writer bytes
    // back; dumping that tree must give the same bytes again.
    const BenchmarkInfo &info = *findBenchmark("179.art");
    RunRequest req;
    req.seed = 4;
    req.invocationsOverride = 3;
    const OutcomeSummary summary =
        summarizeOutcome(info, req, runWorkload(info, req));
    std::string outcome;
    JsonWriter outcomeWriter(outcome);
    writeOutcome(outcomeWriter, summary);
    EXPECT_EQ(dumpJson(encodeOutcome(summary)), outcome);

    JobSpec spec;
    spec.info = &info;
    spec.request.pathIndex = 2;
    spec.request.runSw = false;
    spec.request.pipeline.stage3 = false;
    spec.request.machine.lsqBanks = 2;
    spec.request.machine.dramLatency = 400;
    spec.timeoutMillis = 250;
    spec.klass = AdmitClass::Bulk;
    std::string run;
    appendRunRequest(run, 9, spec);
    EXPECT_EQ(dumpJson(runRequestEnvelope(9, spec)), run);

    SweepRecord record;
    record.id = "workload=179.art path=0 seed=4 backend=nachos";
    record.hash = 0x9e3779b97f4a7c15ull;
    record.workload = "179.art";
    record.seed = 4;
    record.backend = "nachos";
    record.invocations = 3;
    record.machine.l1SizeBytes = 16384;
    record.summary.cycles = summary.nachos->cycles;
    record.summary.cyclesPerInvocation = summary.nachos->cyclesPerInvocation;
    record.summary.avgMlp = summary.nachos->avgMlp;
    record.summary.energyTotal = summary.nachos->energyTotal;
    record.areaProxy = 40.25;
    record.seconds = 0.0123;
    std::string stored;
    JsonWriter recordWriter(stored);
    writeSweepRecord(recordWriter, record);
    EXPECT_EQ(dumpJson(encodeSweepRecord(record)), stored);
}

TEST(ParseRequestLine, WarmRunRequestIsZeroAlloc)
{
    // A connection's steady state: the same shape of run request
    // parsed into the connection's reused tree and Request.
    const std::string line =
        "{\"v\":1,\"id\":12,\"type\":\"run\",\"run\":"
        "{\"workload\":\"183.equake\",\"pathIndex\":1,\"seed\":3,"
        "\"backends\":[\"lsq\",\"nachos\"],"
        "\"pipeline\":{\"stage2\":true,\"stage3\":false,"
        "\"stage4\":true},\"invocations\":4,"
        "\"machine\":{\"lsqBanks\":4,\"l1SizeBytes\":65536,"
        "\"dramLatency\":300},\"class\":\"bulk\"}}";
    JsonValue tree;
    Request req;
    CodecError err;
    ASSERT_TRUE(parseRequestLine(line, tree, req, err)) // warm up
        << err.code << ": " << err.message;
    const uint64_t before = threadAllocCount();
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(parseRequestLine(line, tree, req, err));
    EXPECT_EQ(threadAllocCount() - before, 0u)
        << "warm request parsing touched the heap";
    EXPECT_EQ(req.job.request.machine.lsqBanks, 4u);
    EXPECT_EQ(req.job.klass, AdmitClass::Bulk);
}

TEST(ParseRequestLine, MutatedLinesFailWithDocumentedCodes)
{
    // Seeded byte mutations (flip, insert, delete, truncate, splice)
    // of valid request lines: every line parses or fails with a code
    // from kErrorCodes — never a crash, never an undocumented code.
    const std::string valid[] = {
        "{\"v\":1,\"id\":1,\"type\":\"ping\"}",
        "{\"v\":1,\"id\":2,\"type\":\"metrics\"}",
        "{\"v\":1,\"id\":3,\"type\":\"shutdown\"}",
        "{\"v\":1,\"id\":4,\"type\":\"cancel\",\"target\":3}",
        "{\"v\":1,\"id\":5,\"type\":\"run\",\"run\":"
        "{\"workload\":\"179.art\",\"pathIndex\":4,\"seed\":9,"
        "\"backends\":[\"lsq\",\"sw\",\"nachos\"],"
        "\"pipeline\":{\"stage2\":false,\"stage3\":true,"
        "\"stage4\":true},\"invocations\":12,"
        "\"machine\":{\"lsqBanks\":8,\"l1Assoc\":2,"
        "\"l1LineBytes\":32,\"nachosComparesPerCycle\":2},"
        "\"timeoutMillis\":100,\"sleepMillis\":5,"
        "\"class\":\"interactive\"}}",
    };
    const size_t nValid = std::size(valid);
    const char bytes[] = "{}[]\",:\\-.0123456789eEtrufalsn \x01\x7f\xff";
    Rng rng(20181);
    JsonValue tree; // reused across lines, as a connection's is
    size_t accepted = 0;
    for (int i = 0; i < 10000; ++i) {
        std::string line = valid[rng.below(nValid)];
        const uint64_t edits = 1 + rng.below(3);
        for (uint64_t e = 0; e < edits; ++e) {
            const size_t pos = rng.below(line.size() + 1);
            switch (rng.below(5)) {
              case 0: // flip one bit
                if (pos < line.size())
                    line[pos] = static_cast<char>(
                        line[pos] ^ (1 << rng.below(8)));
                break;
              case 1: // insert a byte
                line.insert(pos, 1, bytes[rng.below(sizeof(bytes) - 1)]);
                break;
              case 2: // delete a byte
                if (pos < line.size())
                    line.erase(pos, 1);
                break;
              case 3: // truncate
                line.resize(pos);
                break;
              default: { // splice in a piece of another valid line
                const std::string &donor = valid[rng.below(nValid)];
                const size_t from = rng.below(donor.size());
                const size_t len = rng.below(donor.size() - from + 1);
                line.replace(pos, rng.below(line.size() - pos + 1),
                             donor, from, len);
              }
            }
        }
        Request req;
        CodecError err;
        if (parseRequestLine(line, tree, req, err)) {
            ++accepted;
            continue;
        }
        EXPECT_NE(std::find(kErrorCodes.begin(), kErrorCodes.end(),
                            err.code),
                  kErrorCodes.end())
            << "undocumented code '" << err.code << "' for: " << line;
        EXPECT_FALSE(err.message.empty()) << line;
    }
    // Both outcomes occur, so the mutations reach past the JSON layer.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, 10000u);
}

} // namespace
} // namespace nachos
