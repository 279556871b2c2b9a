/**
 * End-to-end daemon tests over a real Unix-domain socket: golden
 * equivalence with the direct Runner, 16-way concurrency, malformed
 * input, backpressure, timeouts, cancellation, and graceful drain.
 */

#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/run_json.hh"
#include "harness/runner.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "support/json.hh"

namespace nachos {
namespace {

/** Optional run-payload fields beyond the workload name. */
struct RunOpts
{
    uint64_t seed = 0;
    uint64_t invocations = 0;
    std::vector<std::string> backends;
    uint64_t timeoutMillis = 0;
    uint64_t sleepMillis = 0;
    const char *klass = nullptr; // "interactive" | "bulk"
};

JsonValue
runPayload(const std::string &workload, const RunOpts &opts)
{
    JsonValue run = JsonValue::makeObject();
    run.set("workload", workload);
    if (opts.seed)
        run.set("seed", opts.seed);
    if (opts.invocations)
        run.set("invocations", opts.invocations);
    if (!opts.backends.empty()) {
        JsonValue backends = JsonValue::makeArray();
        for (const std::string &b : opts.backends)
            backends.push(b);
        run.set("backends", std::move(backends));
    }
    if (opts.timeoutMillis)
        run.set("timeoutMillis", opts.timeoutMillis);
    if (opts.sleepMillis)
        run.set("sleepMillis", opts.sleepMillis);
    if (opts.klass)
        run.set("class", opts.klass);
    return run;
}

JsonValue
runRequest(uint64_t id, const std::string &workload,
           const RunOpts &opts = {})
{
    JsonValue req = requestEnvelope(id, "run");
    req.set("run", runPayload(workload, opts));
    return req;
}

/**
 * What the daemon must answer for this payload, computed through the
 * identical decode + runWorkload + encode path the daemon uses.
 */
std::string
directOutcomeJson(const std::string &workload, const RunOpts &opts)
{
    JobSpec spec;
    CodecError err;
    EXPECT_TRUE(decodeRunRequest(runPayload(workload, opts), spec, err))
        << err.code << ": " << err.message;
    const RunOutcome outcome = runWorkload(*spec.info, spec.request);
    return dumpJson(
        encodeOutcome(summarizeOutcome(*spec.info, spec.request, outcome)));
}

const char *
responseType(const JsonValue &response)
{
    const JsonValue *type = response.find("type");
    return type && type->isString() ? type->str().c_str() : "?";
}

std::string
errorCode(const JsonValue &response)
{
    const JsonValue *code = response.find("code");
    return code && code->isString() ? code->str() : "";
}

class DaemonTest : public ::testing::Test
{
  protected:
    void
    startWith(DaemonConfig config)
    {
        static std::atomic<int> counter{0};
        path_ = "/tmp/nachosd-test-" + std::to_string(::getpid()) +
                "-" + std::to_string(counter++) + ".sock";
        config.socketPath = path_;
        daemon_ = std::make_unique<Daemon>(config);
        std::string error;
        ASSERT_TRUE(daemon_->start(&error)) << error;
    }

    void
    start(unsigned workers = 2, size_t queueCapacity = 64,
          uint64_t defaultTimeoutMillis = 0)
    {
        DaemonConfig config;
        config.workers = workers;
        config.queueCapacity = queueCapacity;
        config.defaultTimeoutMillis = defaultTimeoutMillis;
        startWith(config);
    }

    void
    TearDown() override
    {
        daemon_.reset(); // destructor drains
        ::unlink(path_.c_str());
    }

    std::unique_ptr<ServiceClient>
    connect()
    {
        std::string error;
        auto client = ServiceClient::connectUnix(path_, &error);
        EXPECT_NE(client, nullptr) << error;
        return client;
    }

    uint64_t
    counterValue(const char *name)
    {
        const JsonValue snap = daemon_->metricsSnapshot();
        const JsonValue *counters = snap.find("counters");
        const JsonValue *v = counters ? counters->find(name) : nullptr;
        return v && v->isU64() ? v->asU64() : 0;
    }

    /** Spin (with a 30 s cap) until the condition holds. */
    void
    waitUntil(const std::function<bool()> &done, const char *what)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (!done()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "timed out waiting for " << what;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    /** One region-cache lookup per executed job (settled daemon). */
    void
    expectOneLookupPerExecutedJob()
    {
        EXPECT_EQ(counterValue("cache.hits") + counterValue("cache.misses"),
                  counterValue("jobs.completed") +
                      counterValue("jobs.failed") +
                      counterValue("jobs.lateResults"));
    }

    std::string path_;
    std::unique_ptr<Daemon> daemon_;
};

TEST_F(DaemonTest, PingPong)
{
    start();
    auto client = connect();
    ASSERT_NE(client, nullptr);
    std::optional<JsonValue> response =
        client->call(requestEnvelope(1, "ping"));
    ASSERT_TRUE(response.has_value());
    EXPECT_STREQ(responseType(*response), "pong");
    EXPECT_EQ(response->find("id")->asU64(), 1u);
}

// The `metrics` schema of DESIGN.md §9.4: every key is present from the
// daemon's start, in name order, and traffic changes values, not keys.
TEST_F(DaemonTest, MetricsListEveryKeyFromTheStart)
{
    const std::vector<std::string> wantCounters = {
        "cache.evictions", "cache.hits", "cache.misses", "cache.size",
        "conns.accepted", "conns.active", "daemon.draining",
        "daemon.workers", "jobs.accepted", "jobs.acceptedBulk",
        "jobs.acceptedInteractive", "jobs.cancelled", "jobs.completed",
        "jobs.expired", "jobs.failed", "jobs.lateResults",
        "jobs.outstanding", "jobs.rejected", "jobs.rejectedDraining",
        "plan.derivedRuns", "plan.eventsDispatched", "queue.bulkDepth",
        "queue.depth", "queue.interactiveDepth", "requests.errors",
        "requests.total"};
    const std::vector<std::string> wantHistograms = {
        "latency.analysisMicros", "latency.bulk.totalMicros",
        "latency.interactive.totalMicros", "latency.mdeMicros",
        "latency.queueMicros", "latency.simMicros",
        "latency.synthMicros", "latency.totalMicros"};
    const auto names = [](const JsonValue &snap, const char *group) {
        std::vector<std::string> out;
        for (const auto &member : snap.find(group)->members())
            out.push_back(member.first);
        return out;
    };

    start(2);
    const JsonValue fresh = daemon_->metricsSnapshot();
    EXPECT_EQ(names(fresh, "counters"), wantCounters);
    EXPECT_EQ(names(fresh, "histograms"), wantHistograms);
    for (const auto &member : fresh.find("counters")->members())
        EXPECT_EQ(member.second.asU64(),
                  member.first == "daemon.workers" ? 2u : 0u)
            << member.first;
    for (const auto &member : fresh.find("histograms")->members())
        EXPECT_EQ(member.second.find("count")->asU64(), 0u)
            << member.first;

    auto client = connect();
    ASSERT_NE(client, nullptr);
    RunOpts opts;
    opts.invocations = 2;
    std::optional<JsonValue> response =
        client->call(runRequest(1, "164.gzip", opts));
    ASSERT_TRUE(response.has_value());
    ASSERT_STREQ(responseType(*response), "result");
    const JsonValue after = daemon_->metricsSnapshot();
    EXPECT_EQ(names(after, "counters"), wantCounters);
    EXPECT_EQ(names(after, "histograms"), wantHistograms);
    EXPECT_EQ(after.find("counters")->find("requests.total")->asU64(),
              1u);
    EXPECT_EQ(after.find("histograms")
                  ->find("latency.totalMicros")
                  ->find("count")
                  ->asU64(),
              1u);
}

// The worker counts a job before it answers it: a `metrics` request
// sent on the same connection right after the result sees the job.
TEST_F(DaemonTest, MetricsAfterAResultCountTheJob)
{
    start(2);
    auto client = connect();
    ASSERT_NE(client, nullptr);
    RunOpts opts;
    opts.invocations = 2;
    std::optional<JsonValue> response =
        client->call(runRequest(1, "164.gzip", opts));
    ASSERT_TRUE(response.has_value());
    ASSERT_STREQ(responseType(*response), "result");
    std::optional<JsonValue> metrics =
        client->call(requestEnvelope(2, "metrics"));
    ASSERT_TRUE(metrics.has_value());
    ASSERT_STREQ(responseType(*metrics), "metrics");
    const JsonValue *stats = metrics->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("counters")->find("jobs.completed")->asU64(),
              1u);
    EXPECT_EQ(stats->find("histograms")
                  ->find("latency.totalMicros")
                  ->find("count")
                  ->asU64(),
              1u);
}

// plan.derivedRuns counts the backend runs the daemon derived instead
// of simulating: an interactive run of gzip (no MAY edge, all three
// backends) derives its NACHOS run from NACHOS-SW's, one of art (MAY
// edges) simulates it.
TEST_F(DaemonTest, DerivedRunsCountNachosRunsWithoutMayEdges)
{
    start(2);
    auto client = connect();
    ASSERT_NE(client, nullptr);
    RunOpts opts;
    opts.invocations = 2;
    opts.klass = "interactive";
    uint64_t id = 0;
    const auto run = [&](const char *workload) {
        std::optional<JsonValue> response =
            client->call(runRequest(++id, workload, opts));
        ASSERT_TRUE(response.has_value()) << workload;
        ASSERT_STREQ(responseType(*response), "result") << workload;
    };
    run("164.gzip");
    EXPECT_EQ(counterValue("plan.derivedRuns"), 1u);
    const uint64_t events = counterValue("plan.eventsDispatched");
    EXPECT_GT(events, 0u);
    run("179.art");
    EXPECT_EQ(counterValue("plan.derivedRuns"), 1u);
    EXPECT_GT(counterValue("plan.eventsDispatched"), events);
}

// A finished connection's reader thread is joined at the next accept:
// a stream of short connections keeps no thread stacks behind.
TEST_F(DaemonTest, SequentialConnectionsKeepNoReaderThreads)
{
    const auto mapLines = [] {
        std::ifstream maps("/proc/self/maps");
        size_t lines = 0;
        for (std::string line; std::getline(maps, line);)
            ++lines;
        return lines;
    };
    const auto pingOnce = [this] {
        auto client = connect();
        ASSERT_NE(client, nullptr);
        ASSERT_TRUE(client->call(requestEnvelope(1, "ping")).has_value());
    };
    start();
    for (int i = 0; i < 8; ++i)
        pingOnce();
    const size_t before = mapLines();
    for (int i = 0; i < 200; ++i)
        pingOnce();
    EXPECT_LT(mapLines(), before + 40);
}

// One I/O loop serves every connection: open connections cost the
// daemon no threads.
TEST_F(DaemonTest, ConnectionsCostNoThreads)
{
    const auto threads = [] {
        const std::filesystem::directory_iterator tasks("/proc/self/task");
        return std::distance(begin(tasks), end(tasks));
    };
    start();
    const auto before = threads();
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (uint64_t id = 1; id <= 16; ++id) {
        clients.push_back(connect());
        ASSERT_NE(clients.back(), nullptr);
        ASSERT_TRUE(
            clients.back()->call(requestEnvelope(id, "ping")).has_value());
    }
    EXPECT_EQ(threads(), before);
}

// Satellite (a): a job through nachosd yields byte-identical result
// JSON to a direct Runner call, for all three backends.
TEST_F(DaemonTest, GoldenEquivalenceWithDirectRunner)
{
    start();
    auto client = connect();
    ASSERT_NE(client, nullptr);

    struct Case
    {
        const char *workload;
        RunOpts opts;
    };
    std::vector<Case> cases;
    // All three backends together on a workload with real alias pairs.
    RunOpts art;
    art.seed = 3;
    art.invocations = 3;
    cases.push_back({"179.art", art});
    // Each backend alone.
    cases.push_back(
        {"164.gzip", {.invocations = 2, .backends = {"lsq"}}});
    cases.push_back(
        {"164.gzip", {.invocations = 2, .backends = {"sw"}}});
    cases.push_back(
        {"164.gzip", {.invocations = 2, .backends = {"nachos"}}});

    uint64_t id = 1;
    for (const Case &c : cases) {
        std::optional<JsonValue> response =
            client->call(runRequest(id, c.workload, c.opts));
        ASSERT_TRUE(response.has_value()) << c.workload;
        ASSERT_STREQ(responseType(*response), "result")
            << dumpJson(*response);
        EXPECT_EQ(response->find("id")->asU64(), id);
        const JsonValue *outcome = response->find("outcome");
        ASSERT_NE(outcome, nullptr);
        EXPECT_EQ(dumpJson(*outcome),
                  directOutcomeJson(c.workload, c.opts))
            << c.workload << " (case " << id << ")";
        ++id;
    }
}

// Satellite (b): >= 16 simultaneous connections, each with its own
// job; all complete with per-job-correct results and the final
// metrics snapshot adds up.
TEST_F(DaemonTest, SixteenConcurrentConnections)
{
    constexpr int kClients = 16;
    start();

    std::vector<std::string> got(kClients);
    std::vector<std::string> want(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            const RunOpts opts{.seed = static_cast<uint64_t>(i + 1),
                               .invocations = 2,
                               .backends = {"nachos"}};
            std::string error;
            auto client = ServiceClient::connectUnix(path_, &error);
            if (!client) {
                ++failures;
                return;
            }
            const uint64_t id = static_cast<uint64_t>(i + 1);
            std::optional<JsonValue> response =
                client->call(runRequest(id, "164.gzip", opts));
            if (!response ||
                std::string(responseType(*response)) != "result" ||
                response->find("id")->asU64() != id) {
                ++failures;
                return;
            }
            got[static_cast<size_t>(i)] =
                dumpJson(*response->find("outcome"));
            want[static_cast<size_t>(i)] =
                directOutcomeJson("164.gzip", opts);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    for (int i = 0; i < kClients; ++i) {
        ASSERT_FALSE(got[static_cast<size_t>(i)].empty()) << i;
        EXPECT_EQ(got[static_cast<size_t>(i)],
                  want[static_cast<size_t>(i)])
            << "seed " << i + 1;
    }

    // Results flush to clients before the accounting settles (drain
    // depends on that ordering), so wait for quiescence first.
    waitUntil(
        [&] {
            return counterValue("jobs.completed") == 16 &&
                   counterValue("jobs.outstanding") == 0;
        },
        "all 16 jobs to settle");

    // Final metrics are consistent with exactly these 16 jobs —
    // queried over the wire like any client would.
    auto client = connect();
    ASSERT_NE(client, nullptr);
    std::optional<JsonValue> response =
        client->call(requestEnvelope(1, "metrics"));
    ASSERT_TRUE(response.has_value());
    ASSERT_STREQ(responseType(*response), "metrics");
    const JsonValue *stats = response->find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue *counters = stats->find("counters");
    ASSERT_NE(counters, nullptr);
    auto counter = [&](const char *name) -> uint64_t {
        const JsonValue *v = counters->find(name);
        return v && v->isU64() ? v->asU64() : 0;
    };
    EXPECT_EQ(counter("jobs.accepted"), 16u);
    EXPECT_EQ(counter("jobs.completed"), 16u);
    EXPECT_EQ(counter("jobs.rejected"), 0u);
    EXPECT_EQ(counter("jobs.failed"), 0u);
    EXPECT_EQ(counter("jobs.outstanding"), 0u);
    EXPECT_EQ(counter("queue.depth"), 0u);
    EXPECT_GE(counter("conns.accepted"), 17u);
    const JsonValue *histograms = stats->find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *total = histograms->find("latency.totalMicros");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->find("count")->asU64(), 16u);

    // Firing-plan observability rides along in the same snapshot:
    // every completed sim folds its dispatched-event count into the
    // daemon's metrics, so 16 real workload runs must have dispatched
    // events.
    EXPECT_GT(counter("plan.eventsDispatched"), 0u);
}

// Satellite (c): malformed input of every shape gets a typed error
// and the daemon stays alive.
TEST_F(DaemonTest, MalformedInputGetsTypedErrorsAndDaemonSurvives)
{
    start();
    auto client = connect();
    ASSERT_NE(client, nullptr);

    struct Bad
    {
        const char *line;
        const char *code;
    };
    const Bad cases[] = {
        {"{", "bad_json"},                       // truncated JSON
        {"{\"v\":1,\"id\":2,\"type\":\"run\",\"run\":{\"workload\":",
         "bad_json"},                            // truncated mid-member
        {"garbage", "bad_json"},
        {"[1,2]", "bad_request"},
        {"{\"v\":\"one\",\"id\":3,\"type\":\"ping\"}", "bad_request"},
        {"{\"v\":9,\"id\":4,\"type\":\"ping\"}", "unsupported_version"},
        {"{\"v\":1,\"id\":5,\"type\":\"frobnicate\"}", "unknown_type"},
        {"{\"v\":1,\"id\":6,\"type\":\"run\",\"run\":"
         "{\"workload\":\"no.such\"}}",
         "unknown_workload"},
        {"{\"v\":1,\"id\":7,\"type\":\"run\",\"run\":"
         "{\"workload\":\"art\",\"pathIndex\":77}}",
         "bad_path_index"},
        {"{\"v\":1,\"id\":8,\"type\":\"run\",\"run\":"
         "{\"workload\":\"art\",\"seed\":\"yes\"}}",
         "bad_seed"},
        {"{\"v\":1,\"id\":9,\"type\":\"run\",\"run\":"
         "{\"workload\":\"art\",\"sleepMillis\":999999999}}",
         "bad_request"},                          // huge field value
    };
    for (const Bad &c : cases) {
        ASSERT_TRUE(client->sendRaw(std::string(c.line) + "\n"));
        std::optional<JsonValue> response = client->readResponse();
        ASSERT_TRUE(response.has_value()) << c.line;
        EXPECT_STREQ(responseType(*response), "error") << c.line;
        EXPECT_EQ(errorCode(*response), c.code) << c.line;
    }

    // The same connection still serves valid requests...
    std::optional<JsonValue> pong =
        client->call(requestEnvelope(100, "ping"));
    ASSERT_TRUE(pong.has_value());
    EXPECT_STREQ(responseType(*pong), "pong");
    EXPECT_EQ(counterValue("requests.errors"),
              static_cast<uint64_t>(std::size(cases)));

    // ...and an over-long line (no newline in sight) gets `oversized`,
    // after which only that connection is dropped.
    auto hog = connect();
    ASSERT_NE(hog, nullptr);
    std::string huge(kMaxRequestLineBytes + 2, 'x');
    ASSERT_TRUE(hog->sendRaw(huge));
    std::optional<JsonValue> oversized = hog->readResponse();
    ASSERT_TRUE(oversized.has_value());
    EXPECT_EQ(errorCode(*oversized), "oversized");
    EXPECT_FALSE(hog->readResponse().has_value()); // connection closed

    // The daemon is still alive for everyone else.
    auto fresh = connect();
    ASSERT_NE(fresh, nullptr);
    std::optional<JsonValue> alive =
        fresh->call(requestEnvelope(1, "ping"));
    ASSERT_TRUE(alive.has_value());
    EXPECT_STREQ(responseType(*alive), "pong");
}

TEST_F(DaemonTest, BackpressureRejectsWhenQueueFull)
{
    start(/*workers=*/1, /*queueCapacity=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts slow = fast;
    slow.sleepMillis = 300;

    // Job 1 occupies the single worker...
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 1 &&
                   counterValue("queue.depth") == 0;
        },
        "job 1 to start running");
    // ...job 2 fills the queue's only slot...
    ASSERT_TRUE(client->sendRequest(runRequest(2, "164.gzip", fast)));
    waitUntil([&] { return counterValue("queue.depth") == 1; },
              "job 2 to be queued");
    // ...so job 3 must bounce with queue_full, immediately.
    ASSERT_TRUE(client->sendRequest(runRequest(3, "164.gzip", fast)));
    std::optional<JsonValue> rejected = client->waitFor(3);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(errorCode(*rejected), "queue_full");

    // The admitted jobs still complete normally.
    std::optional<JsonValue> first = client->waitFor(1);
    ASSERT_TRUE(first.has_value());
    EXPECT_STREQ(responseType(*first), "result");
    std::optional<JsonValue> second = client->waitFor(2);
    ASSERT_TRUE(second.has_value());
    EXPECT_STREQ(responseType(*second), "result");

    EXPECT_EQ(counterValue("jobs.rejected"), 1u);
    EXPECT_EQ(counterValue("jobs.accepted"), 2u);
    waitUntil([&] { return counterValue("jobs.completed") == 2; },
              "the job accounting to settle");
}

// Capacity bounds the daemon's one queue, not a per-connection slice
// of it: a second connection shares the slot the first one filled.
TEST_F(DaemonTest, QueueCapacityIsDaemonWide)
{
    start(/*workers=*/2, /*queueCapacity=*/1);
    auto first = connect();
    auto second = connect();
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);

    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts slow = fast;
    slow.sleepMillis = 300;

    // Jobs 1 and 2 occupy both workers (one at a time: the queue has
    // a single slot)...
    for (const uint64_t id : {1u, 2u}) {
        ASSERT_TRUE(first->sendRequest(runRequest(id, "164.gzip", slow)));
        waitUntil(
            [&] {
                return counterValue("jobs.accepted") == id &&
                       counterValue("queue.depth") == 0;
            },
            "the sleeper to start running");
    }
    // ...job 3 fills the queue's only interactive slot...
    ASSERT_TRUE(first->sendRequest(runRequest(3, "164.gzip", fast)));
    waitUntil([&] { return counterValue("queue.depth") == 1; },
              "job 3 to be queued");
    // ...so job 4 bounces even though it arrives on another connection.
    ASSERT_TRUE(second->sendRequest(runRequest(4, "164.gzip", fast)));
    std::optional<JsonValue> rejected = second->waitFor(4);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(errorCode(*rejected), "queue_full");

    for (const uint64_t id : {1u, 2u, 3u}) {
        std::optional<JsonValue> response = first->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        EXPECT_STREQ(responseType(*response), "result") << id;
    }
    EXPECT_EQ(counterValue("jobs.rejected"), 1u);
    EXPECT_EQ(counterValue("daemon.workers"), 2u);
}

// Every worker claims from the one queue, so two sleeps pipelined on a
// single connection run side by side on the two workers.
TEST_F(DaemonTest, AnyWorkerServesAnyConnection)
{
    start(/*workers=*/2);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    RunOpts slow{.invocations = 1, .backends = {"nachos"}};
    slow.sleepMillis = 300;
    const auto sent = std::chrono::steady_clock::now();
    for (const uint64_t id : {1u, 2u})
        ASSERT_TRUE(client->sendRequest(runRequest(id, "164.gzip", slow)));
    for (const uint64_t id : {1u, 2u}) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        EXPECT_STREQ(responseType(*response), "result") << id;
    }
    // Back to back on one worker would take at least 600 ms.
    EXPECT_LT(std::chrono::steady_clock::now() - sent,
              std::chrono::milliseconds(550));
}

TEST_F(DaemonTest, WatchdogTimesOutQueuedAndRunningJobs)
{
    start(/*workers=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts slow = fast;
    slow.sleepMillis = 300;

    // Queued expiry: job 2 waits behind the sleeping job 1 and its
    // 50 ms deadline fires before a worker ever picks it up.
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 1 &&
                   counterValue("queue.depth") == 0;
        },
        "job 1 to start running");
    RunOpts deadline = fast;
    deadline.timeoutMillis = 50;
    ASSERT_TRUE(
        client->sendRequest(runRequest(2, "164.gzip", deadline)));
    std::optional<JsonValue> expired = client->waitFor(2);
    ASSERT_TRUE(expired.has_value());
    EXPECT_EQ(errorCode(*expired), "timeout");
    std::optional<JsonValue> first = client->waitFor(1);
    ASSERT_TRUE(first.has_value());
    EXPECT_STREQ(responseType(*first), "result");

    // Running expiry: job 3 sleeps past its own deadline; the
    // watchdog answers and the worker's late result is discarded.
    RunOpts overdue = slow;
    overdue.timeoutMillis = 50;
    ASSERT_TRUE(
        client->sendRequest(runRequest(3, "164.gzip", overdue)));
    std::optional<JsonValue> timedOut = client->waitFor(3);
    ASSERT_TRUE(timedOut.has_value());
    EXPECT_EQ(errorCode(*timedOut), "timeout");
    waitUntil([&] { return counterValue("jobs.lateResults") == 1; },
              "the late result to be discarded");
    EXPECT_EQ(counterValue("jobs.expired"), 2u);
    EXPECT_EQ(counterValue("jobs.completed"), 1u);
    // The expired-while-queued job never ran; the late one did.
    expectOneLookupPerExecutedJob();
    EXPECT_EQ(counterValue("cache.hits") + counterValue("cache.misses"),
              2u);
}

// The poll timeout runs to the nearest deadline, including one that
// arrives after a later deadline: behind a sleeping job, a 50 ms run
// sent after a 1000 ms run times out first.
TEST_F(DaemonTest, LaterRequestWithEarlierDeadlineExpiresFirst)
{
    start(/*workers=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts slow = fast;
    slow.sleepMillis = 1500;
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 1 &&
                   counterValue("queue.depth") == 0;
        },
        "job 1 to start running");

    RunOpts later = fast;
    later.timeoutMillis = 1000;
    RunOpts sooner = fast;
    sooner.timeoutMillis = 50;
    ASSERT_TRUE(client->sendRequest(runRequest(2, "164.gzip", later)));
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(client->sendRequest(runRequest(3, "164.gzip", sooner)));
    std::optional<JsonValue> expired = client->waitFor(3);
    ASSERT_TRUE(expired.has_value());
    EXPECT_EQ(errorCode(*expired), "timeout");
    EXPECT_LT(std::chrono::steady_clock::now() - sent,
              std::chrono::milliseconds(500));

    std::optional<JsonValue> second = client->waitFor(2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(errorCode(*second), "timeout");
    std::optional<JsonValue> first = client->waitFor(1);
    ASSERT_TRUE(first.has_value());
    EXPECT_STREQ(responseType(*first), "result");
}

TEST_F(DaemonTest, CancelQueuedJobOnly)
{
    start(/*workers=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts slow = fast;
    slow.sleepMillis = 300;

    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 1 &&
                   counterValue("queue.depth") == 0;
        },
        "job 1 to start running");
    ASSERT_TRUE(client->sendRequest(runRequest(2, "164.gzip", fast)));
    waitUntil([&] { return counterValue("queue.depth") == 1; },
              "job 2 to be queued");

    // Cancel the queued job: ok for the canceller, `cancelled` for
    // the job itself.
    JsonValue cancel = requestEnvelope(10, "cancel");
    cancel.set("target", 2);
    std::optional<JsonValue> ok = client->call(cancel);
    ASSERT_TRUE(ok.has_value());
    EXPECT_STREQ(responseType(*ok), "ok");
    std::optional<JsonValue> cancelled = client->waitFor(2);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(errorCode(*cancelled), "cancelled");

    // A running job, an already-cancelled job, and a made-up id are
    // all not cancellable.
    for (const uint64_t target : {1u, 2u, 99u}) {
        JsonValue again = requestEnvelope(11 + target, "cancel");
        again.set("target", target);
        std::optional<JsonValue> nope = client->call(again);
        ASSERT_TRUE(nope.has_value()) << target;
        EXPECT_EQ(errorCode(*nope), "not_cancellable") << target;
    }

    std::optional<JsonValue> first = client->waitFor(1);
    ASSERT_TRUE(first.has_value());
    EXPECT_STREQ(responseType(*first), "result");
    EXPECT_EQ(counterValue("jobs.cancelled"), 1u);
}

TEST_F(DaemonTest, DuplicateActiveIdRejected)
{
    start(/*workers=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);
    RunOpts slow{.invocations = 1, .backends = {"nachos"}};
    slow.sleepMillis = 200;
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil([&] { return counterValue("jobs.accepted") == 1; },
              "job 1 to be admitted");
    // Same id while job 1 is still active: rejected immediately, so
    // the error arrives before job 1's result.
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", {})));
    std::optional<JsonValue> dup = client->waitFor(1);
    ASSERT_TRUE(dup.has_value());
    EXPECT_STREQ(responseType(*dup), "error");
    EXPECT_EQ(errorCode(*dup), "bad_request");
    std::optional<JsonValue> result = client->waitFor(1);
    ASSERT_TRUE(result.has_value());
    EXPECT_STREQ(responseType(*result), "result");
}

// A connection keeps no state for its finished jobs: ten thousand
// runs refused with `queue_full` leave the heap where it was.
TEST_F(DaemonTest, FinishedJobsLeaveNoPerConnectionState)
{
    start(/*workers=*/1, /*queueCapacity=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    // A first run fills the region cache and the worker's pool, so a
    // run admitted below (a slow host outlasting the sleeper) leaves
    // nothing behind either.
    const RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    std::optional<JsonValue> warm =
        client->call(runRequest(1, "164.gzip", fast));
    ASSERT_TRUE(warm.has_value());
    ASSERT_STREQ(responseType(*warm), "result");

    // The sleeper holds the one worker, and job 3 the one queue slot.
    RunOpts slow = fast;
    slow.sleepMillis = 2000;
    ASSERT_TRUE(client->sendRequest(runRequest(2, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 2 &&
                   counterValue("queue.depth") == 0;
        },
        "the sleeper to start running");
    ASSERT_TRUE(client->sendRequest(runRequest(3, "164.gzip", fast)));
    waitUntil([&] { return counterValue("queue.depth") == 1; },
              "job 3 to be queued");

    constexpr uint64_t kRuns = 10'000;
    constexpr uint64_t kPipelined = 500;
    const size_t before = mallinfo2().uordblks;
    for (uint64_t first = 100; first < 100 + kRuns; first += kPipelined) {
        std::string lines;
        for (uint64_t id = first; id < first + kPipelined; ++id)
            lines += dumpJson(runRequest(id, "164.gzip", fast)) + "\n";
        ASSERT_TRUE(client->sendRaw(lines));
        for (uint64_t i = 0; i < kPipelined; ++i)
            ASSERT_TRUE(client->readResponse().has_value());
    }
    const size_t after = mallinfo2().uordblks;
    EXPECT_LT(after, before + (size_t{1} << 20))
        << "heap grew " << after - before << " bytes over " << kRuns
        << " runs";
}

TEST_F(DaemonTest, DrainAnswersAdmittedJobsAndRejectsNewOnes)
{
    start(/*workers=*/1);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    RunOpts slow{.invocations = 1, .backends = {"nachos"}};
    slow.sleepMillis = 300;
    RunOpts queued = slow;
    queued.sleepMillis = 50;
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    ASSERT_TRUE(client->sendRequest(runRequest(2, "164.gzip", queued)));
    ASSERT_TRUE(client->sendRequest(runRequest(3, "164.gzip", queued)));
    waitUntil([&] { return counterValue("jobs.accepted") == 3; },
              "all three jobs to be admitted");

    std::thread drainer([&] { daemon_->drain(); });
    waitUntil([&] { return counterValue("daemon.draining") == 1; },
              "the drain to begin");

    // A run submitted mid-drain bounces; already-admitted jobs all
    // still get their results before the sockets close.
    ASSERT_TRUE(client->sendRequest(runRequest(4, "164.gzip", {})));
    std::optional<JsonValue> late = client->waitFor(4);
    ASSERT_TRUE(late.has_value());
    EXPECT_EQ(errorCode(*late), "shutting_down");
    for (const uint64_t id : {1u, 2u, 3u}) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        EXPECT_STREQ(responseType(*response), "result") << id;
    }
    drainer.join();

    // After the drain: end-of-stream on the old connection, and no
    // new connections (the socket is gone).
    EXPECT_FALSE(client->readResponse().has_value());
    std::string error;
    EXPECT_EQ(ServiceClient::connectUnix(path_, &error), nullptr);
}

TEST_F(DaemonTest, ShutdownRequestStopsTheDaemon)
{
    start();
    auto client = connect();
    ASSERT_NE(client, nullptr);
    EXPECT_FALSE(daemon_->stopRequested());
    std::optional<JsonValue> ok =
        client->call(requestEnvelope(1, "shutdown"));
    ASSERT_TRUE(ok.has_value());
    EXPECT_STREQ(responseType(*ok), "ok");
    // The `shutdown` handler acknowledges first, then requests the
    // stop — exactly what the nachosd main loop waits on.
    daemon_->waitUntilStopRequested();
    EXPECT_TRUE(daemon_->stopRequested());
}

TEST_F(DaemonTest, DefaultTimeoutAppliesWhenJobSetsNone)
{
    start(/*workers=*/1, /*queueCapacity=*/64,
          /*defaultTimeoutMillis=*/50);
    auto client = connect();
    ASSERT_NE(client, nullptr);
    RunOpts slow{.invocations = 1, .backends = {"nachos"}};
    slow.sleepMillis = 300; // no timeoutMillis: daemon default applies
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    std::optional<JsonValue> response = client->waitFor(1);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(errorCode(*response), "timeout");
}

// ---- serving plane: region cache, classes, cache-off mode ----

// A pipelined bulk burst of one region returns per-request-correct,
// byte-identical results, and the cache metrics add up: one front-end
// lookup per executed job, all but the first a hit.
TEST_F(DaemonTest, BulkBurstStaysByteIdentical)
{
    DaemonConfig config;
    config.workers = 1;
    startWith(config);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    constexpr uint64_t kJobs = 12;
    RunOpts opts{.seed = 5, .invocations = 2, .backends = {"nachos"}};
    opts.klass = "bulk";
    for (uint64_t id = 1; id <= kJobs; ++id)
        ASSERT_TRUE(
            client->sendRequest(runRequest(id, "164.gzip", opts)));
    const std::string want = directOutcomeJson("164.gzip", opts);
    for (uint64_t id = 1; id <= kJobs; ++id) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        ASSERT_STREQ(responseType(*response), "result") << id;
        EXPECT_EQ(dumpJson(*response->find("outcome")), want) << id;
    }

    waitUntil([&] { return counterValue("jobs.completed") == kJobs; },
              "the accounting to settle");
    EXPECT_EQ(counterValue("jobs.accepted"), kJobs);
    EXPECT_EQ(counterValue("jobs.acceptedBulk"), kJobs);
    expectOneLookupPerExecutedJob();
    EXPECT_EQ(counterValue("cache.misses"), 1u); // one key
    EXPECT_EQ(counterValue("cache.hits"), kJobs - 1);
    EXPECT_EQ(counterValue("cache.size"), 1u);
}

// Bulk jobs pipelined on one new region share one front-end build:
// while one worker builds it, the other claims none of them (or waits
// for that build in the cache), so the cache counts one miss.
TEST_F(DaemonTest, PipelinedBulkJobsBuildOneFrontEnd)
{
    start(/*workers=*/2);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    constexpr uint64_t kJobs = 8;
    RunOpts opts{.seed = 11, .invocations = 1, .backends = {"lsq"}};
    opts.klass = "bulk";
    for (uint64_t id = 1; id <= kJobs; ++id)
        ASSERT_TRUE(client->sendRequest(runRequest(id, "183.equake", opts)));
    for (uint64_t id = 1; id <= kJobs; ++id) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        EXPECT_STREQ(responseType(*response), "result") << id;
    }
    waitUntil([&] { return counterValue("jobs.completed") == kJobs; },
              "the accounting to settle");
    expectOneLookupPerExecutedJob();
    EXPECT_EQ(counterValue("cache.misses"), 1u);
    EXPECT_EQ(counterValue("cache.hits"), kJobs - 1);
}

// Interactive and bulk rings are bounded independently; filling the
// bulk ring must not reject interactive work.
TEST_F(DaemonTest, PerClassQueueBounds)
{
    DaemonConfig config;
    config.workers = 1;
    config.queueCapacity = 8;    // interactive: roomy
    config.bulkQueueCapacity = 1; // bulk: one slot
    startWith(config);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    // A sleeper occupies the worker (interactive, runs immediately).
    RunOpts slow{.invocations = 1, .backends = {"nachos"}};
    slow.sleepMillis = 300;
    ASSERT_TRUE(client->sendRequest(runRequest(1, "164.gzip", slow)));
    waitUntil(
        [&] {
            return counterValue("jobs.accepted") == 1 &&
                   counterValue("queue.depth") == 0;
        },
        "the sleeper to start running");

    // Bulk job 2 takes the single bulk slot; bulk job 3 bounces.
    RunOpts fast{.invocations = 1, .backends = {"nachos"}};
    RunOpts bulk = fast;
    bulk.klass = "bulk";
    for (const uint64_t id : {2u, 3u})
        ASSERT_TRUE(
            client->sendRequest(runRequest(id, "164.gzip", bulk)));
    std::optional<JsonValue> rejected = client->waitFor(3);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(errorCode(*rejected), "queue_full");

    // Interactive admission is unaffected by the full bulk ring.
    ASSERT_TRUE(client->sendRequest(runRequest(4, "164.gzip", fast)));
    std::optional<JsonValue> interactive = client->waitFor(4);
    ASSERT_TRUE(interactive.has_value());
    EXPECT_STREQ(responseType(*interactive), "result");

    for (const uint64_t id : {1u, 2u}) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        EXPECT_STREQ(responseType(*response), "result") << id;
    }
    EXPECT_EQ(counterValue("jobs.rejected"), 1u);
}

// Cache off (--region-cache 0) is just a cache that stores nothing:
// every job builds its front end afresh on the same execution path
// and serves the same bytes as runWorkload, for every backend mix.
TEST_F(DaemonTest, CacheOffMatchesDirectRunner)
{
    DaemonConfig config;
    config.workers = 1;
    config.regionCacheEntries = 0;
    startWith(config);
    auto client = connect();
    ASSERT_NE(client, nullptr);

    RunOpts all{.seed = 9, .invocations = 2, .backends = {}};
    all.klass = "bulk";
    RunOpts nachosOnly = all;
    nachosOnly.backends = {"nachos"};
    const RunOpts *opts[] = {&all, &nachosOnly, &all, &nachosOnly};
    for (uint64_t id = 1; id <= 4; ++id)
        ASSERT_TRUE(client->sendRequest(
            runRequest(id, "179.art", *opts[id - 1])));
    for (uint64_t id = 1; id <= 4; ++id) {
        std::optional<JsonValue> response = client->waitFor(id);
        ASSERT_TRUE(response.has_value()) << id;
        ASSERT_STREQ(responseType(*response), "result") << id;
        EXPECT_EQ(dumpJson(*response->find("outcome")),
                  directOutcomeJson("179.art", *opts[id - 1]))
            << id;
    }
    waitUntil([&] { return counterValue("jobs.completed") == 4; },
              "the accounting to settle");
    // Every job looked the cache up and missed; nothing stayed.
    expectOneLookupPerExecutedJob();
    EXPECT_EQ(counterValue("cache.misses"), 4u);
    EXPECT_EQ(counterValue("cache.hits"), 0u);
    EXPECT_EQ(counterValue("cache.size"), 0u);
}

// The global admission invariant the metrics endpoint promises:
// accepted >= completed + cancelled + expired at every instant, and
// equality once quiescent.
TEST_F(DaemonTest, AdmissionAccountingBalances)
{
    DaemonConfig config;
    config.workers = 2;
    startWith(config);

    constexpr int kClients = 4;
    constexpr uint64_t kPerClient = 6;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            std::string error;
            auto client = ServiceClient::connectUnix(path_, &error);
            if (!client) {
                ++failures;
                return;
            }
            RunOpts opts{.seed = static_cast<uint64_t>(c + 1),
                         .invocations = 1,
                         .backends = {"nachos"}};
            if (c % 2)
                opts.klass = "bulk";
            for (uint64_t id = 1; id <= kPerClient; ++id) {
                if (!client->sendRequest(
                        runRequest(id, "164.gzip", opts))) {
                    ++failures;
                    return;
                }
            }
            for (uint64_t id = 1; id <= kPerClient; ++id) {
                std::optional<JsonValue> response = client->waitFor(id);
                if (!response ||
                    std::string(responseType(*response)) != "result")
                    ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    constexpr uint64_t kTotal = kClients * kPerClient;
    waitUntil([&] { return counterValue("jobs.completed") == kTotal; },
              "the accounting to settle");
    EXPECT_EQ(counterValue("jobs.accepted"), kTotal);
    EXPECT_EQ(counterValue("jobs.accepted"),
              counterValue("jobs.completed") +
                  counterValue("jobs.cancelled") +
                  counterValue("jobs.expired"));
    EXPECT_EQ(counterValue("jobs.acceptedBulk") +
                  counterValue("jobs.acceptedInteractive"),
              kTotal);
    // Every executed job did exactly one front-end lookup.
    expectOneLookupPerExecutedJob();
}

} // namespace
} // namespace nachos
