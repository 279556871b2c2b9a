/**
 * @file
 * nachosd SLO curve: sustained req/s at a p99 latency bound, with and
 * without the synthesized-region cache. Config A is the cache-off
 * daemon (every job synthesizes, analyzes and inserts MDEs afresh);
 * config B serves the front end from the region cache. Both are
 * driven by the same closed-loop loadgen (service/loadgen.hh) over
 * 1/4/16/64 client connections sending identical bulk jobs
 * (183.equake, 1 invocation, nachos backend).
 *
 * Also measures interactive p99 while a 16-client bulk sweep runs on
 * config B — the per-class rings mean bulk load must not wreck
 * interactive latency.
 *
 * With `--json <path>` the req/s-at-p99 rows are appended to the
 * suite timing-record format (extra `reqps`/`p99Micros` members ride
 * along; tools/perf_report.py renders them as the SLO section).
 * Timing never gates: the exit code only reflects protocol errors.
 */

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "harness/report.hh"
#include "harness/suite_runner.hh"
#include "service/daemon.hh"
#include "service/loadgen.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace nachos;

namespace {

constexpr int kTotalRequests = 128; ///< per (config, client count)

std::string
gitSha()
{
    std::string sha;
    if (FILE *pipe =
            popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (fgets(buf, sizeof(buf), pipe))
            sha = buf;
        pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

DaemonConfig
makeConfig(const std::string &socketPath, bool cached)
{
    DaemonConfig config;
    config.socketPath = socketPath;
    config.workers = 4;
    config.regionCacheEntries = cached ? 64 : 0;
    config.queueCapacity = 256;
    config.bulkQueueCapacity = 512;
    return config;
}

LoadGenConfig
makeLoad(const std::string &socketPath, unsigned clients,
         uint64_t requestsPerClient, AdmitClass klass)
{
    LoadGenConfig load;
    load.socketPath = socketPath;
    load.clients = clients;
    load.requestsPerClient = requestsPerClient;
    load.workload = "183.equake";
    load.invocations = 1;
    load.seed = 1;
    load.backends = {"nachos"};
    load.klass = klass;
    return load;
}

struct SloPoint
{
    unsigned clients = 0;
    double reqps = 0;
    uint64_t p99Micros = 0;
    bool clean = false; ///< no errors, completed == sent
};

SloPoint
measure(bool cached, unsigned clients)
{
    const std::string socketPath =
        "/tmp/nachos-slo-" + std::to_string(::getpid()) + "-" +
        (cached ? "b" : "a") + std::to_string(clients) + ".sock";
    Daemon daemon(makeConfig(socketPath, cached));
    std::string error;
    SloPoint point;
    point.clients = clients;
    if (!daemon.start(&error)) {
        std::cerr << "nachosd start: " << error << "\n";
        return point;
    }
    const uint64_t perClient =
        std::max<uint64_t>(1, kTotalRequests / clients);
    LoadGenResult result;
    if (!runLoadGen(makeLoad(socketPath, clients, perClient,
                             AdmitClass::Bulk),
                    result, &error)) {
        std::cerr << "loadgen: " << error << "\n";
        daemon.drain();
        return point;
    }
    point.reqps = result.achievedRps();
    point.p99Micros = result.latencyMicros.p99();
    point.clean = result.errors == 0 && result.protocolErrors == 0 &&
                  result.completed == result.sent;
    daemon.drain();
    ::unlink(socketPath.c_str());
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::string jsonPath = suiteJsonPath(argc, argv);
    printHeader(std::cout, "Service",
                "nachosd SLO curve: bulk req/s at p99, region "
                "cache off (A) vs on (B)");

    bool allClean = true;
    std::vector<JsonValue> rows;
    const std::string sha = gitSha();
    auto pushRow = [&](const std::string &stage, unsigned clients,
                       double wallSeconds, double reqps,
                       uint64_t p99) {
        JsonValue row = JsonValue::makeObject();
        row.set("workload", "service");
        row.set("stage", stage);
        row.set("seconds",
                std::round(wallSeconds * 1e6) / 1e6);
        row.set("threads", static_cast<uint64_t>(clients));
        row.set("git_sha", sha);
        row.set("reqps", std::round(reqps * 10) / 10);
        row.set("p99Micros", p99);
        rows.push_back(std::move(row));
    };

    TextTable table;
    table.header({"clients", "A req/s", "A p99 us", "B req/s",
                  "B p99 us", "speedup"});
    for (const unsigned clients : {1u, 4u, 16u, 64u}) {
        const SloPoint a = measure(false, clients);
        const SloPoint b = measure(true, clients);
        allClean = allClean && a.clean && b.clean;
        table.row({std::to_string(clients), fmtDouble(a.reqps, 1),
                   std::to_string(a.p99Micros), fmtDouble(b.reqps, 1),
                   std::to_string(b.p99Micros),
                   a.reqps > 0 ? fmtDouble(b.reqps / a.reqps, 2) + "x"
                               : "n/a"});
        pushRow("slo-nocache-c" + std::to_string(clients), clients,
                a.reqps > 0 ? kTotalRequests / a.reqps : 0, a.reqps,
                a.p99Micros);
        pushRow("slo-sharded-c" + std::to_string(clients), clients,
                b.reqps > 0 ? kTotalRequests / b.reqps : 0, b.reqps,
                b.p99Micros);
    }
    table.print(std::cout);

    // ---- interactive p99 with and without a concurrent bulk sweep --
    {
        const std::string socketPath =
            "/tmp/nachos-slo-" + std::to_string(::getpid()) +
            "-mix.sock";
        Daemon daemon(makeConfig(socketPath, true));
        std::string error;
        if (!daemon.start(&error)) {
            std::cerr << "nachosd start: " << error << "\n";
            return 1;
        }

        LoadGenResult idle;
        allClean &= runLoadGen(makeLoad(socketPath, 1, 24,
                                        AdmitClass::Interactive),
                               idle, &error);

        LoadGenResult bulk;
        std::thread sweep([&] {
            runLoadGen(makeLoad(socketPath, 16, 12, AdmitClass::Bulk),
                       bulk, nullptr);
        });
        LoadGenResult contended;
        allClean &= runLoadGen(makeLoad(socketPath, 1, 24,
                                        AdmitClass::Interactive),
                               contended, &error);
        sweep.join();
        daemon.drain();
        ::unlink(socketPath.c_str());

        std::cout << "\ninteractive p99: "
                  << idle.latencyMicros.p99() << " us idle, "
                  << contended.latencyMicros.p99()
                  << " us under a 16-client bulk sweep ("
                  << fmtDouble(bulk.achievedRps(), 1)
                  << " bulk req/s alongside)\n";
        pushRow("slo-interactive-idle", 1, idle.wallSeconds,
                idle.achievedRps(), idle.latencyMicros.p99());
        pushRow("slo-interactive-contended", 1,
                contended.wallSeconds, contended.achievedRps(),
                contended.latencyMicros.p99());
        allClean = allClean && idle.completed == idle.sent &&
                   contended.completed == contended.sent &&
                   bulk.completed == bulk.sent;
    }

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        if (!os)
            NACHOS_FATAL("cannot write timing JSON to '", jsonPath,
                         "'");
        bool first = true;
        os << "[";
        for (const JsonValue &row : rows) {
            os << (first ? "" : ",") << "\n  " << dumpJson(row);
            first = false;
        }
        os << "\n]\n";
    }

    std::cout << "\nreport-only timing; exit reflects protocol "
                 "health only\n";
    return allClean ? 0 : 1;
}
