/**
 * @file
 * Load generator for nachosd: N concurrent client connections driving
 * identical run requests in either closed-loop (each client keeps one
 * request in flight: send, wait, repeat) or open-loop mode (requests
 * are launched on a fixed schedule regardless of completions, the
 * honest way to measure latency under load — closed loops
 * coordinate-omit: a slow server slows the arrival rate and hides its
 * own queueing delay).
 *
 * Shared by the nachos_loadgen CLI and bench_service_slo, so every
 * serving measurement in the repo drives the daemon the same way.
 */

#ifndef NACHOS_SERVICE_LOADGEN_HH
#define NACHOS_SERVICE_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/run_json.hh"
#include "support/stats.hh"

namespace nachos {

struct LoadGenConfig
{
    /** Unix socket path, or host:port when tcpPort != 0. */
    std::string socketPath;
    std::string tcpHost = "127.0.0.1";
    uint16_t tcpPort = 0;

    /** Concurrent connections. */
    unsigned clients = 1;

    /**
     * Closed loop: requests each client completes before exiting.
     * Ignored in open-loop mode.
     */
    uint64_t requestsPerClient = 64;

    /**
     * Open loop when > 0: aggregate arrival rate in requests/second,
     * spread evenly over the clients, for `durationSeconds`.
     */
    double openRps = 0;
    double durationSeconds = 5;

    // ---- the (identical) request every client sends ----
    std::string workload = "164.gzip";
    uint32_t pathIndex = 0;
    uint64_t seed = 1;
    std::vector<std::string> backends = {"nachos"};
    uint64_t invocations = 1;
    uint64_t timeoutMillis = 0;
    AdmitClass klass = AdmitClass::Bulk;
};

struct LoadGenResult
{
    uint64_t sent = 0;
    uint64_t completed = 0;      ///< `result` responses
    uint64_t errors = 0;         ///< well-formed `error` responses
    uint64_t protocolErrors = 0; ///< EOF / unparseable / wrong type
    LatencyHistogram latencyMicros; ///< send -> response, per request
    double wallSeconds = 0;

    double
    achievedRps() const
    {
        return wallSeconds > 0 ? completed / wallSeconds : 0;
    }
};

/**
 * Run the configured load. Returns false (with *error filled) only on
 * setup failure (no connection); per-request failures are counted in
 * the result instead.
 */
bool runLoadGen(const LoadGenConfig &config, LoadGenResult &result,
                std::string *error = nullptr);

/** One JSON row of a result (the nachos_loadgen --json payload). */
JsonValue loadGenResultJson(const LoadGenConfig &config,
                            const LoadGenResult &result);

} // namespace nachos

#endif // NACHOS_SERVICE_LOADGEN_HH
