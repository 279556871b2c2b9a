/**
 * @file
 * nachosd: a long-running experiment server around the harness. It
 * listens on a Unix-domain socket (plus an optional loopback TCP
 * port), speaks the JSON-lines protocol of service/protocol.hh, and
 * executes admitted run requests on a pool of run-to-completion
 * workers — amortizing process setup across many requests instead of
 * paying it per bench invocation.
 *
 * Architecture (one box per thread kind):
 *
 *   accept loop ──> connection readers (1/conn) ──> one JobQueue
 *                                                   (interactive +
 *                                                    bulk rings)
 *                                                        │
 *   timeout watchdog <── deadline registry      N workers claim from it
 *        │
 *        └── answers `timeout`, workers answer `result`/`error`;
 *            an atomic per-job state machine guarantees exactly one
 *            response per request no matter who wins the race.
 *
 * Every connection pushes into the daemon's one dual-class JobQueue
 * (interactive and bulk rings with separate bounds), and every worker
 * claims from it, interactive first, so a request takes the first
 * worker that frees up whichever connection sent it. Each worker owns
 * a HierarchyPool that persists across jobs and a reusable encode
 * buffer. A worker claims one job at a time and runs it to
 * completion: the front end (synthesis + alias pipeline + MDEs) comes
 * from a daemon-wide LRU RegionCache (capacity 0 builds it fresh per
 * job), then harness simulateRequest runs the requested backends. The
 * cache builds each key once, and a worker claims no job whose front
 * end another worker is building: such a job keeps its place, Queued,
 * until the build lands and wakes the queue.
 * Results are encoded straight into the worker's buffer (protocol
 * appendResultResponse), so the steady-state request path performs no
 * per-request heap allocation.
 *
 * Backpressure: per-class ring capacity bounds admission daemon-wide;
 * a full ring answers `queue_full` immediately. Shutdown: drain()
 * stops the accept loop, lets every admitted job finish and flush its
 * response, then closes connections — SIGTERM/SIGINT in the nachosd
 * binary and the `shutdown` request both route here.
 */

#ifndef NACHOS_SERVICE_DAEMON_HH
#define NACHOS_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/region_cache.hh"
#include "service/job_queue.hh"
#include "service/protocol.hh"
#include "support/stats.hh"

namespace nachos {

struct DaemonConfig
{
    /** Unix-domain socket path (required). */
    std::string socketPath;
    /** Also listen on loopback TCP when nonzero. */
    uint16_t tcpPort = 0;
    /** Run-to-completion worker threads claiming from the queue. */
    unsigned workers = 2;
    /** Daemon-wide interactive ring capacity (admission control). */
    size_t queueCapacity = 64;
    /** Daemon-wide bulk ring capacity. */
    size_t bulkQueueCapacity = 256;
    /** Resident (region, analysis, mdes) cache entries; 0 disables. */
    size_t regionCacheEntries = 64;
    /** Deadline applied to jobs that do not set one; 0 = none. */
    uint64_t defaultTimeoutMillis = 0;
};

/**
 * Every counter and latency histogram of the daemon's `metrics`
 * (DESIGN.md §9.4), one field each, so every key is present from the
 * daemon's start. The row tables in daemon.cc give each field its wire
 * name. The gauges (cache.*, conns.active, daemon.*, jobs.outstanding,
 * queue.*) stay zero in the live struct; their owners fill them into a
 * snapshot's copy.
 */
struct DaemonMetrics
{
    Counter connsAccepted;
    Counter requestsTotal;
    Counter requestsErrors;
    Counter jobsAccepted;
    Counter jobsAcceptedInteractive;
    Counter jobsAcceptedBulk;
    Counter jobsRejected;
    Counter jobsRejectedDraining;
    Counter jobsCompleted;
    Counter jobsFailed;
    Counter jobsCancelled;
    Counter jobsExpired;
    Counter jobsLateResults;
    /** Events dispatched, summed over every backend run served. */
    Counter planEventsDispatched;

    // Gauges.
    Counter cacheHits;
    Counter cacheMisses;
    Counter cacheEvictions;
    Counter cacheSize;
    Counter queueDepth;
    Counter queueInteractiveDepth;
    Counter queueBulkDepth;
    Counter jobsOutstanding;
    Counter connsActive;
    Counter daemonDraining;
    Counter daemonWorkers;

    LatencyHistogram queueMicros;
    LatencyHistogram synthMicros;
    LatencyHistogram analysisMicros;
    LatencyHistogram mdeMicros;
    LatencyHistogram simMicros;
    LatencyHistogram totalMicros;
    LatencyHistogram interactiveTotalMicros;
    LatencyHistogram bulkTotalMicros;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);

    /** Drains if still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind sockets and spawn the accept loop, workers, and
     * watchdog. False (with *error filled) on socket setup failure.
     */
    bool start(std::string *error = nullptr);

    /**
     * Ask the daemon to stop (signal handler / `shutdown` request).
     * Thread-safe and idempotent; returns immediately. The thread
     * sitting in waitUntilStopRequested() performs the actual drain.
     */
    void requestStop();

    /** Block until requestStop() is called. */
    void waitUntilStopRequested();

    bool stopRequested() const;

    /**
     * Graceful shutdown: stop accepting, answer everything already
     * admitted, then tear down threads and sockets. Idempotent.
     */
    void drain();

    /** JSON snapshot of all daemon metrics (the `metrics` payload). */
    JsonValue metricsSnapshot() const;

    const DaemonConfig &config() const { return config_; }

  private:
    /** Per-connection shared state; the last owner closes the fd. */
    struct Connection
    {
        explicit Connection(int connFd) : fd(connFd) {}
        ~Connection();

        /**
         * Serialized, best-effort write (MSG_NOSIGNAL) of a prebuilt
         * buffer that already ends in \n.
         */
        void sendBytes(std::string_view bytes);

        /** Wake a reader blocked in recv (drain path). */
        void shutdownSocket();

        int fd;
        std::mutex writeMutex;
        std::mutex jobsMutex;
        /** Live jobs by client request id (for cancel/duplicate). */
        std::map<uint64_t, std::weak_ptr<Job>> jobs;
    };

    /** One connection's reader thread; `done` is set as it returns. */
    struct Reader
    {
        std::weak_ptr<Connection> conn;
        std::atomic<bool> done{false};
        std::jthread thread; ///< last: joined before `done` goes
    };

    /**
     * One run-to-completion worker and the state it reuses. Its thread
     * holds its address, so it is neither copied nor moved.
     */
    struct Worker
    {
        Worker() = default;
        Worker(const Worker &) = delete;
        Worker &operator=(const Worker &) = delete;

        HierarchyPool pool;    ///< reused by every job the worker runs
        std::string encodeBuf; ///< reused response-line buffer
        std::jthread thread;
    };

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    std::string_view line, JsonValue &reqTree);
    void handleRun(const std::shared_ptr<Connection> &conn,
                   Request &req);
    void handleCancel(const std::shared_ptr<Connection> &conn,
                      const Request &req);
    void workerLoop(Worker &self);
    void executeJob(Worker &self, const std::shared_ptr<Job> &job);
    void respondResult(Worker &self, const std::shared_ptr<Job> &job,
                       const OutcomeSummary &summary);
    void watchdogLoop(std::stop_token st);
    void registerDeadline(std::shared_ptr<Job> job);
    void finishJob(); ///< outstanding-- and wake drain()

    /** Send one response line; the framing newline is added here. */
    void sendTo(const std::shared_ptr<Connection> &conn, std::string line);
    void bump(Counter DaemonMetrics::*counter);

    DaemonConfig config_;
    JobQueue queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    RegionCache cache_;

    int listenUnixFd_ = -1;
    int listenTcpFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::jthread acceptThread_;
    std::jthread watchdogThread_;

    std::mutex connsMutex_;
    /** Connection readers: acceptLoop reaps the finished ones on each
     * accept, drain() wakes and joins the rest. */
    std::list<Reader> readers_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> drained_{false};
    std::atomic<uint64_t> activeConns_{0};
    /** Jobs admitted but not yet finally disposed of. */
    std::atomic<uint64_t> outstanding_{0};

    mutable std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    std::mutex idleMutex_;
    std::condition_variable idleCv_;

    std::mutex watchdogMutex_;
    std::condition_variable_any watchdogCv_;
    std::vector<std::shared_ptr<Job>> deadlineJobs_;

    mutable std::mutex statsMutex_;
    DaemonMetrics metrics_; ///< guarded by statsMutex_
};

} // namespace nachos

#endif // NACHOS_SERVICE_DAEMON_HH
