/**
 * @file
 * nachosd: a long-running experiment server around the harness. It
 * listens on a Unix-domain socket (plus an optional loopback TCP
 * port), speaks the JSON-lines protocol of service/protocol.hh, and
 * executes admitted run requests on a pool of run-to-completion
 * workers — amortizing process setup across many requests instead of
 * paying it per bench invocation.
 *
 * Architecture (two kinds of thread):
 *
 *   I/O loop (1): polls the wake pipe, the listeners and every
 *        │        connection; parses requests, answers ping/metrics/
 *        │        cancel, admits runs and answers `timeout`
 *        ▼
 *   one JobQueue (interactive + bulk rings)
 *        │
 *        ▼
 *   N workers claim from it and answer `result`/`error`
 *
 * An atomic per-job state machine guarantees exactly one response per
 * request no matter whether the loop or a worker wins the race.
 *
 * The loop admits every connection's runs into the daemon's one
 * dual-class JobQueue (interactive and bulk rings with separate
 * bounds), and every worker claims from it, interactive first, so a
 * request takes the first worker that frees up whichever connection
 * sent it. Each worker owns a HierarchyPool that persists across jobs
 * and a reusable encode buffer. A worker claims one job at a time and
 * runs it to completion: the front end (synthesis + alias pipeline + MDEs) comes
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
 * has the loop close the listeners, lets every admitted job finish
 * and flush its response, then stops the loop, which closes the
 * connections — SIGTERM/SIGINT in the nachosd binary and the
 * `shutdown` request both route here.
 */

#ifndef NACHOS_SERVICE_DAEMON_HH
#define NACHOS_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
    /** Backend runs derived from another run, not simulated. */
    Counter planDerivedRuns;

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
     * Bind sockets and spawn the I/O loop and the workers.
     * False (with *error filled) on socket setup failure.
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
    /**
     * One client connection. Its socket and write lock are shared with
     * the workers answering its jobs, and the last owner closes the
     * fd; the rest is touched only by the I/O loop.
     */
    struct Connection
    {
        explicit Connection(int connFd) : fd(connFd) {}
        ~Connection();

        /**
         * Serialized, best-effort blocking write (MSG_NOSIGNAL) of a
         * prebuilt buffer that already ends in \n.
         */
        void sendBytes(std::string_view bytes);

        /** Shut the socket down: the peer reads end-of-stream. */
        void shutdownSocket();

        int fd;
        std::mutex writeMutex;

        /**
         * Unparsed bytes. It keeps its capacity and the request tree
         * is reparsed in place (protocol parseRequestLine), so a
         * warmed-up connection reads and parses without touching the
         * heap.
         */
        std::string rx;
        JsonValue reqTree;
        /** Jobs by client request id (for cancel/duplicate). */
        std::map<uint64_t, std::weak_ptr<Job>> jobs;
        /** jobs.size() after its last sweep of finished entries. */
        size_t jobsAfterSweep = 0;
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

    void ioLoop();
    void closeListeners();
    /** Wake the I/O loop to re-read draining_ and stopping_. */
    void wakeLoop();
    /** Read and handle what one connection sent; false drops it. */
    bool readRequests(const std::shared_ptr<Connection> &conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    std::string_view line);
    void handleRun(const std::shared_ptr<Connection> &conn,
                   Request &req);
    void handleCancel(const std::shared_ptr<Connection> &conn,
                      const Request &req);
    /**
     * Answer `timeout` for every job past its deadline and forget the
     * settled ones; returns the poll timeout (ms, -1 for none) until
     * the nearest remaining deadline.
     */
    int expireDeadlines();
    void workerLoop(Worker &self);
    void executeJob(Worker &self, const std::shared_ptr<Job> &job);
    void respondResult(Worker &self, const std::shared_ptr<Job> &job,
                       const OutcomeSummary &summary);
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
    /** Admitted jobs with a deadline; the I/O loop's alone. */
    std::vector<std::shared_ptr<Job>> deadlineJobs_;
    std::jthread ioThread_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false}; ///< the I/O loop returns
    std::atomic<bool> drained_{false};
    std::atomic<uint64_t> activeConns_{0};
    /** Jobs admitted but not yet finally disposed of. */
    std::atomic<uint64_t> outstanding_{0};

    mutable std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    std::mutex idleMutex_;
    std::condition_variable idleCv_;

    mutable std::mutex statsMutex_;
    DaemonMetrics metrics_; ///< guarded by statsMutex_
};

} // namespace nachos

#endif // NACHOS_SERVICE_DAEMON_HH
