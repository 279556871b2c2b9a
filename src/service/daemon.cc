#include "service/daemon.hh"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "harness/runner.hh"
#include "support/logging.hh"

namespace nachos {

using clock_t_ = std::chrono::steady_clock;

namespace {

uint64_t
microsBetween(clock_t_::time_point a, clock_t_::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count());
}

uint64_t
secondsToMicros(double seconds)
{
    return static_cast<uint64_t>(seconds * 1e6);
}

/** One error response line, unframed. */
std::string
errorLine(uint64_t id, std::string_view code, std::string_view message)
{
    std::string line;
    appendErrorResponse(line, id, code, message);
    return line;
}

/** A `metrics` counter: its wire name and its DaemonMetrics field. */
struct CounterRow
{
    std::string_view name;
    Counter DaemonMetrics::*field;
};

/** A `metrics` histogram: its wire name and its DaemonMetrics field. */
struct HistogramRow
{
    std::string_view name;
    LatencyHistogram DaemonMetrics::*field;
};

/** Every counter of the `metrics` snapshot, in name order. */
constexpr CounterRow kCounterRows[] = {
    {"cache.evictions", &DaemonMetrics::cacheEvictions},
    {"cache.hits", &DaemonMetrics::cacheHits},
    {"cache.misses", &DaemonMetrics::cacheMisses},
    {"cache.size", &DaemonMetrics::cacheSize},
    {"conns.accepted", &DaemonMetrics::connsAccepted},
    {"conns.active", &DaemonMetrics::connsActive},
    {"daemon.draining", &DaemonMetrics::daemonDraining},
    {"daemon.workers", &DaemonMetrics::daemonWorkers},
    {"jobs.accepted", &DaemonMetrics::jobsAccepted},
    {"jobs.acceptedBulk", &DaemonMetrics::jobsAcceptedBulk},
    {"jobs.acceptedInteractive", &DaemonMetrics::jobsAcceptedInteractive},
    {"jobs.cancelled", &DaemonMetrics::jobsCancelled},
    {"jobs.completed", &DaemonMetrics::jobsCompleted},
    {"jobs.expired", &DaemonMetrics::jobsExpired},
    {"jobs.failed", &DaemonMetrics::jobsFailed},
    {"jobs.lateResults", &DaemonMetrics::jobsLateResults},
    {"jobs.outstanding", &DaemonMetrics::jobsOutstanding},
    {"jobs.rejected", &DaemonMetrics::jobsRejected},
    {"jobs.rejectedDraining", &DaemonMetrics::jobsRejectedDraining},
    {"plan.eventsDispatched", &DaemonMetrics::planEventsDispatched},
    {"queue.bulkDepth", &DaemonMetrics::queueBulkDepth},
    {"queue.depth", &DaemonMetrics::queueDepth},
    {"queue.interactiveDepth", &DaemonMetrics::queueInteractiveDepth},
    {"requests.errors", &DaemonMetrics::requestsErrors},
    {"requests.total", &DaemonMetrics::requestsTotal},
};

/** Every histogram of the `metrics` snapshot, in name order. */
constexpr HistogramRow kHistogramRows[] = {
    {"latency.analysisMicros", &DaemonMetrics::analysisMicros},
    {"latency.bulk.totalMicros", &DaemonMetrics::bulkTotalMicros},
    {"latency.interactive.totalMicros",
     &DaemonMetrics::interactiveTotalMicros},
    {"latency.mdeMicros", &DaemonMetrics::mdeMicros},
    {"latency.queueMicros", &DaemonMetrics::queueMicros},
    {"latency.simMicros", &DaemonMetrics::simMicros},
    {"latency.synthMicros", &DaemonMetrics::synthMicros},
    {"latency.totalMicros", &DaemonMetrics::totalMicros},
};

template <class Row, size_t N>
constexpr bool
inNameOrder(const Row (&rows)[N])
{
    for (size_t i = 1; i < N; ++i)
        if (!(rows[i - 1].name < rows[i].name))
            return false;
    return true;
}

static_assert(inNameOrder(kCounterRows) && inNameOrder(kHistogramRows),
              "metrics rows must be sorted by wire name");

/** Answer `job` with an error line (the job owns its response). */
void
respondError(const Job &job, std::string_view code,
             std::string_view message)
{
    job.respond(errorLine(job.requestId, code, message) + '\n');
}

} // namespace

// ---------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------

Daemon::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

void
Daemon::Connection::sendBytes(std::string_view bytes)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    if (fd < 0)
        return;
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // peer gone; response is best-effort
        }
        off += static_cast<size_t>(n);
    }
}

void
Daemon::Connection::shutdownSocket()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      queue_(config_.queueCapacity, config_.bulkQueueCapacity),
      // A landed build may let a skipped job run (workerLoop).
      cache_(config_.regionCacheEntries, [this] { queue_.wake(); })
{
    if (config_.workers < 1)
        config_.workers = 1;
    workers_.reserve(config_.workers);
    for (unsigned i = 0; i < config_.workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
}

Daemon::~Daemon()
{
    drain();
}

bool
Daemon::start(std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        if (listenUnixFd_ >= 0)
            ::close(listenUnixFd_);
        if (listenTcpFd_ >= 0)
            ::close(listenTcpFd_);
        for (int fd : wakePipe_)
            if (fd >= 0)
                ::close(fd);
        listenUnixFd_ = listenTcpFd_ = wakePipe_[0] = wakePipe_[1] = -1;
        return false;
    };

    NACHOS_ASSERT(!started_.load(), "daemon already started");
    if (config_.socketPath.empty())
        return fail("socket path is required");
    if (::pipe(wakePipe_) != 0)
        return fail(std::string("pipe: ") + std::strerror(errno));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path))
        return fail("socket path too long: " + config_.socketPath);
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenUnixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenUnixFd_ < 0)
        return fail(std::string("socket: ") + std::strerror(errno));
    ::unlink(config_.socketPath.c_str());
    if (::bind(listenUnixFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + config_.socketPath + ": " +
                    std::strerror(errno));
    if (::listen(listenUnixFd_, 64) != 0)
        return fail(std::string("listen: ") + std::strerror(errno));

    if (config_.tcpPort != 0) {
        listenTcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenTcpFd_ < 0)
            return fail(std::string("socket(tcp): ") +
                        std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenTcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in tcp{};
        tcp.sin_family = AF_INET;
        tcp.sin_port = htons(config_.tcpPort);
        // Loopback only: nachosd has no authentication; exposing it
        // beyond the host needs a fronting proxy.
        tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listenTcpFd_, reinterpret_cast<sockaddr *>(&tcp),
                   sizeof(tcp)) != 0)
            return fail("bind tcp port " +
                        std::to_string(config_.tcpPort) + ": " +
                        std::strerror(errno));
        if (::listen(listenTcpFd_, 64) != 0)
            return fail(std::string("listen(tcp): ") +
                        std::strerror(errno));
    }

    for (const std::unique_ptr<Worker> &worker : workers_)
        worker->thread = std::jthread(
            [this, &self = *worker] { workerLoop(self); });
    watchdogThread_ =
        std::jthread([this](std::stop_token st) { watchdogLoop(st); });
    acceptThread_ = std::jthread([this] { acceptLoop(); });
    started_ = true;
    return true;
}

void
Daemon::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Daemon::waitUntilStopRequested()
{
    std::unique_lock<std::mutex> lock(stopMutex_);
    stopCv_.wait(lock, [this] { return stopRequested_; });
}

bool
Daemon::stopRequested() const
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    return stopRequested_;
}

void
Daemon::drain()
{
    if (!started_.load() || drained_.exchange(true))
        return;
    draining_ = true;

    // 1. Stop accepting: wake the poll loop and retire the listeners.
    if (wakePipe_[1] >= 0) {
        const char x = 'x';
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &x, 1);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenUnixFd_ >= 0)
        ::close(listenUnixFd_);
    if (listenTcpFd_ >= 0)
        ::close(listenTcpFd_);
    listenUnixFd_ = listenTcpFd_ = -1;
    ::unlink(config_.socketPath.c_str());

    // 2. Let every admitted job reach a final response.
    {
        std::unique_lock<std::mutex> lock(idleMutex_);
        idleCv_.wait(lock, [this] { return outstanding_.load() == 0; });
    }

    // 3. Retire the workers and the watchdog.
    queue_.close();
    for (const std::unique_ptr<Worker> &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
    watchdogThread_.request_stop();
    watchdogCv_.notify_all();
    if (watchdogThread_.joinable())
        watchdogThread_.join();

    // 4. Wake readers blocked in recv and join them; the last
    //    reference to each Connection closes its fd.
    std::list<Reader> readers;
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        for (const Reader &reader : readers_) {
            if (std::shared_ptr<Connection> conn = reader.conn.lock())
                conn->shutdownSocket();
        }
        readers.swap(readers_);
    }
    readers.clear(); // joins every reader

    for (int &fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    started_ = false;
}

// ---------------------------------------------------------------------
// Accept + connection readers
// ---------------------------------------------------------------------

void
Daemon::acceptLoop()
{
    while (true) {
        pollfd fds[3];
        nfds_t nfds = 0;
        fds[nfds++] = {wakePipe_[0], POLLIN, 0};
        fds[nfds++] = {listenUnixFd_, POLLIN, 0};
        if (listenTcpFd_ >= 0)
            fds[nfds++] = {listenTcpFd_, POLLIN, 0};
        if (::poll(fds, nfds, -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[0].revents)
            return; // drain() woke us
        for (nfds_t i = 1; i < nfds; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            auto conn = std::make_shared<Connection>(fd);
            bump(&DaemonMetrics::connsAccepted);
            std::lock_guard<std::mutex> lock(connsMutex_);
            // Join the readers whose peers hung up, so that a stream
            // of short connections keeps no thread stacks behind.
            readers_.remove_if(
                [](const Reader &r) { return r.done.load(); });
            Reader &reader = readers_.emplace_back();
            reader.conn = conn;
            reader.thread =
                std::jthread([this, conn, &done = reader.done] {
                    connectionLoop(conn);
                    done = true;
                });
        }
    }
}

void
Daemon::connectionLoop(std::shared_ptr<Connection> conn)
{
    ++activeConns_;
    // All per-line state lives here and is reused across requests:
    // the rx buffer keeps its capacity through erase(), and the
    // request tree is reparsed in place (protocol parseRequestLine),
    // so a warmed-up connection reads, parses, and dispatches without
    // touching the heap.
    std::string buffer;
    JsonValue reqTree;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<size_t>(n));
        size_t start = 0;
        size_t pos;
        while ((pos = buffer.find('\n', start)) != std::string::npos) {
            std::string_view line(buffer.data() + start, pos - start);
            start = pos + 1;
            if (!line.empty() && line.back() == '\r')
                line.remove_suffix(1);
            if (!line.empty())
                handleLine(conn, line, reqTree);
        }
        if (start > 0)
            buffer.erase(0, start); // keeps capacity
        if (buffer.size() > kMaxRequestLineBytes) {
            // Framing is unrecoverable once a line exceeds the cap:
            // answer and drop the connection.
            sendTo(conn, errorLine(0, "oversized",
                                   "request line exceeds " +
                                       std::to_string(
                                           kMaxRequestLineBytes) +
                                       " bytes"));
            break;
        }
    }
    --activeConns_;
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

void
Daemon::handleLine(const std::shared_ptr<Connection> &conn,
                   std::string_view line, JsonValue &reqTree)
{
    bump(&DaemonMetrics::requestsTotal);
    Request req;
    CodecError err;
    if (!parseRequestLine(line, reqTree, req, err)) {
        bump(&DaemonMetrics::requestsErrors);
        sendTo(conn, errorLine(req.id, err.code, err.message));
        return;
    }
    std::string reply;
    switch (req.type) {
      case Request::Type::Ping:
        appendPongResponse(reply, req.id);
        sendTo(conn, std::move(reply));
        return;
      case Request::Type::Metrics:
        appendMetricsResponse(reply, req.id, metricsSnapshot());
        sendTo(conn, std::move(reply));
        return;
      case Request::Type::Shutdown:
        appendOkResponse(reply, req.id);
        sendTo(conn, std::move(reply));
        requestStop();
        return;
      case Request::Type::Cancel:
        handleCancel(conn, req);
        return;
      case Request::Type::Run:
        handleRun(conn, req);
        return;
    }
}

void
Daemon::handleRun(const std::shared_ptr<Connection> &conn, Request &req)
{
    if (draining_.load()) {
        bump(&DaemonMetrics::jobsRejectedDraining);
        sendTo(conn, errorLine(req.id, "shutting_down",
                               "daemon is draining"));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(conn->jobsMutex);
        auto it = conn->jobs.find(req.id);
        if (it != conn->jobs.end()) {
            if (std::shared_ptr<Job> live = it->second.lock()) {
                const JobState s = live->state.load();
                if (s == JobState::Queued || s == JobState::Running) {
                    bump(&DaemonMetrics::requestsErrors);
                    sendTo(conn, errorLine(req.id, "bad_request",
                                           "id already names an active "
                                           "job on this connection"));
                    return;
                }
            }
        }
    }

    auto job = std::make_shared<Job>();
    job->requestId = req.id;
    job->spec = req.job;
    job->enqueued = clock_t_::now();
    const uint64_t millis = job->spec.timeoutMillis
                                ? job->spec.timeoutMillis
                                : config_.defaultTimeoutMillis;
    if (millis) {
        job->hasDeadline = true;
        job->deadline =
            job->enqueued + std::chrono::milliseconds(millis);
    }
    job->respond = [conn](std::string_view line) {
        conn->sendBytes(line);
    };

    {
        std::lock_guard<std::mutex> lock(conn->jobsMutex);
        conn->jobs[req.id] = job;
    }
    const bool bulk = job->spec.klass == AdmitClass::Bulk;
    ++outstanding_;
    // jobs.accepted is bumped under the queue lock, before any worker
    // can claim the job: a fast worker must never bump jobs.completed
    // for a job whose acceptance is not yet visible to metrics.
    if (!queue_.tryPush(job, [this, bulk] {
            bump(&DaemonMetrics::jobsAccepted);
            bump(bulk ? &DaemonMetrics::jobsAcceptedBulk
                      : &DaemonMetrics::jobsAcceptedInteractive);
        })) {
        finishJob();
        bump(&DaemonMetrics::jobsRejected);
        const size_t capacity =
            bulk ? config_.bulkQueueCapacity : config_.queueCapacity;
        sendTo(conn,
               errorLine(req.id, "queue_full",
                         std::string(bulk ? "bulk" : "interactive") +
                             " ring is at capacity (" +
                             std::to_string(capacity) + ")"));
        return;
    }
    if (job->hasDeadline)
        registerDeadline(job);
}

void
Daemon::handleCancel(const std::shared_ptr<Connection> &conn,
                     const Request &req)
{
    std::shared_ptr<Job> target;
    {
        std::lock_guard<std::mutex> lock(conn->jobsMutex);
        auto it = conn->jobs.find(req.cancelTarget);
        if (it != conn->jobs.end())
            target = it->second.lock();
    }
    if (target && queue_.cancel(target)) {
        // We own the job's response now (Queued -> Cancelled).
        bump(&DaemonMetrics::jobsCancelled);
        respondError(*target, "cancelled", "job cancelled by request");
        finishJob();
        std::string reply;
        appendOkResponse(reply, req.id);
        sendTo(conn, std::move(reply));
        return;
    }
    sendTo(conn, errorLine(req.id, "not_cancellable",
                           "no queued job with id " +
                               std::to_string(req.cancelTarget) +
                               " on this connection"));
}

// ---------------------------------------------------------------------
// Execution (run-to-completion workers claiming from the one queue)
// ---------------------------------------------------------------------

void
Daemon::workerLoop(Worker &self)
{
    // A job whose front end another worker is building waits in the
    // queue, not on a worker: it would only block in acquire() until
    // that build lands, while jobs behind it could run.
    const std::function<bool(const Job &)> mayRun = [this](const Job &job) {
        return !cache_.building(*job.spec.info, job.spec.request);
    };
    while (std::shared_ptr<Job> job = queue_.claim(mayRun)) {
        executeJob(self, job);
        job.reset(); // drop the job reference promptly
        finishJob();
    }
}

void
Daemon::respondResult(Worker &self, const std::shared_ptr<Job> &job,
                      const OutcomeSummary &summary)
{
    std::string &buf = self.encodeBuf;
    buf.clear(); // keeps capacity: steady state reuses the arena
    appendResultResponse(buf, job->requestId, summary);
    buf += '\n';
    job->respond(buf);
}

void
Daemon::executeJob(Worker &self, const std::shared_ptr<Job> &job)
{
    const clock_t_::time_point started = clock_t_::now();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        metrics_.queueMicros.sample(microsBetween(job->enqueued, started));
    }
    if (job->spec.sleepMillis) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(job->spec.sleepMillis));
    }

    // One region-cache lookup per executed job: cache.hits +
    // cache.misses == jobs.completed + jobs.failed + jobs.lateResults.
    // Interactive jobs retain their entries, so a sweep's one-off
    // regions are evicted before the regions interactive clients
    // come back to.
    bool failed = false;
    std::string failMessage;
    std::shared_ptr<const FrontEnd> entry;
    BackendResults sims;
    StageTimes times;
    try {
        entry = cache_.acquire(
            *job->spec.info, job->spec.request, nullptr, &times,
            /*retain=*/job->spec.klass == AdmitClass::Interactive);
        const clock_t_::time_point simStart = clock_t_::now();
        sims = simulateRequest(*job->spec.info, job->spec.request,
                               *entry, self.pool);
        times.simSeconds = std::chrono::duration<double>(
                               clock_t_::now() - simStart)
                               .count();
    } catch (const std::exception &e) {
        failed = true;
        failMessage = e.what();
    } catch (...) {
        failed = true;
        failMessage = "unknown exception";
    }

    if (!job->tryTransition(JobState::Running, JobState::Done)) {
        // The watchdog answered `timeout` while we were computing; the
        // result is discarded but still counted.
        bump(&DaemonMetrics::jobsLateResults);
        return;
    }
    // Each answer is counted before it is sent, so a client that asks
    // for `metrics` after its answer sees its own job.
    if (failed) {
        bump(&DaemonMetrics::jobsFailed);
        respondError(*job, "internal",
                     "job execution failed: " + failMessage);
        return;
    }
    const OutcomeSummary summary = summarizeOutcome(
        *job->spec.info, job->spec.request, *entry, sims);
    {
        const uint64_t totalMicros =
            microsBetween(job->enqueued, clock_t_::now());
        const bool bulk = job->spec.klass == AdmitClass::Bulk;
        std::lock_guard<std::mutex> lock(statsMutex_);
        DaemonMetrics &m = metrics_;
        m.jobsCompleted.inc();
        // Firing-plan observability: the engine's event traffic summed
        // over every backend run the daemon served.
        for (const BackendField &backend : backendFields())
            if (const std::optional<SimResult> &sim =
                    sims.*backend.result)
                m.planEventsDispatched.inc(sim->planEventsDispatched);
        m.synthMicros.sample(secondsToMicros(times.synthSeconds));
        m.analysisMicros.sample(secondsToMicros(times.analysisSeconds));
        m.mdeMicros.sample(secondsToMicros(times.mdeSeconds));
        m.simMicros.sample(secondsToMicros(times.simSeconds));
        m.totalMicros.sample(totalMicros);
        (bulk ? m.bulkTotalMicros : m.interactiveTotalMicros)
            .sample(totalMicros);
    }
    respondResult(self, job, summary);
}

void
Daemon::finishJob()
{
    {
        std::lock_guard<std::mutex> lock(idleMutex_);
        --outstanding_;
    }
    idleCv_.notify_all();
}

// ---------------------------------------------------------------------
// Timeout watchdog
// ---------------------------------------------------------------------

void
Daemon::registerDeadline(std::shared_ptr<Job> job)
{
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        deadlineJobs_.push_back(std::move(job));
    }
    watchdogCv_.notify_all();
}

void
Daemon::watchdogLoop(std::stop_token st)
{
    std::unique_lock<std::mutex> lock(watchdogMutex_);
    while (!st.stop_requested()) {
        // Retire jobs that reached a final state on their own.
        std::erase_if(deadlineJobs_, [](const std::shared_ptr<Job> &j) {
            const JobState s = j->state.load();
            return s == JobState::Done || s == JobState::Cancelled ||
                   s == JobState::TimedOut;
        });

        clock_t_::time_point nearest = clock_t_::time_point::max();
        for (const std::shared_ptr<Job> &job : deadlineJobs_)
            nearest = std::min(nearest, job->deadline);

        if (nearest == clock_t_::time_point::max()) {
            watchdogCv_.wait(lock, st, [this] {
                return !deadlineJobs_.empty();
            });
            continue;
        }
        if (clock_t_::now() < nearest) {
            watchdogCv_.wait_until(lock, st, nearest, [this, nearest] {
                // Wake early only for a job with an earlier deadline.
                for (const std::shared_ptr<Job> &job : deadlineJobs_)
                    if (job->deadline < nearest)
                        return true;
                return false;
            });
            continue;
        }

        const clock_t_::time_point now = clock_t_::now();
        for (const std::shared_ptr<Job> &job : deadlineJobs_) {
            if (job->deadline > now)
                continue;
            // claim() performs Queued -> Running inside the queue
            // lock, so this CAS can only win while the job truly
            // still sits in a ring (where it stays as a corpse that
            // claim() drops) — a claimed-but-unstarted job can never
            // be timed out as "never started" here.
            if (job->tryTransition(JobState::Queued,
                                   JobState::TimedOut)) {
                // Never started: we own both the response and the
                // outstanding count.
                bump(&DaemonMetrics::jobsExpired);
                respondError(*job, "timeout",
                             "job timed out before starting");
                finishJob();
            } else if (job->tryTransition(JobState::Running,
                                          JobState::TimedOut)) {
                // Still computing: answer now; the worker discards
                // the late result and settles the accounting.
                bump(&DaemonMetrics::jobsExpired);
                respondError(*job, "timeout",
                             "job exceeded its deadline while running");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Output + metrics
// ---------------------------------------------------------------------

void
Daemon::sendTo(const std::shared_ptr<Connection> &conn, std::string line)
{
    line += '\n';
    conn->sendBytes(line);
}

void
Daemon::bump(Counter DaemonMetrics::*counter)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    (metrics_.*counter).inc();
}

JsonValue
Daemon::metricsSnapshot() const
{
    DaemonMetrics m;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        m = metrics_;
    }
    const size_t interactiveDepth =
        queue_.depth(AdmitClass::Interactive);
    const size_t bulkDepth = queue_.depth(AdmitClass::Bulk);
    m.queueDepth.inc(interactiveDepth + bulkDepth);
    m.queueInteractiveDepth.inc(interactiveDepth);
    m.queueBulkDepth.inc(bulkDepth);
    m.jobsOutstanding.inc(outstanding_.load());
    m.connsActive.inc(activeConns_.load());
    m.daemonDraining.inc(draining_.load() ? 1 : 0);
    m.daemonWorkers.inc(workers_.size());
    const RegionCache::Counters cc = cache_.counters();
    m.cacheHits.inc(cc.hits);
    m.cacheMisses.inc(cc.misses);
    m.cacheEvictions.inc(cc.evictions);
    m.cacheSize.inc(cc.size);

    JsonValue counters = JsonValue::makeObject();
    for (const CounterRow &row : kCounterRows)
        counters.set(std::string(row.name), (m.*row.field).value());
    JsonValue histograms = JsonValue::makeObject();
    for (const HistogramRow &row : kHistogramRows)
        histograms.set(std::string(row.name),
                       (m.*row.field).jsonSnapshot());
    JsonValue v = JsonValue::makeObject();
    v.set("counters", std::move(counters));
    v.set("histograms", std::move(histograms));
    return v;
}

} // namespace nachos
