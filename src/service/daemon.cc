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

/** Answer `job` with an error line (the job owns its response). */
void
respondError(const Job &job, const std::string &code,
             const std::string &message)
{
    job.respond(dumpJson(errorResponse(job.requestId, code, message)) +
                "\n");
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
      cache_(config_.regionCacheEntries)
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
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        for (const std::weak_ptr<Connection> &weak : conns_) {
            if (std::shared_ptr<Connection> conn = weak.lock())
                conn->shutdownSocket();
        }
    }
    std::vector<std::jthread> readers;
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        readers.swap(connThreads_);
    }
    for (std::jthread &t : readers)
        if (t.joinable())
            t.join();

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
            bump("conns.accepted");
            std::lock_guard<std::mutex> lock(connsMutex_);
            conns_.push_back(conn);
            connThreads_.emplace_back(
                [this, conn] { connectionLoop(conn); });
        }
    }
}

void
Daemon::connectionLoop(std::shared_ptr<Connection> conn)
{
    ++activeConns_;
    // All per-line state lives here and is reused across requests:
    // the rx buffer keeps its capacity through erase(), and the
    // request tree is reparsed in place (support/json
    // parseJsonInPlace), so a warmed-up connection reads, parses, and
    // dispatches without touching the heap.
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
            sendTo(conn, errorResponse(
                             0, "oversized",
                             "request line exceeds " +
                                 std::to_string(kMaxRequestLineBytes) +
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
    bump("requests.total");
    Request req;
    CodecError err;
    bool ok = false;
    if (line.size() > kMaxRequestLineBytes) {
        err.code = "oversized";
        err.message = "request line exceeds " +
                      std::to_string(kMaxRequestLineBytes) + " bytes";
    } else {
        const JsonParseStatus parsed = parseJsonInPlace(line, reqTree);
        if (!parsed.ok) {
            err.code = "bad_json";
            err.message = std::string(parsed.error) + " at offset " +
                          std::to_string(parsed.errorOffset);
        } else {
            ok = parseRequest(reqTree, req, err);
        }
    }
    if (!ok) {
        bump("requests.errors");
        sendTo(conn, errorResponse(req.id, err.code, err.message));
        return;
    }
    switch (req.type) {
      case Request::Type::Ping:
        sendTo(conn, pongResponse(req.id));
        return;
      case Request::Type::Metrics:
        sendTo(conn, metricsResponse(req.id, metricsSnapshot()));
        return;
      case Request::Type::Shutdown:
        sendTo(conn, okResponse(req.id));
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
        bump("jobs.rejectedDraining");
        sendTo(conn, errorResponse(req.id, "shutting_down",
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
                    bump("requests.errors");
                    sendTo(conn,
                           errorResponse(req.id, "bad_request",
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
            bump("jobs.accepted");
            bump(bulk ? "jobs.acceptedBulk" : "jobs.acceptedInteractive");
        })) {
        finishJob();
        bump("jobs.rejected");
        const size_t capacity =
            bulk ? config_.bulkQueueCapacity : config_.queueCapacity;
        sendTo(conn,
               errorResponse(req.id, "queue_full",
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
        respondError(*target, "cancelled", "job cancelled by request");
        finishJob();
        bump("jobs.cancelled");
        sendTo(conn, okResponse(req.id));
        return;
    }
    sendTo(conn, errorResponse(req.id, "not_cancellable",
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
    while (std::shared_ptr<Job> job = queue_.claim()) {
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
        stats_.histogram("latency.queueMicros")
            .sample(microsBetween(job->enqueued, started));
    }
    if (job->spec.sleepMillis) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(job->spec.sleepMillis));
    }

    // One region-cache lookup per executed job: cache.hits +
    // cache.misses == jobs.completed + jobs.failed + jobs.lateResults.
    bool failed = false;
    std::string failMessage;
    std::shared_ptr<const RegionCacheEntry> entry;
    BackendResults sims;
    StageTimes times;
    try {
        entry = cache_.acquire(*job->spec.info, job->spec.request,
                               nullptr, &times);
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
        bump("jobs.lateResults");
        return;
    }
    if (failed) {
        respondError(*job, "internal",
                     "job execution failed: " + failMessage);
        bump("jobs.failed");
        return;
    }
    respondResult(self, job,
                  summarizeOutcome(*job->spec.info, job->spec.request,
                                   *entry, sims));
    const uint64_t totalMicros =
        microsBetween(job->enqueued, clock_t_::now());
    const bool bulk = job->spec.klass == AdmitClass::Bulk;
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.counter("jobs.completed").inc();
    // Firing-plan observability: the engine's event traffic summed
    // over every backend run the daemon served.
    for (const auto *sim : {&sims.lsq, &sims.sw, &sims.nachos}) {
        if (!sim->has_value())
            continue;
        stats_.counter("plan.eventsDispatched")
            .inc((*sim)->planEventsDispatched);
        stats_.counter("plan.eventsElided")
            .inc((*sim)->planEventsElided);
    }
    stats_.histogram("latency.synthMicros")
        .sample(secondsToMicros(times.synthSeconds));
    stats_.histogram("latency.analysisMicros")
        .sample(secondsToMicros(times.analysisSeconds));
    stats_.histogram("latency.mdeMicros")
        .sample(secondsToMicros(times.mdeSeconds));
    stats_.histogram("latency.simMicros")
        .sample(secondsToMicros(times.simSeconds));
    stats_.histogram("latency.totalMicros").sample(totalMicros);
    stats_.histogram(bulk ? "latency.bulk.totalMicros"
                          : "latency.interactive.totalMicros")
        .sample(totalMicros);
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
                respondError(*job, "timeout",
                             "job timed out before starting");
                bump("jobs.expired");
                finishJob();
            } else if (job->tryTransition(JobState::Running,
                                          JobState::TimedOut)) {
                // Still computing: answer now; the worker discards
                // the late result and settles the accounting.
                respondError(*job, "timeout",
                             "job exceeded its deadline while running");
                bump("jobs.expired");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Output + metrics
// ---------------------------------------------------------------------

void
Daemon::sendTo(const std::shared_ptr<Connection> &conn,
               const JsonValue &v)
{
    conn->sendBytes(dumpJson(v) + "\n");
}

void
Daemon::bump(const char *name, uint64_t n)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.counter(name).inc(n);
}

JsonValue
Daemon::metricsSnapshot() const
{
    StatSet copy;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        copy.merge(stats_);
    }
    // Point-in-time gauges ride along as counters of the snapshot.
    const size_t interactiveDepth =
        queue_.depth(AdmitClass::Interactive);
    const size_t bulkDepth = queue_.depth(AdmitClass::Bulk);
    copy.counter("queue.depth").inc(interactiveDepth + bulkDepth);
    copy.counter("queue.interactiveDepth").inc(interactiveDepth);
    copy.counter("queue.bulkDepth").inc(bulkDepth);
    copy.counter("jobs.outstanding").inc(outstanding_.load());
    copy.counter("conns.active").inc(activeConns_.load());
    copy.counter("daemon.draining").inc(draining_.load() ? 1 : 0);
    copy.counter("daemon.workers").inc(workers_.size());
    const RegionCache::Counters cc = cache_.counters();
    copy.counter("cache.hits").inc(cc.hits);
    copy.counter("cache.misses").inc(cc.misses);
    copy.counter("cache.evictions").inc(cc.evictions);
    copy.counter("cache.size").inc(cc.size);
    return copy.jsonSnapshot();
}

} // namespace nachos
