/**
 * @file
 * The daemon's one bounded dual-class admission queue, between every
 * connection and every worker. Capacity is the backpressure mechanism:
 * when a class's ring is full, tryPush fails and the daemon answers
 * `queue_full` instead of buffering unboundedly (the JSON-lines
 * equivalent of an HTTP 503). Interactive jobs and bulk jobs have
 * separate bounds so a bulk sweep can never starve interactive
 * admission, and claim() always serves interactive work first.
 *
 * Jobs carry an atomic state machine so three parties — the claiming
 * worker, the timeout watchdog, and a cancel request — can race for a
 * job and exactly one wins the right to answer it. The Queued ->
 * Running transition happens INSIDE the queue lock at claim time:
 * there is no window where a job has left the ring but is still
 * Queued, so the watchdog can never answer `timeout` for a job a
 * worker has already popped and is about to run.
 */

#ifndef NACHOS_SERVICE_JOB_QUEUE_HH
#define NACHOS_SERVICE_JOB_QUEUE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>

#include "harness/run_json.hh"

namespace nachos {

/**
 * Lifecycle of a job. Legal transitions (all CAS-guarded):
 * Queued -> Running (claim), Queued -> Cancelled (cancel request),
 * Queued/Running -> TimedOut (watchdog), Running -> Done (worker).
 * Whoever performs the transition out of Queued/Running owns the
 * response; a worker that finishes a job the watchdog already timed
 * out discards its result.
 */
enum class JobState : int { Queued, Running, Done, TimedOut, Cancelled };

/** One admitted run request. */
struct Job
{
    uint64_t requestId = 0; ///< client-visible id (per connection)
    JobSpec spec;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    bool hasDeadline = false;

    /**
     * Sends one complete response line, trailing newline included, to
     * the job's connection (thread-safe).
     */
    std::function<void(std::string_view line)> respond;

    std::atomic<JobState> state{JobState::Queued};

    bool
    tryTransition(JobState from, JobState to)
    {
        return state.compare_exchange_strong(from, to);
    }
};

/** Bounded dual-class ring of shared Jobs (one per daemon). */
class JobQueue
{
  public:
    JobQueue(size_t interactiveCapacity, size_t bulkCapacity);

    /**
     * Admit a job to its class's ring; false when that ring is full
     * or the queue is closed. When admission succeeds, `onAdmit` runs
     * under the queue lock before any worker can claim the job — use
     * it for accounting that must be ordered before the job's
     * completion (e.g. an accepted counter that a metrics reader
     * compares against completed).
     */
    bool tryPush(std::shared_ptr<Job> job,
                 const std::function<void()> &onAdmit = {});

    /**
     * Claim the next job that `mayRun` (when set) accepts: the oldest
     * such interactive job, else the oldest such bulk job. `mayRun`
     * runs under the queue lock; a job it refuses keeps its place and
     * stays Queued, so cancel and the watchdog treat it as any queued
     * job. The returned job has already made the Queued -> Running
     * transition under the queue lock — the caller owns its execution
     * and its response unless the watchdog later times it out.
     *
     * Blocks until a job it may run arrives or wake() is called (then
     * it tests the queued jobs again); returns null once the queue is
     * closed and drained. Cancelled/timed-out corpses are dropped
     * here.
     */
    std::shared_ptr<Job>
    claim(const std::function<bool(const Job &)> &mayRun = {});

    /**
     * Make blocked claimers test the queued jobs again: call it when
     * something a `mayRun` test reads has changed.
     */
    void wake();

    /**
     * Cancel a still-queued job (matched by pointer identity).
     * Performs Queued -> Cancelled; false if the job already left the
     * queue or the Queued state.
     */
    bool cancel(const std::shared_ptr<Job> &job);

    /** Close the queue: pushes fail, claimers drain then get 0. */
    void close();

    size_t depth(AdmitClass klass) const;

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Job>> interactive_;
    std::deque<std::shared_ptr<Job>> bulk_;
    size_t interactiveCapacity_;
    size_t bulkCapacity_;
    bool closed_ = false;
};

} // namespace nachos

#endif // NACHOS_SERVICE_JOB_QUEUE_HH
