#include "service/job_queue.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

JobQueue::JobQueue(size_t interactiveCapacity, size_t bulkCapacity)
    : interactiveCapacity_(interactiveCapacity),
      bulkCapacity_(bulkCapacity)
{
    NACHOS_ASSERT(interactiveCapacity > 0 && bulkCapacity > 0,
                  "job queue needs capacity >= 1 per class");
}

bool
JobQueue::tryPush(std::shared_ptr<Job> job,
                  const std::function<void()> &onAdmit)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_)
            return false;
        std::deque<std::shared_ptr<Job>> &ring =
            job->spec.klass == AdmitClass::Bulk ? bulk_ : interactive_;
        const size_t capacity = job->spec.klass == AdmitClass::Bulk
                                    ? bulkCapacity_
                                    : interactiveCapacity_;
        if (ring.size() >= capacity)
            return false;
        ring.push_back(std::move(job));
        if (onAdmit)
            onAdmit();
    }
    cv_.notify_one();
    return true;
}

std::shared_ptr<Job>
JobQueue::claim(const std::function<bool(const Job &)> &mayRun)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        // Interactive first, then bulk; FIFO within a class among the
        // jobs that may run. A refused job keeps its place.
        for (auto *ring : {&interactive_, &bulk_}) {
            for (auto it = ring->begin(); it != ring->end();) {
                Job &job = **it;
                if (job.state.load() == JobState::Queued && mayRun &&
                    !mayRun(job)) {
                    ++it;
                    continue;
                }
                // The CAS happens while we still hold the ring lock, so
                // a claimed job can never be seen as Queued by the
                // watchdog.
                if (job.tryTransition(JobState::Queued,
                                      JobState::Running)) {
                    std::shared_ptr<Job> claimed = std::move(*it);
                    ring->erase(it);
                    return claimed;
                }
                // Corpse (cancelled/timed out while queued): drop it.
                it = ring->erase(it);
            }
        }

        if (closed_ && interactive_.empty() && bulk_.empty())
            return nullptr;
        cv_.wait(lock);
    }
}

void
JobQueue::wake()
{
    // Taking the lock orders this wake after any claimer's test that
    // missed the change: that claimer is already waiting.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
}

bool
JobQueue::cancel(const std::shared_ptr<Job> &job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::deque<std::shared_ptr<Job>> &ring =
        job->spec.klass == AdmitClass::Bulk ? bulk_ : interactive_;
    auto it = std::find(ring.begin(), ring.end(), job);
    if (it == ring.end())
        return false;
    if (!job->tryTransition(JobState::Queued, JobState::Cancelled))
        return false;
    ring.erase(it);
    return true;
}

void
JobQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

size_t
JobQueue::depth(AdmitClass klass) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return klass == AdmitClass::Bulk ? bulk_.size()
                                     : interactive_.size();
}

} // namespace nachos
