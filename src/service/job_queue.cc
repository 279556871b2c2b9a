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
JobQueue::claim(std::chrono::milliseconds wait)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (true) {
        // Interactive first, then bulk; FIFO within a class.
        for (auto *ring : {&interactive_, &bulk_}) {
            while (!ring->empty()) {
                std::shared_ptr<Job> job = std::move(ring->front());
                ring->pop_front();
                // The CAS happens while we still hold the ring lock, so
                // a claimed job can never be seen as Queued by the
                // watchdog.
                if (job->tryTransition(JobState::Queued,
                                       JobState::Running))
                    return job;
                // Corpse (cancelled/timed out while queued): drop it.
            }
        }

        if (closed_ || wait.count() <= 0)
            return nullptr;
        if (!cv_.wait_until(lock, deadline, [this] {
                return closed_ || !interactive_.empty() ||
                       !bulk_.empty();
            }))
            return nullptr; // timed out still empty
    }
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
JobQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return interactive_.size() + bulk_.size();
}

size_t
JobQueue::depth(AdmitClass klass) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return klass == AdmitClass::Bulk ? bulk_.size()
                                     : interactive_.size();
}

bool
JobQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

} // namespace nachos
