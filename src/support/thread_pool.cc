#include "support/thread_pool.hh"

#include <cstdlib>

#include "support/logging.hh"
#include "support/parse.hh"

namespace nachos {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
    }
}

ThreadPool::~ThreadPool()
{
    // Wake everyone; workerLoop keeps draining the queue after the
    // stop request, so every submitted future still becomes ready.
    for (std::jthread &worker : workers_)
        worker.request_stop();
    cv_.notify_all();
    // ~jthread joins.
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop(std::stop_token stop)
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // Returns false only when stopped *and* the queue is
            // empty: shutdown finishes pending work first.
            if (!cv_.wait(lock, stop,
                          [this] { return !queue_.empty(); })) {
                return;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("NACHOS_THREADS")) {
        if (const std::optional<uint64_t> n =
                parseDecimal(env, 1, kMaxThreads))
            return static_cast<unsigned>(*n);
        warn("ignoring invalid NACHOS_THREADS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace nachos
