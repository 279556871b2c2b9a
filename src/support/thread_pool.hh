/**
 * @file
 * Fixed-size worker pool for the embarrassingly parallel parts of the
 * evaluation (one task per workload run). Deliberately minimal: a
 * single locked deque every worker takes from — suite tasks are coarse
 * (milliseconds to seconds each), so queue contention is noise. Tasks
 * return futures; an exception thrown inside a task is captured and
 * rethrown from future::get(), so callers see failures exactly as the
 * sequential code would.
 */

#ifndef NACHOS_SUPPORT_THREAD_POOL_HH
#define NACHOS_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace nachos {

class ThreadPool
{
  public:
    /** Spawn `threads` workers (clamped to at least 1). */
    explicit ThreadPool(unsigned threads = defaultThreadCount());

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Queue `fn` for execution. The returned future yields fn's result
     * or rethrows whatever it threw.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn)
        -> std::future<std::invoke_result_t<std::decay_t<Fn>>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Worker count from the NACHOS_THREADS environment variable, else
     * every hardware thread (at least 1).
     */
    static unsigned defaultThreadCount();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop(std::stop_token stop);

    std::mutex mutex_;
    std::condition_variable_any cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::jthread> workers_;
};

/**
 * Run `fn(item, index)` over every element of `items` on the pool and
 * return the results in input order, independent of completion order.
 * Exceptions are rethrown in index order (the first failing index
 * wins), matching what a sequential loop would report first.
 */
template <typename T, typename Fn>
auto
parallelMap(ThreadPool &pool, const std::vector<T> &items, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, const T &, size_t>>
{
    using R = std::invoke_result_t<Fn &, const T &, size_t>;
    static_assert(!std::is_void_v<R>,
                  "parallelMap tasks must return a value");
    std::vector<std::future<R>> futures;
    futures.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        futures.push_back(
            pool.submit([&fn, &items, i] { return fn(items[i], i); }));
    }
    std::vector<R> results;
    results.reserve(items.size());
    for (std::future<R> &future : futures)
        results.push_back(future.get());
    return results;
}

} // namespace nachos

#endif // NACHOS_SUPPORT_THREAD_POOL_HH
