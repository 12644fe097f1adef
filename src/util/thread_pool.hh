/**
 * @file
 * A small reusable thread pool for the parallel execution layer.
 *
 * The suite runner and the benchmarks fan independent work units out
 * over a fixed set of worker threads. The pool is deliberately tiny:
 * fixed size, FIFO queue, futures for completion, no work stealing.
 * parallelFor() is the main entry point — it runs an index range on a
 * bounded number of workers while letting results land at their index,
 * so callers keep deterministic output ordering regardless of
 * completion order.
 */

#ifndef SHARP_UTIL_THREAD_POOL_HH
#define SHARP_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sharp
{
namespace util
{

/**
 * Fixed-size pool of worker threads consuming a FIFO task queue.
 * Tasks may be submitted from any thread, including pool workers
 * (submission never blocks on task completion).
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 is clamped to 1.
     */
    explicit ThreadPool(size_t threads);

    /** Joins all workers; pending tasks are still executed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task. The returned future completes when the task has
     * run; if the task throws, the exception is delivered through the
     * future.
     */
    std::future<void> submit(std::function<void()> task);

    /** Number of worker threads. */
    size_t size() const { return workers.size(); }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::packaged_task<void()>> queue;
    std::mutex mutex;
    std::condition_variable wakeup;
    bool stopping = false;
};

/**
 * Run fn(0) ... fn(count - 1) using at most @p jobs concurrent
 * workers and block until every call has returned.
 *
 * With jobs <= 1 (or count <= 1) the calls happen inline on the
 * calling thread, in index order — the serial path stays available
 * and bit-identical for determinism checks. With jobs > 1 a
 * transient pool of min(jobs, count) workers drains an atomic index
 * counter, so indices are claimed in order even though they complete
 * out of order; callers write results to slot i of a preallocated
 * vector to keep output ordering deterministic.
 *
 * If any call throws, the first exception (by index) is rethrown
 * after all workers have finished; the remaining indices still run.
 */
void parallelFor(size_t jobs, size_t count,
                 const std::function<void(size_t)> &fn);

} // namespace util
} // namespace sharp

#endif // SHARP_UTIL_THREAD_POOL_HH
