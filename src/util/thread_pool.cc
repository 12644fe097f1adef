#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>

namespace sharp
{
namespace util
{

ThreadPool::ThreadPool(size_t threads)
{
    size_t n = std::max<size_t>(threads, 1);
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wakeup.notify_all();
    for (auto &worker : workers)
        worker.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(packaged));
    }
    wakeup.notify_one();
    return future;
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wakeup.wait(lock,
                        [this] { return stopping || !queue.empty(); });
            // Drain the queue even when stopping so submitted futures
            // always complete.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }
        task(); // exceptions land in the task's future
    }
}

void
parallelFor(size_t jobs, size_t count,
            const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    size_t width = std::min(jobs, count);
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(count);

    {
        ThreadPool pool(width);
        std::vector<std::future<void>> done;
        done.reserve(width);
        for (size_t w = 0; w < width; ++w) {
            done.push_back(pool.submit([&] {
                while (true) {
                    size_t i = next.fetch_add(1);
                    if (i >= count)
                        return;
                    try {
                        fn(i);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            }));
        }
        for (auto &future : done)
            future.get();
    }

    for (auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace util
} // namespace sharp
