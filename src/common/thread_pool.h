/**
 * @file
 * A small fixed-size thread pool for fanning independent simulations
 * across cores.
 *
 * Design constraints, in order:
 *   1. Determinism. The pool never influences results — callers
 *      submit self-contained jobs (own RNG, own caches, own stats)
 *      and collect outputs by index, so a run with N workers is
 *      bit-identical to a serial run. There is no work stealing and
 *      no shared scratch state.
 *   2. Simplicity. One mutex-guarded FIFO queue, condition-variable
 *      wakeups, futures for results and exception propagation. The
 *      jobs the simulator runs are seconds long; queue overhead is
 *      irrelevant.
 *   3. Graceful degradation. A pool with zero or one workers runs
 *      jobs inline on the calling thread (zero) or on a single
 *      worker (one); parallelFor() is then plain serial execution.
 *
 * Parallelism is across simulations only: each CmpSim's main loop
 * stays single-threaded, banked L2s included. Running one
 * simulation's banks on worker threads was tried and removed: it ran
 * slower than serial at every worker count (DESIGN.md §12).
 */

#ifndef VANTAGE_COMMON_THREAD_POOL_H_
#define VANTAGE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/event_trace.h"

namespace vantage {

/** Fixed worker count, futures-based task pool. */
class ThreadPool
{
  public:
    /**
     * @param workers worker-thread count. 0 => no threads are
     *        spawned and submit()/parallelFor() run inline on the
     *        calling thread.
     */
    explicit ThreadPool(unsigned workers)
    {
        threads_.reserve(workers);
        for (unsigned i = 0; i < workers; ++i) {
            threads_.emplace_back([this, i] { workerLoop(i); });
        }
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &t : threads_) {
            t.join();
        }
    }

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Queue a job; its result (or exception) arrives via the future.
     * With zero workers the job runs inline before submit() returns.
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F &&job)
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(job));
        std::future<R> result = task->get_future();
        if (threads_.empty()) {
            TraceSpan span(kTracePool, "pool.job");
            (*task)();
            return result;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task] { (*task)(); });
        }
        wake_.notify_one();
        return result;
    }

    /**
     * Run fn(0) .. fn(n-1), blocking until all complete. Iterations
     * must be independent; they may run in any order on any worker.
     * If any iteration throws, the first exception (in index order)
     * is rethrown after every iteration has finished.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        if (threads_.empty()) {
            std::exception_ptr first_inline;
            for (std::size_t i = 0; i < n; ++i) {
                try {
                    fn(i);
                } catch (...) {
                    if (!first_inline) {
                        first_inline = std::current_exception();
                    }
                }
            }
            if (first_inline) {
                std::rethrow_exception(first_inline);
            }
            return;
        }
        std::vector<std::future<void>> pending;
        pending.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            pending.push_back(submit([&fn, i] { fn(i); }));
        }
        std::exception_ptr first;
        for (auto &f : pending) {
            try {
                f.get();
            } catch (...) {
                if (!first) {
                    first = std::current_exception();
                }
            }
        }
        if (first) {
            std::rethrow_exception(first);
        }
    }

    /**
     * Resolve a worker count: `requested` if nonzero, else
     * $VANTAGE_JOBS if set, else hardware concurrency. Always >= 1.
     */
    static unsigned
    resolveJobs(unsigned requested = 0)
    {
        if (requested > 0) {
            return requested;
        }
        if (const char *s = std::getenv("VANTAGE_JOBS")) {
            const unsigned long v = std::strtoul(s, nullptr, 10);
            if (v > 0) {
                return static_cast<unsigned>(v);
            }
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? hw : 1;
    }

  private:
    void
    workerLoop(unsigned index)
    {
        // Tracing is observational: the name registration and the
        // per-job spans never touch job state or ordering.
        traceSetThreadName("pool-worker-" + std::to_string(index));
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] {
                    return stop_ || !queue_.empty();
                });
                if (queue_.empty()) {
                    return; // stop_ and drained.
                }
                job = std::move(queue_.front());
                queue_.pop_front();
            }
            TraceSpan span(kTracePool, "pool.job", "worker",
                           static_cast<double>(index));
            job();
        }
    }

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

} // namespace vantage

#endif // VANTAGE_COMMON_THREAD_POOL_H_
