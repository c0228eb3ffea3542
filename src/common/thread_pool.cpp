#include "common/thread_pool.hpp"

#include <algorithm>

namespace kelle {
namespace common {

namespace {

/** Spins a worker burns through before parking on the condvar: long
 *  enough that back-to-back lookahead windows stay futex-free, short
 *  enough that an idle pool costs nothing measurable. */
constexpr int kSpinRounds = 1 << 14;

} // namespace

std::size_t
defaultParallelism()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads ? threads : defaultParallelism())
{
    if (threads_ <= 1)
        return;
    workers_.reserve(threads_ - 1);
    try {
        for (std::size_t t = 1; t < threads_; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (const std::system_error &) {
        // Spawn failed (thread limits): forEach degrades gracefully —
        // the workers that did start plus the caller drain every job.
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::drain(const std::function<void(std::size_t)> &body,
                  std::size_t n)
{
    for (;;) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        // acq_rel: the caller's done_ == n read carries every body
        // write back to it (the forEach join contract).
        done_.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        // Wait for a new epoch: spin first, then park.
        int spins = kSpinRounds;
        while (!shutdown_.load(std::memory_order_acquire) &&
               epoch_.load(std::memory_order_acquire) == seen) {
            if (--spins <= 0) {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return shutdown_.load(
                               std::memory_order_acquire) ||
                           epoch_.load(std::memory_order_acquire) !=
                               seen;
                });
                break;
            }
        }
        if (shutdown_.load(std::memory_order_acquire))
            return;
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        {
            // Read the payload under mutex_ and register as draining
            // in the same critical section: forEach only replaces the
            // payload and resets the claim counter once inDrain_ hits
            // zero, so this snapshot can never be torn or go stale
            // into a reset counter — the worst a late worker sees is
            // an exhausted counter for a finished job.
            std::lock_guard<std::mutex> lock(mutex_);
            fn = job_;
            n = jobSize_;
            seen = epoch_.load(std::memory_order_acquire);
            ++inDrain_;
        }
        if (fn != nullptr)
            drain(*fn, n);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inDrain_;
        }
        wake_.notify_all();
    }
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (threads_ <= 1 || workers_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // A straggler from the previous job may still sit inside
        // drain() (claiming an exhausted counter, about to exit);
        // resetting next_ under its feet would hand it a live index
        // into a destroyed body. Wait it out — by the time the
        // previous forEach returned every iteration had finished, so
        // this only covers the exit tail and is near-instant.
        wake_.wait(lock, [&] { return inDrain_ == 0; });
        job_ = &body;
        jobSize_ = n;
        done_.store(0, std::memory_order_relaxed);
        next_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();
    drain(body, n);
    // Join: spin until every iteration has finished executing. The
    // caller claimed until exhaustion above, so this only waits out
    // bodies still running on workers.
    while (done_.load(std::memory_order_acquire) < n)
        std::this_thread::yield();

    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace common
} // namespace kelle
