/**
 * @file
 * A persistent worker pool for fine-grained fork/join parallelism.
 *
 * `common::parallelFor` spawns and joins transient threads per call,
 * which is fine for bench sweeps where each iteration runs for
 * milliseconds, but far too heavy for the cluster drive loop,
 * which forks a device-sized batch of work at every lookahead window
 * — often microseconds of work per device. `ThreadPool` keeps its
 * workers alive across `forEach` calls: a dispatch is one atomic
 * epoch bump plus (when workers had gone to sleep) one condition
 * notify, and workers spin briefly before sleeping so back-to-back
 * windows never pay a futex round trip.
 *
 * Iterations are claimed from a shared atomic counter exactly like
 * `parallelFor`, so every index executes exactly once whatever the
 * interleaving, and a caller that writes only slot `i` of a
 * preallocated output gets results bit-identical to the serial loop.
 * `forEach` blocks until every iteration finished (the join is the
 * synchronization point: all worker writes happen-before it returns)
 * and rethrows the first worker exception on the calling thread.
 */

#ifndef KELLE_COMMON_THREAD_POOL_HPP
#define KELLE_COMMON_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kelle {
namespace common {

class ThreadPool
{
  public:
    /**
     * A pool that runs `forEach` bodies across `threads` lanes: the
     * calling thread plus `threads - 1` persistent workers
     * (0 = defaultParallelism()). A 1-thread pool spawns nothing and
     * runs every body inline.
     */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (workers + the calling thread). */
    std::size_t threads() const { return threads_; }

    /**
     * Run `body(i)` for every i in [0, n) across the pool plus the
     * calling thread; blocks until every iteration finished. Bodies
     * see all caller writes made before the call, and the caller sees
     * all body writes after it returns. Not reentrant: a body must
     * not call forEach on the same pool.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();
    void drain(const std::function<void(std::size_t)> &body,
               std::size_t n);

    std::size_t threads_;
    std::vector<std::thread> workers_;

    /** Bumped once per forEach; workers run the job whose epoch they
     *  have not processed yet, then park. */
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> shutdown_{false};
    /** Iterations of the current job that have finished executing. */
    std::atomic<std::size_t> done_{0};
    /** Workers currently inside drain(); guarded by mutex_ so forEach
     *  can wait for stragglers before replacing the job payload. */
    std::size_t inDrain_ = 0;

    /** Job payload for the current epoch (written under mutex_ before
     *  the epoch bump publishes it). */
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t jobSize_ = 0;
    std::atomic<std::size_t> next_{0};

    std::mutex mutex_;
    std::condition_variable wake_;

    std::exception_ptr firstError_;
    std::mutex errorMutex_;
};

} // namespace common
} // namespace kelle

#endif // KELLE_COMMON_THREAD_POOL_HPP
