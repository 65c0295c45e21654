/**
 * @file
 * tpre::par::ThreadPool: a work-stealing thread pool sized for the
 * experiment engine's job granularity (whole simulations, each
 * milliseconds to seconds of work).
 *
 * Each worker owns a deque; the owner pushes and pops at the back
 * (LIFO, keeps caches warm), thieves take from the front (FIFO,
 * steals the oldest — and for parallelFor() the largest-remaining —
 * work). Because jobs are coarse, the queues are guarded by one
 * mutex rather than lock-free Chase-Lev deques: the lock is touched
 * a few thousand times per bench run, far below contention levels,
 * and the simple discipline is easy to reason about under TSan.
 *
 * A pool with zero threads degenerates to inline execution on the
 * calling thread, which is the engine's serial reference path.
 */

#ifndef TPRE_PAR_THREAD_POOL_HH
#define TPRE_PAR_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpre::par
{

/**
 * Hardware threads this process may run on: its CPU affinity mask
 * where there is one (taskset and cpusets narrow it, which
 * std::thread::hardware_concurrency() does not see), else the
 * host's count; at least 1.
 */
unsigned usableHardwareThreads();

/**
 * Default worker count: TPRE_JOBS when set (fatal on garbage),
 * otherwise usableHardwareThreads().
 */
unsigned defaultJobs();

/** Whether the calling thread is a worker of some ThreadPool. */
bool onPoolWorker();

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * @param threads Worker threads to spawn. 0 means no workers:
     *                every submitted task runs inline at the next
     *                wait point, and parallelFor() executes its
     *                body sequentially on the calling thread.
     */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 for the inline pool). */
    unsigned threads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Enqueue one task. Tasks are distributed round-robin over the
     * worker deques; idle workers steal from their siblings. With
     * zero workers the task is deferred and run inline by the next
     * parallelFor()/drain() on the calling thread.
     */
    void submit(Task task);

    /**
     * Run body(0) .. body(n-1) across the pool and block until all
     * calls finished. The first exception thrown by any body is
     * rethrown on the calling thread after the batch completes
     * (remaining indices still run, so partial results are
     * well-defined). Called from inside a worker of this pool, or
     * on a zero-thread pool, the loop executes inline.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Run deferred tasks of a zero-thread pool; no-op otherwise. */
    void drain();

  private:
    void workerLoop(std::size_t self);
    /** Pop from own back or steal from a sibling's front. */
    bool take(std::size_t self, Task &out);

    std::vector<std::deque<Task>> queues_;
    std::vector<std::thread> threads_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::size_t nextQueue_ = 0;
    bool stop_ = false;
};

} // namespace tpre::par

#endif // TPRE_PAR_THREAD_POOL_HH
