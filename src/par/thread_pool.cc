#include "par/thread_pool.hh"

#include <cstdlib>
#include <exception>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/parse.hh"
#include "obs/obs.hh"

namespace tpre::par
{

namespace
{

/** Pool the current thread is a worker of (nested-call detection). */
thread_local const ThreadPool *tCurrentPool = nullptr;

} // namespace

unsigned
usableHardwareThreads()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("TPRE_JOBS"))
        return parseJobs(env, "TPRE_JOBS");
    return usableHardwareThreads();
}

bool
onPoolWorker()
{
    return tCurrentPool != nullptr;
}

ThreadPool::ThreadPool(unsigned threads)
{
    // Queue 0 doubles as the deferred-task queue of the inline pool.
    queues_.resize(threads ? threads : 1);
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        const std::size_t q =
            threads_.empty() ? 0 : nextQueue_++ % queues_.size();
        queues_[q].push_back(std::move(task));
    }
    TPRE_OBS_COUNT("pool.tasks");
    TPRE_OBS_GAUGE_ADD("pool.queue_depth", 1);
    cv_.notify_one();
}

bool
ThreadPool::take(std::size_t self, Task &out)
{
    std::deque<Task> &own = queues_[self];
    if (!own.empty()) {
        out = std::move(own.back());
        own.pop_back();
        TPRE_OBS_GAUGE_ADD("pool.queue_depth", -1);
        return true;
    }
    for (std::size_t k = 1; k < queues_.size(); ++k) {
        std::deque<Task> &victim =
            queues_[(self + k) % queues_.size()];
        if (!victim.empty()) {
            out = std::move(victim.front());
            victim.pop_front();
            TPRE_OBS_COUNT("pool.steals");
            TPRE_OBS_GAUGE_ADD("pool.queue_depth", -1);
            TPRE_TRACE_INSTANT("pool", "steal", obs::Domain::Wall,
                               obs::wallMicros(), self);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    tCurrentPool = this;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        Task task;
        if (take(self, task)) {
            lock.unlock();
            task();
            task = nullptr;
            lock.lock();
            continue;
        }
        if (stop_)
            return;
        cv_.wait(lock);
    }
}

void
ThreadPool::drain()
{
    if (!threads_.empty())
        return;
    for (;;) {
        Task task;
        {
            std::lock_guard<std::mutex> guard(mu_);
            if (queues_[0].empty())
                break;
            task = std::move(queues_[0].front());
            queues_[0].pop_front();
        }
        TPRE_OBS_GAUGE_ADD("pool.queue_depth", -1);
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;

    // Serial reference path: no workers, a single index, or a
    // nested call from one of this pool's own workers (which would
    // otherwise deadlock waiting on itself).
    if (threads_.empty() || n == 1 || tCurrentPool == this) {
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                body(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    struct Batch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = 0;
        std::exception_ptr error;
    } batch;
    batch.remaining = n;

    for (std::size_t i = 0; i < n; ++i) {
        submit([&batch, &body, i] {
            std::exception_ptr error;
            try {
                body(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> guard(batch.mu);
            if (error && !batch.error)
                batch.error = error;
            if (--batch.remaining == 0)
                batch.cv.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(batch.mu);
    batch.cv.wait(lock, [&batch] { return batch.remaining == 0; });
    if (batch.error)
        std::rethrow_exception(batch.error);
}

} // namespace tpre::par
