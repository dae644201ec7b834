#include "common/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace pargpu
{

namespace
{

thread_local bool tl_in_worker = false;

std::atomic<unsigned> g_default_override{0};

} // namespace

/** One parallelFor() invocation: a chunk counter shared by all runners. */
struct ForJob
{
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t n_chunks = 0;
    const std::function<void(std::size_t)> *fn = nullptr;

    std::atomic<std::size_t> next{0};      ///< Next chunk to claim.
    std::atomic<std::size_t> completed{0}; ///< Chunks fully executed.
    std::vector<std::exception_ptr> errors;

    Mutex done_mu;
    std::condition_variable_any done_cv; ///< Waits on the annotated Mutex.

    /**
     * Claim and run chunks until the counter is exhausted. Safe to call
     * from any number of threads; a runner arriving after exhaustion
     * returns immediately without touching fn (which may be gone by then).
     */
    void
    drain()
    {
        for (;;) {
            std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= n_chunks)
                return;
            try {
                std::size_t lo = c * chunk;
                std::size_t hi = std::min(n, lo + chunk);
                for (std::size_t i = lo; i < hi; ++i)
                    (*fn)(i);
            } catch (...) {
                errors[c] = std::current_exception();
            }
            if (completed.fetch_add(1) + 1 == n_chunks) {
                MutexLock lk(done_mu);
                done_cv.notify_all();
            }
        }
    }
};

struct ThreadPool::Impl
{
    mutable Mutex mu;
    std::condition_variable_any cv; ///< Waits on the annotated Mutex.
    std::deque<std::shared_ptr<ForJob>> queue PARGPU_GUARDED_BY(mu);
    std::vector<std::thread> workers PARGPU_GUARDED_BY(mu);
    bool stop PARGPU_GUARDED_BY(mu) = false;

    void
    workerLoop()
    {
        tl_in_worker = true;
        for (;;) {
            std::shared_ptr<ForJob> job;
            {
                UniqueLock lk(mu);
                // Explicit wait loop (not the predicate overload) so the
                // guarded reads of stop/queue sit visibly under the lock.
                while (!stop && queue.empty())
                    cv.wait(lk);
                if (stop && queue.empty())
                    return;
                job = std::move(queue.front());
                queue.pop_front();
            }
            job->drain();
        }
    }

    void
    spawn(unsigned count) PARGPU_REQUIRES(mu)
    {
        for (unsigned i = 0; i < count; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }
};

ThreadPool::ThreadPool(unsigned workers)
    : impl_(std::make_unique<Impl>())
{
    MutexLock lk(impl_->mu);
    impl_->spawn(workers);
}

ThreadPool::~ThreadPool()
{
    // Swap the worker list out under the lock, then join without it: a
    // worker draining the queue needs the mutex to observe stop, so
    // joining while holding it would deadlock.
    std::vector<std::thread> workers;
    {
        MutexLock lk(impl_->mu);
        impl_->stop = true;
        workers.swap(impl_->workers);
    }
    impl_->cv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

unsigned
ThreadPool::workerCount() const
{
    MutexLock lk(impl_->mu);
    return static_cast<unsigned>(impl_->workers.size());
}

void
ThreadPool::ensureWorkers(unsigned workers)
{
    MutexLock lk(impl_->mu);
    if (impl_->workers.size() < workers)
        impl_->spawn(workers - static_cast<unsigned>(impl_->workers.size()));
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t chunk,
                        const std::function<void(std::size_t)> &fn,
                        unsigned max_threads)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    const std::size_t n_chunks = (n + chunk - 1) / chunk;

    // Serial fallbacks: nested call on a worker, no workers, a cap of one
    // thread, or nothing to hand out. Exceptions propagate directly.
    if (tl_in_worker || n_chunks <= 1 || max_threads == 1 ||
        workerCount() == 0) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->n = n;
    job->chunk = chunk;
    job->n_chunks = n_chunks;
    job->fn = &fn;
    job->errors.resize(n_chunks);

    // Helpers beyond the caller, bounded by the cap, the pool size, and
    // the number of chunks someone other than the caller could run.
    unsigned helpers = workerCount();
    if (max_threads != 0)
        helpers = std::min(helpers, max_threads - 1);
    helpers = std::min<std::size_t>(helpers, n_chunks - 1);

    {
        MutexLock lk(impl_->mu);
        for (unsigned i = 0; i < helpers; ++i)
            impl_->queue.push_back(job);
    }
    if (helpers == 1)
        impl_->cv.notify_one();
    else
        impl_->cv.notify_all();

    job->drain(); // Caller participates.

    {
        UniqueLock lk(job->done_mu);
        while (job->completed.load() < job->n_chunks)
            job->done_cv.wait(lk);
    }

    for (std::exception_ptr &e : job->errors)
        if (e)
            std::rethrow_exception(e);
}

unsigned
ThreadPool::defaultThreads()
{
    unsigned o = g_default_override.load(std::memory_order_relaxed);
    if (o > 0)
        return o;
    static const unsigned env_threads = [] {
        const char *v = std::getenv("PARGPU_THREADS");
        if (v == nullptr || v[0] == '\0')
            return 0u;
        const char *end = v + std::strlen(v);
        int n = 0;
        const std::from_chars_result r = std::from_chars(v, end, n);
        if (r.ec != std::errc{} || r.ptr != end || n < 1 || n > 4096)
            fatal(std::string("PARGPU_THREADS must be an integer in "
                              "[1, 4096], got '") + v + "'");
        return static_cast<unsigned>(n);
    }();
    if (env_threads > 0)
        return env_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
ThreadPool::setDefaultThreads(unsigned n)
{
    g_default_override.store(n, std::memory_order_relaxed);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads() - 1);
    return pool;
}

bool
ThreadPool::inWorker()
{
    return tl_in_worker;
}

void
ThreadPool::run(std::size_t n, std::size_t chunk,
                const std::function<void(std::size_t)> &fn,
                unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    if (n == 0)
        return;
    if (threads <= 1 || tl_in_worker || n <= std::max<std::size_t>(chunk, 1)) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool &pool = global();
    pool.ensureWorkers(threads - 1);
    pool.parallelFor(n, chunk, fn, threads);
}

} // namespace pargpu
