/**
 * @file
 * Deterministic fixed-size thread pool shared by the harness, the quality
 * layer and the benches.
 *
 * Design rules that make parallel runs bit-identical to serial ones:
 *
 *  - parallelFor() hands out contiguous index chunks; callers write results
 *    into pre-sized, index-addressed slots, so the output never depends on
 *    which worker ran which chunk or in what order chunks finished.
 *  - There is no work stealing and no shared mutable state beyond the
 *    chunk counter; any cross-item reduction is the caller's job and must
 *    be done serially in index order after the loop returns.
 *  - A parallelFor() issued from inside a worker runs inline (serially) on
 *    that worker, so nested parallelism can never deadlock and never
 *    changes results.
 *
 * The default concurrency comes from the PARGPU_THREADS environment
 * variable, falling back to std::thread::hardware_concurrency(); benches
 * and the CLI can override it per process (setDefaultThreads) or per call.
 */

#ifndef PARGPU_COMMON_THREADPOOL_HH
#define PARGPU_COMMON_THREADPOOL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace pargpu
{

/**
 * A fixed set of worker threads executing chunked index ranges.
 *
 * Construct with the number of *extra* threads to spawn; the thread that
 * calls parallelFor() always participates as well, so a pool with W
 * workers gives W+1-way concurrency. A pool with 0 workers degenerates to
 * plain serial loops (useful for tests and single-core hosts).
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of spawned worker threads (excluding callers). */
    unsigned workerCount() const;

    /** Spawn additional workers so workerCount() >= @p workers. */
    void ensureWorkers(unsigned workers);

    /**
     * Run fn(i) for every i in [0, n), in chunks of @p chunk consecutive
     * indices. Blocks until all indices completed. The calling thread
     * participates. If any invocation throws, the exception raised by the
     * lowest-numbered faulting chunk is rethrown here after the loop has
     * drained (remaining chunks still run).
     *
     * @param max_threads  Cap on total concurrency for this call
     *                     (workers used + caller). 0 = no cap.
     */
    void parallelFor(std::size_t n, std::size_t chunk,
                     const std::function<void(std::size_t)> &fn,
                     unsigned max_threads = 0);

    // --- Process-wide default pool --------------------------------------

    /**
     * Default concurrency: setDefaultThreads() override if set, else
     * PARGPU_THREADS, else hardware_concurrency(); always >= 1. A set,
     * non-empty PARGPU_THREADS that is not an integer in [1, 4096] is
     * fatal() on first use.
     */
    static unsigned defaultThreads();

    /** Override defaultThreads() for this process (0 = back to env/hw). */
    static void setDefaultThreads(unsigned n);

    /** Lazily-created shared pool (grows on demand, never shrinks). */
    static ThreadPool &global();

    /** True when the current thread is a pool worker. */
    static bool inWorker();

    /**
     * Convenience: run a parallelFor on the global pool with @p threads
     * total concurrency (0 = defaultThreads()), growing the pool as
     * needed. Falls back to an inline serial loop when threads <= 1, when
     * called from a worker, or when there is a single chunk.
     */
    static void run(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)> &fn,
                    unsigned threads = 0);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_; ///< Out-of-line dtor sees the full Impl.
};

} // namespace pargpu

#endif // PARGPU_COMMON_THREADPOOL_HH
