/**
 * @file
 * Session-based experiment facade: immutable shared assets, queued jobs,
 * streamed metrics snapshots.
 *
 * Session is the one entry point for running experiments. It amortizes
 * everything a one-shot run pays per invocation: decoded scenes,
 * procedural textures and their mip pyramids, replayable traces, and the
 * validated environment overrides.
 * Assets are loaded once (load()), held behind shared_ptr<const GameTrace>
 * and shared read-only across every job; thousands of config evaluations
 * can then run in one process against one decode.
 *
 * Execution surfaces, all bit-identical to one another:
 *
 *  - run()/sweep(trace, ...): synchronous, borrowing a caller-owned
 *    trace — what benches, examples and tests call.
 *  - sweep(key, ...): synchronous sweep over a loaded asset; its output
 *    (RunResults, metrics JSON, counters, images) is byte-identical to
 *    sweep(trace, ...) on the same configs (session_test pins this down).
 *  - submit()/submitSweep(): asynchronous jobs on a small dispatcher
 *    crew; each job fans its frames out onto the shared ThreadPool and
 *    exposes streamed metrics snapshots while running. Handles are
 *    shared_ptr<Job> and outlive the Session (teardown drains the
 *    queue, so a surviving handle always ends in State::Done).
 *
 * Warm simulator: once a Session is warm, run() and submit() jobs
 * allocate no multi-MB scratch. The Session parks the GpuSimulator of
 * its last single-simulator render (one frame, one thread, or nested in
 * a pool worker) in one mutex-guarded slot; the next such render checks
 * it out when its GpuConfig is equal, builds a fresh one otherwise, and
 * parks its simulator back either way, so the slot always holds the
 * latest config's simulator and lives as long as the Session. Frames
 * fanned out across the pool render on fresh per-partition simulators,
 * and sweeps (sweep(), submitSweep()) build one fresh simulator per
 * config and keep none: their configs differ, so a slot would only
 * churn, and keeping one simulator per config would hold one frame
 * arena each and raise peak memory. Outputs are bit-identical either
 * way.
 *
 * Error reporting extends the ConfigError/configErrorMessage pattern into
 * a small typed Status (code + message): loading and submission return
 * Status instead of fataling, so a server (pargpu_serve) can reject bad
 * requests with the same typed reasons RunConfig::validate() produces.
 */

#ifndef PARGPU_HARNESS_SESSION_HH
#define PARGPU_HARNESS_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/json.hh"
#include "harness/runner.hh"

namespace pargpu
{

/** Typed reason a Session request failed (Status::code). */
enum class StatusCode
{
    Ok,            ///< Request accepted / completed.
    InvalidConfig, ///< A RunConfig failed RunConfig::validate().
    UnknownTrace,  ///< No asset loaded under the requested key.
    DuplicateKey,  ///< load() under a key already bound to another asset.
    InvalidRequest,///< Malformed request (missing field, bad value).
    ShuttingDown,  ///< Session/server is tearing down.
    IoError,       ///< Transport or filesystem failure.
};

/** Stable wire name of @p code ("ok", "invalid_config", ...). */
const char *statusCodeName(StatusCode code);

/**
 * Typed error report for the Session surface: a StatusCode plus a
 * human-readable message (for InvalidConfig, the joined
 * configErrorMessage() strings of every violation).
 */
struct Status
{
    StatusCode code = StatusCode::Ok;
    std::string message;

    bool ok() const { return code == StatusCode::Ok; }

    /** The success value. */
    static Status success() { return Status{}; }

    /** An error with @p code and @p message. */
    static Status
    fail(StatusCode code, std::string message)
    {
        return Status{code, std::move(message)};
    }
};

/**
 * Validate @p config the Session way: Ok when valid, else InvalidConfig
 * with every configErrorMessage() joined by "; " — the same typed
 * reasons run() fatals with, minus the process exit.
 */
Status validateRunConfig(const RunConfig &config);

/**
 * Snapshot of every PARGPU_* environment override that can change run
 * behavior, parsed and validated in one pass (envOverrides()). All the
 * underlying readers cache on first use; taking the snapshot at Session
 * construction forces that first use up front, so a job started later
 * can never observe a mid-run environment change.
 */
struct EnvOverrides
{
    unsigned default_threads = 1;  ///< PARGPU_THREADS / hardware.
    bool tile_parallel_forced = false; ///< PARGPU_TILE_PARALLEL=1.
    FilterPolicyId filter_policy = FilterPolicyId::Patu;
        ///< PARGPU_FILTER_POLICY (default patu).
    bool contract_report = false;  ///< PARGPU_CONTRACT_REPORT set.
};

/**
 * The process's environment overrides, parsed and validated once (first
 * call; fatal() on malformed values, exactly like the lazy readers it
 * front-loads). Subsequent calls return the same snapshot.
 */
const EnvOverrides &envOverrides();

namespace detail
{

/** Per-frame completion hook for streamed job progress. */
class RunProgress
{
  public:
    virtual ~RunProgress() = default;

    /**
     * Frame @p index of the trace finished with @p stats. May be called
     * from any ThreadPool worker; implementations synchronize
     * internally and must not mutate the run.
     */
    virtual void onFrame(std::size_t index, const FrameStats &stats) = 0;
};

/**
 * A Session's warm slot: the simulator of its last single-simulator
 * render, parked so the next render under an equal GpuConfig reuses it
 * (frame arena, bins, record logs already sized and faulted in) instead
 * of building and faulting in a fresh one. A simulator's output never
 * depends on what it rendered before (renderFrame() resets every piece
 * of per-frame state), so reuse is bit-identical to a fresh build.
 * Thread safe; a concurrent render that finds the slot empty builds its
 * own simulator.
 */
class WarmSimulator
{
  public:
    /** The parked simulator if its config equals @p config, else a new one. */
    std::unique_ptr<GpuSimulator> checkOut(const GpuConfig &config);

    /** Park @p sim, dropping whichever simulator was parked before. */
    void checkIn(std::unique_ptr<GpuSimulator> sim);

  private:
    Mutex mu_;
    std::unique_ptr<GpuSimulator> parked_ PARGPU_GUARDED_BY(mu_);
};

/**
 * The Session::run() engine: renders
 * every frame of @p trace under @p config, frames parallel on the
 * shared pool unless nested, aggregation serial in frame order.
 * fatal()s on an invalid config. @p progress, when non-null, observes
 * each frame completion (it never affects the result). When the frames
 * render on one simulator and @p warm is non-null, that simulator comes
 * from and goes back to @p warm; frames fanned out across the pool
 * always render on fresh per-partition simulators.
 */
RunResult renderTrace(const GameTrace &trace, const RunConfig &config,
                      RunProgress *progress = nullptr,
                      WarmSimulator *warm = nullptr);

/** The Session::sweep() engine: conditions in parallel, results by index. */
std::vector<RunResult> renderSweep(const GameTrace &trace,
                                   const std::vector<RunConfig> &configs,
                                   int threads = 0);

} // namespace detail

class Session;

/**
 * One queued/running/finished unit of Session work: a single RunConfig
 * rendered against one loaded trace. Handles are shared_ptr and remain
 * valid after the owning Session is destroyed (teardown drains the
 * queue, so a surviving handle always reaches State::Done).
 */
class Job
{
  public:
    /** Lifecycle of a submitted job. */
    enum class State
    {
        Queued,  ///< Accepted, waiting for a dispatcher.
        Running, ///< Rendering frames.
        Done,    ///< result() is final.
    };

    /** Construction passkey: only Session can mint one. */
    class Passkey
    {
        friend class Session;
        Passkey() = default;
    };

    /**
     * Session-only (via Passkey); use Session::submit() to make jobs.
     * @p warm is the Session's warm slot, or nullptr for a job that
     * must render on fresh simulators (one of a submitSweep()).
     */
    Job(Passkey, std::string trace_key,
        std::shared_ptr<const GameTrace> trace, const RunConfig &config,
        detail::WarmSimulator *warm);

    State state() const;

    /** Block until the job reaches State::Done. */
    void wait() const;

    /** Key of the loaded trace this job renders. */
    const std::string &traceKey() const { return trace_key_; }

    /** The condition this job renders. */
    const RunConfig &config() const { return config_; }

    /** Frames in the job's trace. */
    std::size_t framesTotal() const { return frames_total_; }

    /** Frames finished so far (monotonic; == framesTotal() when Done). */
    std::size_t framesCompleted() const;

    /**
     * Blocking access to the finished result (wait() + reference). The
     * result is bit-identical to Session::run(trace, config()).
     */
    const RunResult &result() const;

    /**
     * Streamed metrics snapshot: a JSON object with the job state,
     * frame progress, and the standard registry built over the frames
     * completed so far (in frame order). Callable at any time from any
     * thread; a snapshot never perturbs the run. After Done the
     * registry equals the one metricsJson() derives from result().
     */
    Json snapshot() const;

  private:
    friend class Session;

    /**
     * Dispatcher-side execution (exactly once). @p completed, when
     * non-null, is incremented before Done is published so a waiter
     * never observes a finished job with a stale session counter.
     */
    void execute(std::atomic<std::size_t> *completed);

    /** The progress sink handed to detail::renderTrace(). */
    class Progress;

    const std::string trace_key_;
    const std::shared_ptr<const GameTrace> trace_; ///< Keeps asset alive.
    const RunConfig config_;
    const std::size_t frames_total_;
    /** The Session's warm slot; only dereferenced while it runs. */
    detail::WarmSimulator *const warm_;

    mutable Mutex mu_;
    mutable std::condition_variable_any cv_;
    State state_ PARGPU_GUARDED_BY(mu_) = State::Queued;
    /** Completed frames' stats, index-addressed (empty slot = pending). */
    std::vector<FrameStats> partial_ PARGPU_GUARDED_BY(mu_);
    std::vector<bool> partial_done_ PARGPU_GUARDED_BY(mu_);
    std::size_t n_done_ PARGPU_GUARDED_BY(mu_) = 0;
    RunResult result_ PARGPU_GUARDED_BY(mu_);
};

/** Shared, Session-outliving reference to a submitted Job. */
using JobHandle = std::shared_ptr<Job>;

/** Session construction knobs. */
struct SessionOptions
{
    /**
     * Dispatcher threads executing submitted jobs concurrently
     * (0 = default of 2). Each job additionally fans its frames onto
     * the shared ThreadPool; concurrency across jobs never changes any
     * job's result.
     */
    unsigned job_workers = 0;
};

/**
 * The session facade (file header above for the full story). Thread
 * safe: load/submit/sweep may be called from any thread.
 */
class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /**
     * Drains the job queue (every accepted job runs to completion),
     * then joins the dispatchers. Outstanding JobHandles stay valid.
     */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** The validated env snapshot taken at construction. */
    const EnvOverrides &env() const { return env_; }

    // --- Immutable shared assets ----------------------------------------

    /**
     * Bind @p trace to @p key. The asset becomes immutable and shared
     * read-only by every job that references it. Reloading the same key
     * is DuplicateKey (assets never mutate under running jobs).
     */
    Status load(const std::string &key, GameTrace trace);

    /**
     * Build buildGameTrace(game, width, height, frames) under @p key.
     * InvalidRequest unless viewportInRange(width, height) and
     * framesInRange(frames); checked before anything is built.
     */
    Status load(const std::string &key, GameId game, int width, int height,
                int frames);

    /** The asset under @p key, or nullptr. */
    std::shared_ptr<const GameTrace> trace(const std::string &key) const;

    /** Keys of every loaded asset, sorted. */
    std::vector<std::string> traceKeys() const;

    // --- Synchronous execution -------------------------------------------

    /**
     * Render @p trace under @p config (fatal() on an invalid config).
     * @p trace is borrowed: it must outlive the call. Renders on the
     * warm simulator when the frames do not fan out (file comment).
     */
    RunResult run(const GameTrace &trace, const RunConfig &config);

    /**
     * Render @p trace under every condition of @p configs, conditions in
     * parallel (frames within each condition stay serial on a worker).
     * results[i] corresponds to configs[i] and is bit-identical to
     * run(trace, configs[i]).
     *
     * @param threads  Total concurrency (0 = PARGPU_THREADS/default).
     */
    std::vector<RunResult> sweep(const GameTrace &trace,
                                 const std::vector<RunConfig> &configs,
                                 int threads = 0);

    /**
     * Sweep a loaded asset: validates every config (typed Status instead
     * of fatal()), then runs the same sweep engine. @p results is
     * byte-identical to sweep(trace, configs, threads) — metrics
     * JSON, counters and images included.
     */
    Status sweep(const std::string &key,
                 const std::vector<RunConfig> &configs,
                 std::vector<RunResult> *results, int threads = 0);

    // --- Asynchronous jobs ----------------------------------------------

    /**
     * Enqueue one condition against a loaded asset. On success returns
     * the handle (and Ok through @p status when given); on failure
     * returns nullptr with the typed reason in @p status.
     */
    JobHandle submit(const std::string &key, const RunConfig &config,
                     Status *status = nullptr);

    /**
     * Enqueue one job per config (a concurrent sweep; like sweep(), its
     * jobs render on fresh simulators). All-or-nothing:
     * on any invalid config nothing is enqueued and the vector is
     * empty with the reason in @p status. Waiting on the handles in
     * order yields results bit-identical to sweep().
     */
    std::vector<JobHandle> submitSweep(const std::string &key,
                                       const std::vector<RunConfig> &configs,
                                       Status *status = nullptr);

    /** Jobs accepted so far (monotonic). */
    std::size_t jobsSubmitted() const;

    /** Jobs finished so far (monotonic). */
    std::size_t jobsCompleted() const;

  private:
    void dispatcherLoop();
    void enqueue(const JobHandle &job);

    const EnvOverrides &env_;
    const unsigned job_workers_;

    mutable Mutex mu_;
    std::condition_variable_any cv_;
    std::map<std::string, std::shared_ptr<const GameTrace>> traces_
        PARGPU_GUARDED_BY(mu_);
    std::deque<JobHandle> queue_ PARGPU_GUARDED_BY(mu_);
    std::vector<std::thread> dispatchers_ PARGPU_GUARDED_BY(mu_);
    bool stop_ PARGPU_GUARDED_BY(mu_) = false;
    std::atomic<std::size_t> submitted_{0};
    std::atomic<std::size_t> completed_{0};
    /** Shared by run() and submit() jobs; sweeps never touch it. */
    detail::WarmSimulator warm_;
};

} // namespace pargpu

#endif // PARGPU_HARNESS_SESSION_HH
