#include "harness/runner.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/session.hh"

namespace pargpu
{

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
configErrorMessage(ConfigError error)
{
    switch (error) {
    case ConfigError::BadThreshold:
        return "threshold must be in [0, 1]";
    case ConfigError::BadTcScale:
        return "tc-scale must be a power of two >= 1";
    case ConfigError::BadLlcScale:
        return "llc-scale must be a power of two >= 1";
    case ConfigError::BadMaxAniso:
        return "max-aniso must be in [1, 64]";
    case ConfigError::BadTableEntries:
        return "table-entries must be in [0, 4096] (0 = default)";
    case ConfigError::BadThreads:
        return "threads must be in [0, 4096] (0 = default)";
    case ConfigError::BadClusters:
        return "clusters must be in [0, 64] (0 = default)";
    case ConfigError::BadFilterPolicy:
        return "filter-policy must be one of "
               "patu|stf_uniform|stf_blue|stf_weighted|filter_after_shading";
    }
    return "invalid RunConfig";
}

std::vector<ConfigError>
RunConfig::validate() const
{
    std::vector<ConfigError> errors;
    if (!(threshold >= 0.0f && threshold <= 1.0f))
        errors.push_back(ConfigError::BadThreshold);
    if (!isPow2(tc_scale))
        errors.push_back(ConfigError::BadTcScale);
    if (!isPow2(llc_scale))
        errors.push_back(ConfigError::BadLlcScale);
    if (max_aniso < 1 || max_aniso > 64)
        errors.push_back(ConfigError::BadMaxAniso);
    if (table_entries < 0 || table_entries > 4096)
        errors.push_back(ConfigError::BadTableEntries);
    if (threads < 0 || threads > 4096)
        errors.push_back(ConfigError::BadThreads);
    if (clusters < 0 || clusters > 64)
        errors.push_back(ConfigError::BadClusters);
    if (!isKnownFilterPolicy(filter_policy))
        errors.push_back(ConfigError::BadFilterPolicy);
    return errors;
}

double
RunResult::mssimAgainst(const std::vector<Image> &reference) const
{
    if (images.empty() || images.size() != reference.size())
        fatal("mssimAgainst: image sets unavailable or mismatched");
    // Per-frame MSSIMs land in index-addressed slots; the reduction runs
    // serially in frame order so the sum is bit-identical at any thread
    // count.
    std::vector<double> per(images.size());
    ThreadPool::run(images.size(), 1, [&](std::size_t i) {
        per[i] = mssim(reference[i], images[i]);
    });
    double acc = 0.0;
    for (double v : per)
        acc += v;
    return acc / static_cast<double>(images.size());
}

GpuConfig
makeGpuConfig(const RunConfig &config)
{
    GpuConfig g;
    g.max_aniso = config.max_aniso;
    g.mem.tc_scale = config.tc_scale;
    g.mem.llc_scale = config.llc_scale;
    g.patu.scenario = config.scenario;
    g.patu.threshold = config.threshold;
    g.patu.max_aniso = config.max_aniso;
    if (config.table_entries > 0)
        g.patu.table_entries = config.table_entries;
    if (config.clusters > 0)
        g.clusters = static_cast<unsigned>(config.clusters);
    g.tile_parallel = config.tile_parallel;
    g.filter_policy = config.filter_policy;
    return g;
}

namespace detail
{

std::unique_ptr<GpuSimulator>
WarmSimulator::checkOut(const GpuConfig &config)
{
    {
        MutexLock lk(mu_);
        if (parked_ && parked_->config() == config)
            return std::move(parked_);
    }
    return std::make_unique<GpuSimulator>(config);
}

void
WarmSimulator::checkIn(std::unique_ptr<GpuSimulator> sim)
{
    {
        MutexLock lk(mu_);
        parked_.swap(sim);
    }
    // The displaced simulator (if any) is freed here, outside the lock.
}

RunResult
renderTrace(const GameTrace &trace, const RunConfig &config,
            RunProgress *progress, WarmSimulator *warm)
{
    // Pin the validated environment snapshot before any frame renders
    // (also arms the PARGPU_CONTRACT_REPORT atexit dump on first use).
    envOverrides();
    const std::vector<ConfigError> errors = config.validate();
    if (!errors.empty())
        fatal(std::string("invalid RunConfig: ") +
              configErrorMessage(errors.front()));
    const std::size_t n = trace.cameras.size();
    const unsigned want = config.threads > 0
        ? static_cast<unsigned>(config.threads)
        : ThreadPool::defaultThreads();
    const std::size_t parts =
        std::min<std::size_t>(want, n == 0 ? 1 : n);

    // Every frame renders into its own slot. The simulator resets cache
    // and DRAM state per frame, so a frame's output is the same whether
    // its simulator previously rendered other frames (serial path) or is
    // freshly built for a partition (parallel path); determinism_test
    // pins this down.
    PARGPU_TRACE_SCOPE_F("harness", "runTrace", n);
    std::vector<FrameOutput> outs(n);
    if (parts <= 1 || ThreadPool::inWorker()) {
        const GpuConfig gpu = makeGpuConfig(config);
        std::unique_ptr<GpuSimulator> sim = warm != nullptr
            ? warm->checkOut(gpu) : std::make_unique<GpuSimulator>(gpu);
        for (std::size_t f = 0; f < n; ++f) {
            PARGPU_TRACE_SCOPE_F("harness", "renderFrame", f);
            outs[f] = sim->renderFrame(trace.scene, trace.cameras[f],
                                       trace.width, trace.height);
            if (progress != nullptr)
                progress->onFrame(f, outs[f].stats);
        }
        if (warm != nullptr)
            warm->checkIn(std::move(sim));
    } else {
        ThreadPool::run(parts, 1, [&](std::size_t p) {
            const std::size_t lo = n * p / parts;
            const std::size_t hi = n * (p + 1) / parts;
            GpuSimulator sim(makeGpuConfig(config));
            for (std::size_t f = lo; f < hi; ++f) {
                PARGPU_TRACE_SCOPE_F("harness", "renderFrame", f);
                outs[f] = sim.renderFrame(trace.scene, trace.cameras[f],
                                          trace.width, trace.height);
                if (progress != nullptr)
                    progress->onFrame(f, outs[f].stats);
            }
        }, static_cast<unsigned>(parts));
    }

    // Aggregate serially in frame order — the identical sequence of
    // floating-point additions as the serial path.
    PARGPU_TRACE_SCOPE("harness", "aggregate");
    RunResult result;
    result.frames.reserve(n);
    if (config.keep_images)
        result.images.reserve(n);
    double cycles = 0.0, power = 0.0;
    for (FrameOutput &out : outs) {
        EnergyBreakdown e = computeEnergy(out.stats);
        result.total_energy_nj += e.total_nj();
        power += averagePowerW(e, out.stats);
        cycles += static_cast<double>(out.stats.total_cycles);
        result.frames.push_back(out.stats);
        if (config.keep_images)
            result.images.push_back(std::move(out.image));
    }
    if (n > 0) {
        result.avg_cycles = cycles / static_cast<double>(n);
        result.avg_power_w = power / static_cast<double>(n);
    }
    PARGPU_INVARIANT(result.avg_cycles >= 0.0 &&
                         result.total_energy_nj >= 0.0 &&
                         result.avg_power_w >= 0.0,
                     "negative aggregate: cycles=", result.avg_cycles,
                     " energy=", result.total_energy_nj,
                     " power=", result.avg_power_w);
    return result;
}

std::vector<RunResult>
renderSweep(const GameTrace &trace, const std::vector<RunConfig> &configs,
            int threads)
{
    // Reject bad conditions before fanning out — a fatal() on a worker
    // thread would otherwise tear down the pool mid-sweep.
    for (const RunConfig &c : configs) {
        const std::vector<ConfigError> errors = c.validate();
        if (!errors.empty())
            fatal(std::string("invalid RunConfig in sweep: ") +
                  configErrorMessage(errors.front()));
    }
    std::vector<RunResult> results(configs.size());
    // Conditions fan out across workers; renderTrace() detects it is on
    // a worker and keeps its frames serial, so there is exactly one
    // level of parallelism and results stay independent of the thread
    // count.
    ThreadPool::run(configs.size(), 1, [&](std::size_t i) {
        results[i] = renderTrace(trace, configs[i]);
    }, threads > 0 ? static_cast<unsigned>(threads) : 0);
    return results;
}

} // namespace detail

std::vector<Cycle>
frameCycles(const RunResult &run)
{
    std::vector<Cycle> c;
    c.reserve(run.frames.size());
    for (const FrameStats &f : run.frames)
        c.push_back(f.total_cycles);
    return c;
}

} // namespace pargpu
