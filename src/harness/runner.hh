/**
 * @file
 * Experiment runner: renders a game trace under a design scenario and
 * aggregates the measurements every bench and example consumes.
 *
 * Runs execute through a Session (harness/session.hh), which renders
 * with the engine in runner.cc. Frames of a trace are independent by
 * construction (the simulator resets cache and DRAM state per frame), so
 * Session::run() renders them in parallel on the shared thread pool — one
 * GpuSimulator per worker partition, each frame written into its own
 * pre-sized slot, aggregation done serially in frame order. The parallel
 * path is bit-identical to the serial one. Session::sweep() parallelizes
 * one level up, across RunConfig conditions.
 */

#ifndef PARGPU_HARNESS_RUNNER_HH
#define PARGPU_HARNESS_RUNNER_HH

#include <vector>

#include "power/energy.hh"
#include "quality/ssim.hh"
#include "scenes/scenes.hh"
#include "sim/pipeline.hh"
#include "texture/filter_policy.hh"

namespace pargpu
{

/**
 * Typed reason a RunConfig field is invalid, as reported by
 * RunConfig::validate(). Callers that want a human-readable message use
 * configErrorMessage().
 */
enum class ConfigError
{
    BadThreshold,    ///< threshold outside [0, 1].
    BadTcScale,      ///< tc_scale zero or not a power of two.
    BadLlcScale,     ///< llc_scale zero or not a power of two.
    BadMaxAniso,     ///< max_aniso outside [1, 64].
    BadTableEntries, ///< table_entries negative or above 4096.
    BadThreads,      ///< threads negative or above 4096.
    BadClusters,     ///< clusters negative or above 64.
    BadFilterPolicy, ///< filter_policy not a registered policy.
};

/** Human-readable description of @p error (includes the legal range). */
const char *configErrorMessage(ConfigError error);

/** One experimental condition. */
struct RunConfig
{
    DesignScenario scenario = DesignScenario::Baseline;
    float threshold = 0.4f;   ///< Unified AF-SSIM threshold.
    unsigned tc_scale = 1;    ///< Texture-cache capacity multiplier.
    unsigned llc_scale = 1;   ///< LLC capacity multiplier.
    int max_aniso = 16;
    bool keep_images = true;  ///< Retain rendered frames (for SSIM).
    int table_entries = 0;    ///< PATU hash-table entries (0 = default).
    int threads = 0;          ///< Frame-level parallelism of one run:
                              ///< 0 = PARGPU_THREADS/default, 1 = serial.
    bool tile_parallel = false; ///< Intra-frame tile parallelism across
                                ///< clusters (GpuConfig::tile_parallel;
                                ///< bit-identical to serial).
    int clusters = 0;         ///< Shader clusters (0 = Table I default).
    /**
     * Texture-unit filtering strategy (docs/FILTERING.md); defaults to
     * PARGPU_FILTER_POLICY when set, else the paper's PATU flow.
     */
    FilterPolicyId filter_policy = defaultFilterPolicy();

    /**
     * Check every field against its legal range and return the list of
     * violations (empty = valid). Session::run()/sweep() call this and
     * fatal() on the first violation instead of silently clamping or
     * crashing deep inside cache construction; interactive drivers (the
     * harness CLI) report all violations and exit cleanly.
     *
     * Ranges: threshold in [0,1]; tc_scale/llc_scale a power of two >= 1
     * (the cache model requires a power-of-two set count); max_aniso in
     * [1,64]; table_entries in [0,4096] (0 = scenario default);
     * threads in [0,4096] (0 = PARGPU_THREADS/default); clusters in
     * [0,64] (0 = Table I default); filter_policy a registered
     * FilterPolicyId.
     */
    std::vector<ConfigError> validate() const;
};

/** Aggregated results of rendering all frames of a trace. */
struct RunResult
{
    std::vector<FrameStats> frames;
    std::vector<Image> images;     ///< Empty if keep_images was false.
    double avg_cycles = 0.0;       ///< Mean frame time (cycles).
    double total_energy_nj = 0.0;  ///< Sum over frames (GPU + DRAM).
    double avg_power_w = 0.0;      ///< Mean of per-frame average power.

    /** Mean MSSIM of this run's frames against @p reference frames. */
    double mssimAgainst(const std::vector<Image> &reference) const;
};

/** Build the GpuConfig for a run condition. */
GpuConfig makeGpuConfig(const RunConfig &config);

/** Frame times of a run, for the replay/vsync model. */
std::vector<Cycle> frameCycles(const RunResult &run);

/**
 * Sum a FrameStats field across frames (convenience for benches).
 */
template <typename T>
double
sumOver(const std::vector<FrameStats> &frames, T FrameStats::*field)
{
    double acc = 0.0;
    for (const FrameStats &f : frames)
        acc += static_cast<double>(f.*field);
    return acc;
}

} // namespace pargpu

#endif // PARGPU_HARNESS_RUNNER_HH
