/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench renders real frames through the simulator, which is costly
 * at the paper's native resolutions on one core. By default the benches
 * run at half linear resolution with 2 frames per game (relative results
 * are resolution-stable; see EXPERIMENTS.md). Set PARGPU_FULLRES=1 for
 * the paper's native resolutions and PARGPU_FRAMES=n to change the frame
 * count.
 */

#ifndef PARGPU_BENCH_BENCH_UTIL_HH
#define PARGPU_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "pargpu/metrics.hh"
#include "pargpu/config.hh"

namespace pargpu::bench
{

/** True when PARGPU_FULLRES=1: use the paper's native resolutions. */
inline bool
fullRes()
{
    const char *v = std::getenv("PARGPU_FULLRES");
    return v && v[0] == '1';
}

/**
 * Frames per game trace: PARGPU_FRAMES when set, else 2. A set value
 * must be a positive integer (all of it, std::from_chars); anything else
 * exits 2 naming the value.
 */
inline int
numFrames()
{
    const char *v = std::getenv("PARGPU_FRAMES");
    if (v == nullptr || v[0] == '\0')
        return 2;
    const char *end = v + std::strlen(v);
    int n = 0;
    const std::from_chars_result r = std::from_chars(v, end, n);
    if (r.ec != std::errc{} || r.ptr != end || n < 1) {
        std::fprintf(stderr,
                     "PARGPU_FRAMES must be a positive integer, got '%s'\n",
                     v);
        std::exit(2);
    }
    return n;
}

/** Scale a paper resolution down unless full-res mode is on. */
inline int
scaleDim(int dim)
{
    return fullRes() ? dim : dim / 2;
}

/** A workload instance used by most benches. */
struct Workload
{
    GameTrace trace;
    std::string label;
};

/** Build the nine Table II game/resolution pairs. */
inline std::vector<Workload>
paperWorkloads()
{
    std::vector<Workload> out;
    for (const BenchmarkEntry &e : paperBenchmarks()) {
        Workload w;
        w.trace = buildGameTrace(e.id, scaleDim(e.width),
                                 scaleDim(e.height), numFrames());
        w.label = std::string(e.abbr) + "-" + std::to_string(e.width) +
            "x" + std::to_string(e.height);
        out.push_back(std::move(w));
    }
    return out;
}

/** Print the standard bench banner. */
inline void
banner(const char *fig, const char *title)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s: %s\n", fig, title);
    std::printf("resolution mode: %s, %d frame(s) per game\n",
                fullRes() ? "paper-native" : "half-linear (set "
                                             "PARGPU_FULLRES=1 for native)",
                numFrames());
    std::printf("================================================="
                "=====================\n");
}

/**
 * Export one run as a metrics document when PARGPU_METRICS_DIR is set
 * (no-op otherwise). The file is named
 * <dir>/<tool>_<workload>_<scenario>.json so sweeps don't collide, and
 * uses the same schema as `pargpu_harness --metrics-json`
 * (docs/METRICS.md) — so any two bench runs can be diffed with
 * tools/pargpu_report.py.
 *
 * @param mssim  Quality vs. a reference run, or < 0 if not measured.
 */
inline void
maybeWriteMetrics(const char *tool, const Workload &w,
                  const RunConfig &config, const RunResult &run,
                  double mssim = -1.0)
{
    const char *dir = std::getenv("PARGPU_METRICS_DIR");
    if (!dir || !dir[0])
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec); // best-effort
    RunMetadata meta;
    meta.tool = tool;
    meta.workload = w.label;
    meta.width = w.trace.width;
    meta.height = w.trace.height;
    meta.frames = static_cast<int>(w.trace.cameras.size());
    std::string path = std::string(dir) + "/" + tool + "_" + w.label +
        "_" + scenarioMetricName(config.scenario) + ".json";
    if (!writeMetricsJson(path, meta, config, run, mssim))
        std::fprintf(stderr, "bench: cannot write metrics to %s\n",
                     path.c_str());
}

/** Geometric mean of a list of ratios. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

} // namespace pargpu::bench

#endif // PARGPU_BENCH_BENCH_UTIL_HH
