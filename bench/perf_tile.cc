/**
 * @file
 * Tile-parallelism perf bench: times one high-resolution frame of the
 * texel-bound scenario (baseline 16xAF — every pixel through the full
 * AF path) serially and with intra-frame tile parallelism at 1/2/4/8
 * workers, checks every variant is bit-identical to the serial run, and
 * writes BENCH_tile.json.
 *
 * A single frame on purpose: frame-level parallelism has nothing to
 * chew on, so any speedup comes from the tile-parallel fragment phase
 * alone. Fixed 1280x1024 and clusters=8 so the number is comparable
 * across machines and PRs. Wall-clock speedup depends on the machine's
 * core count (hardware_concurrency is recorded in the JSON); the
 * simulated metrics are machine-independent and are what
 * scripts/check.sh gates against bench/baselines/ via
 * tools/pargpu_report.py.
 *
 * Environment:
 *   PARGPU_METRICS_DIR  also export the serial run as a standard
 *                       metrics document (schema in docs/METRICS.md)
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "pargpu/session.hh"
#include "pargpu/simd.hh"
#include "pargpu/threading.hh"

using namespace pargpu;
using namespace pargpu::bench;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
runsIdentical(const RunResult &a, const RunResult &b)
{
    bool same = a.frames.size() == b.frames.size() &&
        a.avg_cycles == b.avg_cycles &&
        a.total_energy_nj == b.total_energy_nj &&
        a.avg_power_w == b.avg_power_w;
    for (std::size_t i = 0; same && i < a.frames.size(); ++i) {
        const FrameStats &fa = a.frames[i];
        const FrameStats &fb = b.frames[i];
        same = fa.total_cycles == fb.total_cycles &&
            fa.fragment_cycles == fb.fragment_cycles &&
            fa.texture_mem_stall == fb.texture_mem_stall &&
            fa.texels == fb.texels &&
            fa.l1_misses == fb.l1_misses &&
            fa.llc_misses == fb.llc_misses &&
            fa.dram_reads == fb.dram_reads &&
            fa.clusters.size() == fb.clusters.size();
        for (std::size_t c = 0; same && c < fa.clusters.size(); ++c)
            same = fa.clusters[c].tiles == fb.clusters[c].tiles &&
                fa.clusters[c].cycles == fb.clusters[c].cycles &&
                fa.clusters[c].texels == fb.clusters[c].texels;
    }
    return same;
}

} // namespace

int
main()
{
    banner("Perf tile",
           "intra-frame tile parallelism, serial vs 1/2/4/8 workers");

    Session session;
    // One frame, paper-native resolution, texel-bound scenario: the
    // fragment phase dominates, which is exactly what tile parallelism
    // accelerates.
    GameTrace trace = buildGameTrace(GameId::HL2, 1280, 1024, 1);

    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Baseline;
    serial_cfg.keep_images = false;
    serial_cfg.threads = 1;
    serial_cfg.clusters = 8;
    RunConfig tile_cfg = serial_cfg;
    tile_cfg.tile_parallel = true;

    const unsigned hw = std::thread::hardware_concurrency();
    constexpr unsigned kWorkers[] = {1, 2, 4, 8};

    // Warm up once (page cache, pool spin-up) outside the timed region.
    ThreadPool::setDefaultThreads(2);
    session.run(trace, tile_cfg);
    ThreadPool::setDefaultThreads(0);

    auto t0 = std::chrono::steady_clock::now();
    RunResult serial = session.run(trace, serial_cfg);
    auto t1 = std::chrono::steady_clock::now();
    const double s_sec = seconds(t0, t1);

    std::printf("1 frame at %dx%d (scenario baseline, 8 clusters), "
                "%u hardware cores\n",
                trace.width, trace.height, hw);
    std::printf("  serial    : %7.2f s\n", s_sec);

    double tile_sec[4] = {0, 0, 0, 0};
    bool identical = true;
    for (int i = 0; i < 4; ++i) {
        ThreadPool::setDefaultThreads(kWorkers[i]);
        auto w0 = std::chrono::steady_clock::now();
        RunResult tiled = session.run(trace, tile_cfg);
        auto w1 = std::chrono::steady_clock::now();
        tile_sec[i] = seconds(w0, w1);
        const bool same = runsIdentical(serial, tiled);
        identical = identical && same;
        std::printf("  %u worker%s : %7.2f s  (%.2fx)  bit-identical: %s\n",
                    kWorkers[i], kWorkers[i] == 1 ? " " : "s",
                    tile_sec[i], s_sec / tile_sec[i], same ? "yes" : "NO");
        ThreadPool::setDefaultThreads(0);
    }

    FILE *f = std::fopen("BENCH_tile.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_tile.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_tile\",\n"
                 "  \"workload\": \"hl2\",\n"
                 "  \"scenario\": \"baseline\",\n"
                 "  \"frames\": 1,\n"
                 "  \"width\": %d,\n"
                 "  \"height\": %d,\n"
                 "  \"clusters\": 8,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"cpu_sse\": %s,\n"
                 "  \"cpu_avx2\": %s,\n"
                 "  \"simd_dispatch\": \"%s\",\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"tile_parallel\": [\n",
                 trace.width, trace.height, hw,
                 simd::hostHasSse() ? "true" : "false",
                 simd::hostHasAvx2() ? "true" : "false",
                 simd::tierName(simd::activeTier()), s_sec);
    for (int i = 0; i < 4; ++i)
        std::fprintf(f,
                     "    {\"workers\": %u, \"seconds\": %.6f, "
                     "\"speedup\": %.6f}%s\n",
                     kWorkers[i], tile_sec[i], s_sec / tile_sec[i],
                     i < 3 ? "," : "");
    std::fprintf(f,
                 "  ],\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_tile.json\n");

    // Export the serial run in the standard metrics schema when
    // PARGPU_METRICS_DIR is set; scripts/check.sh gates it against
    // bench/baselines/ with tools/pargpu_report.py.
    Workload w;
    w.label = "HL2-" + std::to_string(trace.width) + "x" +
        std::to_string(trace.height);
    w.trace = std::move(trace);
    maybeWriteMetrics("perf_tile", w, serial_cfg, serial);

    return identical ? 0 : 1;
}
