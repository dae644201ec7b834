/**
 * @file
 * Fig. 17 reproduction: per-game performance-quality trade-off across the
 * unified AF-SSIM threshold (0.0 = no AF, 1.0 = baseline).
 *
 * Two best-point (BP) selections are reported:
 *  - the paper's raw speedup x MSSIM metric;
 *  - a perceptual variant, speedup x perceived-quality, using the same
 *    content-calibrated MSSIM mapping as the user-study model. Our
 *    procedural scenes compress the MSSIM axis relative to the paper's
 *    game traces (see EXPERIMENTS.md), which biases the raw metric toward
 *    threshold 0; the perceptual mapping restores the quality axis the
 *    paper's metric operates on.
 *
 * Paper: X-shaped near-linear tradeoff, most BPs in [0.1, 0.9], higher
 * resolutions prefer smaller BPs, average BP = 0.4.
 */

#include "bench_util.hh"
#include "pargpu/replay.hh"
#include "pargpu/session.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    banner("Figure 17", "threshold sweep: speedup vs MSSIM, per game");

    Session session;
    const int steps = 11;
    std::vector<Workload> games = paperWorkloads();
    std::vector<std::vector<double>> speedup_grid, mssim_grid;
    std::vector<double> bp_perceptual;

    for (const Workload &w : games) {
        // One sweep: the baseline plus every threshold, run in parallel.
        std::vector<RunConfig> configs;
        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        configs.push_back(base_cfg);
        for (int i = 0; i < steps; ++i) {
            RunConfig cfg;
            cfg.scenario = DesignScenario::Patu;
            cfg.threshold = static_cast<float>(i) / (steps - 1);
            configs.push_back(cfg);
        }
        std::vector<RunResult> runs = session.sweep(w.trace, configs);
        const RunResult &base = runs[0];
        maybeWriteMetrics("fig17", w, configs[0], base);

        std::vector<double> speeds, quals;
        for (int i = 0; i < steps; ++i) {
            const RunResult &r = runs[i + 1];
            speeds.push_back(base.avg_cycles / r.avg_cycles);
            quals.push_back(r.mssimAgainst(base.images));
        }

        int bp = 0, bpq = 0;
        double best = 0.0, bestq = 0.0;
        for (int i = 0; i < steps; ++i) {
            double metric = speeds[i] * quals[i];
            if (metric > best) {
                best = metric;
                bp = i;
            }
            // Direct substitution of MSSIM by the content-calibrated
            // perceived quality in the paper's metric.
            double pq = speeds[i] * perceivedQuality(quals[i]);
            if (pq > bestq) {
                bestq = pq;
                bpq = i;
            }
        }
        bp_perceptual.push_back(bpq / static_cast<double>(steps - 1));

        std::printf("\n(%s)  BP = %.1f (raw), %.1f (perceptual)\n",
                    w.label.c_str(), bp / static_cast<double>(steps - 1),
                    bpq / static_cast<double>(steps - 1));
        std::printf("  %9s %9s %9s %12s\n", "threshold", "speedup",
                    "MSSIM", "speed*MSSIM");
        for (int i = 0; i < steps; ++i) {
            const char *mark = i == bp && i == bpq ? "  <- BP (both)"
                : i == bp ? "  <- BP (raw)"
                : i == bpq ? "  <- BP (perceptual)"
                           : "";
            std::printf("  %9.1f %9.3f %9.4f %12.4f%s\n",
                        i / static_cast<double>(steps - 1), speeds[i],
                        quals[i], speeds[i] * quals[i], mark);
        }
        speedup_grid.push_back(speeds);
        mssim_grid.push_back(quals);
    }

    // (I) average across games.
    std::printf("\n(I) average across all games\n");
    std::printf("  %9s %9s %9s %12s\n", "threshold", "speedup", "MSSIM",
                "speed*MSSIM");
    int avg_bp = 0;
    double avg_best = 0.0;
    for (int i = 0; i < steps; ++i) {
        std::vector<double> s, q;
        for (std::size_t g = 0; g < games.size(); ++g) {
            s.push_back(speedup_grid[g][i]);
            q.push_back(mssim_grid[g][i]);
        }
        double ms = geomean(s), mq = mean(q);
        double metric = ms * perceivedQuality(mq);
        if (metric > avg_best) {
            avg_best = metric;
            avg_bp = i;
        }
        std::printf("  %9.1f %9.3f %9.4f %12.4f\n",
                    i / static_cast<double>(steps - 1), ms, mq, ms * mq);
    }
    std::printf("  average perceptual BP = %.1f; mean per-game "
                "perceptual BP = %.2f\n",
                avg_bp / static_cast<double>(steps - 1),
                mean(bp_perceptual));
    std::printf("\npaper: average BP = 0.4 with ~94%% MSSIM at that "
                "point; higher-resolution games have smaller BPs.\n");
    return 0;
}
