/**
 * @file
 * Threshold explorer: sweep PATU's unified AF-SSIM threshold for one game
 * and print the performance-quality trade-off curve (the per-game view of
 * the paper's Fig. 17), including the best point by speedup x MSSIM.
 *
 * Usage: threshold_explorer [game] [width height]
 *   game in {hl2, doom3, grid, nfs, stal, ut3, wolf, rbench}
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pargpu/config.hh"
#include "pargpu/session.hh"

using namespace pargpu;

namespace
{

GameId
parseGame(const char *s)
{
    std::string v = s;
    if (v == "hl2") return GameId::HL2;
    if (v == "doom3") return GameId::Doom3;
    if (v == "grid") return GameId::Grid;
    if (v == "nfs") return GameId::Nfs;
    if (v == "stal") return GameId::Stalker;
    if (v == "ut3") return GameId::Ut3;
    if (v == "wolf") return GameId::Wolf;
    if (v == "rbench") return GameId::RBench;
    std::fprintf(stderr, "unknown game '%s', using hl2\n", s);
    return GameId::HL2;
}

} // namespace

int
main(int argc, char **argv)
{
    GameId game = argc >= 2 ? parseGame(argv[1]) : GameId::HL2;
    int width = 640, height = 480;
    if (argc >= 4) {
        width = std::atoi(argv[2]);
        height = std::atoi(argv[3]);
    }

    GameTrace trace = buildGameTrace(game, width, height, 2);
    std::printf("threshold sweep for %s\n\n", trace.name.c_str());

    Session session;
    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    RunResult base = session.run(trace, base_cfg);

    std::printf("%9s %9s %9s %12s\n",
                "threshold", "speedup", "MSSIM", "speed*MSSIM");

    double best_metric = 0.0;
    float best_threshold = 1.0f;
    for (int i = 0; i <= 10; ++i) {
        float threshold = 0.1f * static_cast<float>(i);
        RunConfig cfg;
        cfg.scenario = DesignScenario::Patu;
        cfg.threshold = threshold;
        RunResult run = session.run(trace, cfg);
        double speedup = base.avg_cycles / run.avg_cycles;
        double quality = run.mssimAgainst(base.images);
        double metric = speedup * quality;
        if (metric > best_metric) {
            best_metric = metric;
            best_threshold = threshold;
        }
        std::printf("%9.1f %9.3f %9.4f %12.4f\n",
                    threshold, speedup, quality, metric);
    }
    std::printf("\nbest point (BP): threshold = %.1f "
                "(speedup x MSSIM = %.4f)\n",
                best_threshold, best_metric);
    return 0;
}
