/**
 * @file
 * Game replay: serialize a game workload to a trace file, reload it (the
 * ATTILA-style capture/replay flow), render every frame under baseline and
 * PATU, run the vsync replay model and the simulated user-study panel, and
 * dump the frames as PPM images.
 *
 * Usage: game_replay [frames]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "pargpu/config.hh"
#include "pargpu/replay.hh"
#include "pargpu/session.hh"
#include "pargpu/trace.hh"

using namespace pargpu;

int
main(int argc, char **argv)
{
    int frames = argc >= 2 ? std::atoi(argv[1]) : 4;
    const int width = 640, height = 480;

    // Capture.
    GameTrace original = buildGameTrace(GameId::Doom3, width, height,
                                        frames);
    const std::string path = "doom3.pgtrace";
    if (!writeTrace(original, path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("captured %s (%zu draws, %d frames) -> %s\n",
                original.name.c_str(), original.scene.draws.size(),
                frames, path.c_str());

    // Replay from file.
    bool ok = false;
    GameTrace trace = readTrace(path, ok);
    if (!ok) {
        std::fprintf(stderr, "failed to reload %s\n", path.c_str());
        return 1;
    }

    Session session;
    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    RunResult base = session.run(trace, base_cfg);

    RunConfig patu_cfg;
    patu_cfg.scenario = DesignScenario::Patu;
    RunResult patu = session.run(trace, patu_cfg);

    ReplayResult base_replay = simulateReplay(frameCycles(base));
    ReplayResult patu_replay = simulateReplay(frameCycles(patu));
    double quality = patu.mssimAgainst(base.images);

    ReplayCondition base_cond{1.0, base_replay.avg_fps,
                              base_replay.lag_fraction, width, height};
    ReplayCondition patu_cond{quality, patu_replay.avg_fps,
                              patu_replay.lag_fraction, width, height};

    std::printf("\n%-12s %10s %10s %8s %12s\n",
                "design", "avg fps", "lag frac", "MSSIM", "satisfaction");
    std::printf("%-12s %10.1f %10.2f %8.4f %12.2f\n", "baseline",
                base_replay.avg_fps, base_replay.lag_fraction, 1.0,
                satisfactionScore(base_cond));
    std::printf("%-12s %10.1f %10.2f %8.4f %12.2f\n", "PATU",
                patu_replay.avg_fps, patu_replay.lag_fraction, quality,
                satisfactionScore(patu_cond));

    for (std::size_t i = 0; i < patu.images.size(); ++i) {
        std::string name = "replay_frame" + std::to_string(i) + ".ppm";
        patu.images[i].writePPM(name);
    }
    std::printf("\nwrote %zu replay_frame*.ppm images\n",
                patu.images.size());
    return 0;
}
