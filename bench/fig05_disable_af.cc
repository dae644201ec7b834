/**
 * @file
 * Fig. 5 reproduction: normalized speedup and energy reduction of 3D
 * rendering when AF is disabled, per game. Paper: average speedup 41 %
 * (up to 60 %), average energy reduction 28 % (up to 33 %).
 */

#include "bench_util.hh"
#include "pargpu/session.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    banner("Figure 5", "speedup / energy reduction with AF disabled");

    Session session;
    std::printf("%-16s %10s %14s\n", "game", "speedup",
                "energy reduct.");

    std::vector<double> speedups, reductions;
    for (const Workload &w : paperWorkloads()) {
        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        base_cfg.keep_images = false;
        RunResult base = session.run(w.trace, base_cfg);

        RunConfig off_cfg = base_cfg;
        off_cfg.scenario = DesignScenario::NoAF;
        RunResult off = session.run(w.trace, off_cfg);

        double speedup = base.avg_cycles / off.avg_cycles;
        double reduction = 1.0 - off.total_energy_nj / base.total_energy_nj;
        speedups.push_back(speedup);
        reductions.push_back(reduction);
        std::printf("%-16s %9.2fx %13.1f%%\n", w.label.c_str(), speedup,
                    100.0 * reduction);
    }

    std::printf("%-16s %9.2fx %13.1f%%\n", "average",
                geomean(speedups), 100.0 * mean(reductions));
    std::printf("\npaper: avg speedup 1.41x (up to 1.60x), avg energy "
                "reduction 28%% (up to 33%%).\n");
    return 0;
}
