/**
 * @file
 * Fig. 7 reproduction: impact of disabling AF on perceived image quality
 * (MSSIM loss per game). Paper: disabling AF degrades perceived quality
 * by 28 % on average (up to 39 %).
 */

#include "bench_util.hh"
#include "pargpu/session.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    banner("Figure 7", "MSSIM loss when AF is disabled");

    Session session;
    std::printf("%-16s %12s %12s\n", "game", "MSSIM", "quality loss");

    std::vector<double> losses;
    for (const Workload &w : paperWorkloads()) {
        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        RunResult base = session.run(w.trace, base_cfg);

        RunConfig off_cfg;
        off_cfg.scenario = DesignScenario::NoAF;
        RunResult off = session.run(w.trace, off_cfg);

        double q = off.mssimAgainst(base.images);
        losses.push_back(1.0 - q);
        std::printf("%-16s %12.4f %11.1f%%\n", w.label.c_str(), q,
                    100.0 * (1.0 - q));
    }

    std::printf("%-16s %12s %11.1f%%\n", "average", "",
                100.0 * mean(losses));
    std::printf("\npaper: average quality loss 28%% (up to 39%%) when "
                "AF is disabled.\n");
    return 0;
}
