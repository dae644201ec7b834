/**
 * @file
 * Fig. 6 reproduction: memory-bandwidth usage breakdown (texture vs
 * color/depth vs geometry) with AF on and off, plus the Section II-B
 * companion metrics (texture-fetch reduction and filtering-latency
 * reduction from disabling AF). Paper: texture fetching is ~71 % of
 * total bandwidth; disabling AF cuts texture traffic by 28 % on average
 * (up to 51 %) and filtering latency by ~47 %.
 */

#include "bench_util.hh"
#include "pargpu/session.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    banner("Figure 6", "memory bandwidth breakdown, AF on vs off");

    Session session;
    std::printf("%-16s | %21s | %21s | %9s %9s\n", "",
                "AF-on traffic share", "AF-off traffic share", "tex",
                "filt.lat");
    std::printf("%-16s | %6s %7s %6s | %6s %7s %6s | %9s %9s\n", "game",
                "tex", "col/z", "geom", "tex", "col/z", "geom",
                "reduct.", "reduct.");

    std::vector<double> tex_share, tex_reduct, lat_reduct;
    for (const Workload &w : paperWorkloads()) {
        RunConfig on_cfg;
        on_cfg.scenario = DesignScenario::Baseline;
        on_cfg.keep_images = false;
        RunResult on = session.run(w.trace, on_cfg);

        RunConfig off_cfg = on_cfg;
        off_cfg.scenario = DesignScenario::NoAF;
        RunResult off = session.run(w.trace, off_cfg);

        auto shares = [](const RunResult &r, double out[3]) {
            double tex = sumOver(r.frames, &FrameStats::traffic_texture);
            double col = sumOver(r.frames,
                                 &FrameStats::traffic_colordepth);
            double geo = sumOver(r.frames, &FrameStats::traffic_geometry);
            double total = tex + col + geo;
            out[0] = tex / total;
            out[1] = col / total;
            out[2] = geo / total;
            return tex;
        };
        double on_s[3], off_s[3];
        double on_tex = shares(on, on_s);
        double off_tex = shares(off, off_s);

        double on_lat =
            sumOver(on.frames, &FrameStats::texture_filter_cycles);
        double off_lat =
            sumOver(off.frames, &FrameStats::texture_filter_cycles);

        tex_share.push_back(on_s[0]);
        tex_reduct.push_back(1.0 - off_tex / on_tex);
        lat_reduct.push_back(1.0 - off_lat / on_lat);

        std::printf("%-16s | %5.1f%% %6.1f%% %5.1f%% | %5.1f%% %6.1f%% "
                    "%5.1f%% | %8.1f%% %8.1f%%\n",
                    w.label.c_str(), 100 * on_s[0], 100 * on_s[1],
                    100 * on_s[2], 100 * off_s[0], 100 * off_s[1],
                    100 * off_s[2], 100 * tex_reduct.back(),
                    100 * lat_reduct.back());
    }

    std::printf("%-16s | %5.1f%% %14s | %21s | %8.1f%% %8.1f%%\n",
                "average", 100 * mean(tex_share), "", "",
                100 * mean(tex_reduct), 100 * mean(lat_reduct));
    std::printf("\npaper: texture ~71%% of bandwidth; AF-off cuts "
                "texture fetch 28%% avg (up to 51%%), filter latency "
                "~47%%.\n");
    return 0;
}
