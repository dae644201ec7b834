/**
 * @file
 * SSIM tool: compare two PPM images with the quality layer (MSSIM, PSNR)
 * and optionally write the SSIM index map visualization (Fig. 8 style).
 *
 * Usage: ssim_tool <a.ppm> <b.ppm> [map.ppm]
 *
 * With no arguments, runs a self-demonstration on a rendered frame pair
 * (AF on vs off).
 */

#include <cstdio>

#include "pargpu/config.hh"
#include "pargpu/quality.hh"
#include "pargpu/session.hh"

using namespace pargpu;

namespace
{

int
selfDemo()
{
    std::printf("no inputs given: demonstrating on HL2 AF-on vs AF-off\n");
    GameTrace trace = buildGameTrace(GameId::HL2, 640, 480, 1);
    Session session;

    RunConfig on_cfg;
    on_cfg.scenario = DesignScenario::Baseline;
    RunResult on = session.run(trace, on_cfg);

    RunConfig off_cfg;
    off_cfg.scenario = DesignScenario::NoAF;
    RunResult off = session.run(trace, off_cfg);

    std::vector<float> map = ssimMap(off.images[0], on.images[0]);
    std::printf("MSSIM(AF-off vs AF-on) = %.4f\n", mssimOfMap(map));
    std::printf("PSNR                   = %.2f dB\n",
                psnr(off.images[0], on.images[0]));

    Image vis = ssimMapImage(map, 640, 480);
    vis.writePPM("ssim_map.ppm");
    on.images[0].writePPM("ssim_af_on.ppm");
    off.images[0].writePPM("ssim_af_off.ppm");
    std::printf("wrote ssim_af_on.ppm, ssim_af_off.ppm, ssim_map.ppm\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return selfDemo();

    Image a = Image::readPPM(argv[1]);
    Image b = Image::readPPM(argv[2]);
    if (a.empty() || b.empty()) {
        std::fprintf(stderr, "could not read inputs\n");
        return 1;
    }
    if (a.width() != b.width() || a.height() != b.height()) {
        std::fprintf(stderr, "image dimensions differ\n");
        return 1;
    }

    std::vector<float> map = ssimMap(a, b);
    std::printf("MSSIM = %.4f\n", mssimOfMap(map));
    std::printf("PSNR  = %.2f dB\n", psnr(a, b));

    if (argc >= 4) {
        Image vis = ssimMapImage(map, a.width(), a.height());
        if (vis.writePPM(argv[3]))
            std::printf("wrote %s\n", argv[3]);
    }
    return 0;
}
