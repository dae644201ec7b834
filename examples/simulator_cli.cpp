/**
 * @file
 * Command-line simulator driver: render any game workload under any
 * design scenario and print the full measurement set — the ATTILA-style
 * "run a trace, dump stats" workflow.
 *
 * Usage:
 *   simulator_cli [--game hl2|doom3|grid|nfs|stal|ut3|wolf|rbench]
 *                 [--scenario baseline|noaf|n|ntxds|patu]
 *                 [--threshold T] [--width W] [--height H]
 *                 [--frames N] [--tc-scale S] [--llc-scale S]
 *                 [--threads N] [--stereo] [--dump-ppm PREFIX]
 *
 * --threads N (or PARGPU_THREADS=N) renders frames N-wide in parallel;
 * results are bit-identical to a serial run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pargpu/threading.hh"
#include "pargpu/config.hh"
#include "pargpu/power.hh"
#include "pargpu/session.hh"
#include "pargpu/sim.hh"

using namespace pargpu;

namespace
{

struct Options
{
    GameId game = GameId::HL2;
    RunConfig run;
    int width = 640;
    int height = 512;
    int frames = 2;
    bool stereo = false;
    std::string dump_prefix;
};

GameId
parseGame(const std::string &v)
{
    if (v == "hl2") return GameId::HL2;
    if (v == "doom3") return GameId::Doom3;
    if (v == "grid") return GameId::Grid;
    if (v == "nfs") return GameId::Nfs;
    if (v == "stal") return GameId::Stalker;
    if (v == "ut3") return GameId::Ut3;
    if (v == "wolf") return GameId::Wolf;
    if (v == "rbench") return GameId::RBench;
    std::fprintf(stderr, "unknown game '%s'\n", v.c_str());
    std::exit(1);
}

DesignScenario
parseScenario(const std::string &v)
{
    if (v == "baseline") return DesignScenario::Baseline;
    if (v == "noaf") return DesignScenario::NoAF;
    if (v == "n") return DesignScenario::AfSsimN;
    if (v == "ntxds") return DesignScenario::AfSsimNTxds;
    if (v == "patu") return DesignScenario::Patu;
    std::fprintf(stderr, "unknown scenario '%s'\n", v.c_str());
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (a == "--game") {
            o.game = parseGame(need("--game"));
        } else if (a == "--scenario") {
            o.run.scenario = parseScenario(need("--scenario"));
        } else if (a == "--threshold") {
            o.run.threshold =
                static_cast<float>(std::atof(need("--threshold").c_str()));
        } else if (a == "--width") {
            o.width = std::atoi(need("--width").c_str());
        } else if (a == "--height") {
            o.height = std::atoi(need("--height").c_str());
        } else if (a == "--frames") {
            o.frames = std::atoi(need("--frames").c_str());
        } else if (a == "--tc-scale") {
            o.run.tc_scale =
                static_cast<unsigned>(std::atoi(need("--tc-scale").c_str()));
        } else if (a == "--llc-scale") {
            o.run.llc_scale = static_cast<unsigned>(
                std::atoi(need("--llc-scale").c_str()));
        } else if (a == "--threads") {
            o.run.threads = std::atoi(need("--threads").c_str());
            if (o.run.threads > 0)
                ThreadPool::setDefaultThreads(
                    static_cast<unsigned>(o.run.threads));
        } else if (a == "--stereo") {
            o.stereo = true;
        } else if (a == "--dump-ppm") {
            o.dump_prefix = need("--dump-ppm");
        } else if (a == "--help" || a == "-h") {
            std::printf("see the file header for usage\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            std::exit(1);
        }
    }
    return o;
}

void
printFrame(const char *tag, const FrameStats &f)
{
    EnergyBreakdown e = computeEnergy(f);
    std::printf("[%s]\n", tag);
    std::printf("  total cycles          %llu (%.2f fps @1GHz)\n",
                static_cast<unsigned long long>(f.total_cycles), f.fps());
    std::printf("  geometry / fragment   %llu / %llu\n",
                static_cast<unsigned long long>(f.geometry_cycles),
                static_cast<unsigned long long>(f.fragment_cycles));
    std::printf("  texture filter cycles %llu (stall %llu)\n",
                static_cast<unsigned long long>(f.texture_filter_cycles),
                static_cast<unsigned long long>(f.texture_mem_stall));
    std::printf("  pixels / quads        %llu / %llu\n",
                static_cast<unsigned long long>(f.pixels_shaded),
                static_cast<unsigned long long>(f.quads));
    std::printf("  trilinear / texels    %llu / %llu\n",
                static_cast<unsigned long long>(f.trilinear_samples),
                static_cast<unsigned long long>(f.texels));
    std::printf("  decisions: trivial %llu  st1 %llu  st2 %llu  "
                "fullAF %llu\n",
                static_cast<unsigned long long>(f.trivial_tf),
                static_cast<unsigned long long>(f.approx_stage1),
                static_cast<unsigned long long>(f.approx_stage2),
                static_cast<unsigned long long>(f.full_af));
    std::printf("  traffic (B): tex %llu  col/z %llu  geo %llu\n",
                static_cast<unsigned long long>(f.traffic_texture),
                static_cast<unsigned long long>(f.traffic_colordepth),
                static_cast<unsigned long long>(f.traffic_geometry));
    std::printf("  caches: L1 %.1f%%  LLC %.1f%%  DRAM reads %llu\n",
                100.0 * f.l1_hits /
                    std::max<std::uint64_t>(1, f.l1_hits + f.l1_misses),
                100.0 * f.llc_hits /
                    std::max<std::uint64_t>(1, f.llc_hits + f.llc_misses),
                static_cast<unsigned long long>(f.dram_reads));
    std::printf("  energy: %.3f mJ (%.2f W avg)\n",
                e.total_nj() * 1e-6, averagePowerW(e, f));
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    Session session;
    GameTrace trace = buildGameTrace(o.game, o.width, o.height, o.frames);

    std::printf("workload  : %s (%zu draws, %zu tris, %zu textures)\n",
                trace.name.c_str(), trace.scene.draws.size(),
                trace.scene.numTriangles(), trace.scene.textures.size());
    std::printf("scenario  : %s, threshold %.2f%s\n",
                scenarioName(o.run.scenario), o.run.threshold,
                o.stereo ? ", stereo" : "");
    std::printf("threads   : %u\n",
                o.run.threads > 0 ? static_cast<unsigned>(o.run.threads)
                                  : ThreadPool::defaultThreads());

    if (o.stereo) {
        GpuSimulator sim(makeGpuConfig(o.run));
        for (int f = 0; f < o.frames; ++f) {
            const Camera &cam = trace.cameras[f];
            StereoFrame sf = renderStereo(sim, trace.scene, cam, o.width,
                                          o.height);
            std::printf("\n=== frame %d (stereo: %llu total cycles) ===\n",
                        f, static_cast<unsigned long long>(
                               sf.totalCycles()));
            printFrame("left eye", sf.left.stats);
            printFrame("right eye", sf.right.stats);
            if (!o.dump_prefix.empty()) {
                sf.left.image.writePPM(o.dump_prefix + "_f" +
                                       std::to_string(f) + "_L.ppm");
                sf.right.image.writePPM(o.dump_prefix + "_f" +
                                        std::to_string(f) + "_R.ppm");
            }
        }
        return 0;
    }

    // Mono path: frames render (possibly in parallel) through the
    // harness, then print in order — output is identical to a serial run.
    o.run.keep_images = !o.dump_prefix.empty();
    RunResult run = session.run(trace, o.run);
    for (int f = 0; f < o.frames; ++f) {
        std::printf("\n=== frame %d ===\n", f);
        printFrame("frame", run.frames[f]);
        if (!o.dump_prefix.empty()) {
            run.images[f].writePPM(o.dump_prefix + "_f" +
                                   std::to_string(f) + ".ppm");
        }
    }
    return 0;
}
