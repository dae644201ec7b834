/**
 * @file
 * pargpu_harness: the observability-first simulator driver. Renders any
 * game workload under any design scenario and exports the run as a
 * versioned metrics document (JSON/CSV, see docs/METRICS.md) and an
 * optional chrome://tracing profile.
 *
 * Flags come in three families (see docs/REPRODUCING.md):
 *   --run-*      the experimental condition (workload, scenario, knobs)
 *   --metrics-*  structured metric exports
 *   --trace-*    chrome://tracing profile capture
 *
 * Usage:
 *   pargpu_harness [--run-game hl2|doom3|grid|nfs|stal|ut3|wolf|rbench]
 *                  [--run-scenario baseline|noaf|n|ntxds|patu]
 *                  [--run-threshold T] [--run-width W] [--run-height H]
 *                  [--run-frames N] [--run-tc-scale S] [--run-llc-scale S]
 *                  [--run-max-aniso A] [--run-table-entries E]
 *                  [--run-threads N] [--run-tile-parallel]
 *                  [--run-clusters C]
 *                  [--run-filter-policy patu|stf_uniform|stf_blue|
 *                                       stf_weighted|filter_after_shading]
 *                  [--run-reference baseline|noaf|n|ntxds|patu]
 *                  [--metrics-json FILE] [--metrics-csv FILE]
 *                  [--trace-out FILE] [--quiet]
 *
 * Numeric values must be complete, in-range numbers: a malformed value
 * ("abc", "1x", an overflow) exits 2 with "invalid value for --run-X".
 *
 * --run-reference renders a second run under the given scenario and
 * reports MSSIM of the primary run against it (the paper's quality axis).
 * --trace-out enables the runtime trace collector around the run and
 * writes a JSON trace loadable in chrome://tracing / Perfetto.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"

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
    bool quiet = false;
    bool have_reference = false;
    DesignScenario reference = DesignScenario::Baseline;
    std::string metrics_json;
    std::string metrics_csv;
    std::string trace_out;
};

GameId
parseGame(const std::string &v)
{
    GameId id;
    if (parseGameName(v, id))
        return id;
    std::fprintf(stderr, "unknown game '%s'\n", v.c_str());
    std::exit(2);
}

DesignScenario
parseScenario(const std::string &v)
{
    DesignScenario s;
    if (parseScenarioName(v, s))
        return s;
    std::fprintf(stderr, "unknown scenario '%s'\n", v.c_str());
    std::exit(2);
}

FilterPolicyId
parseFilterPolicyOrDie(const std::string &v)
{
    FilterPolicyId id;
    if (parseFilterPolicy(v, id))
        return id;
    std::fprintf(stderr, "unknown filter policy '%s' (valid:", v.c_str());
    for (const FilterPolicyDesc &d : filterPolicyRegistry())
        std::fprintf(stderr, " %s", d.name);
    std::fprintf(stderr, ")\n");
    std::exit(2);
}

void
usage()
{
    std::printf(
        "pargpu_harness: render a workload and export structured "
        "metrics\n"
        "run condition:\n"
        "  --run-game hl2|doom3|grid|nfs|stal|ut3|wolf|rbench\n"
        "  --run-scenario baseline|noaf|n|ntxds|patu\n"
        "  --run-threshold T   unified AF-SSIM threshold (default 0.4)\n"
        "  --run-width W --run-height H --run-frames N      viewport\n"
        "  --run-tc-scale S --run-llc-scale S               cache scaling\n"
        "  --run-max-aniso A --run-table-entries E          PATU knobs\n"
        "  --run-threads N     frame-level parallelism (0 = default)\n"
        "  --run-tile-parallel render tiles in parallel across clusters\n"
        "                      (bit-identical; PARGPU_TILE_PARALLEL=1\n"
        "                      forces it on)\n"
        "  --run-clusters C    shader clusters (0 = Table I default)\n"
        "  --run-filter-policy patu|stf_uniform|stf_blue|stf_weighted|\n"
        "                      filter_after_shading   texture filtering\n"
        "                      strategy (docs/FILTERING.md; default patu,\n"
        "                      or PARGPU_FILTER_POLICY when set)\n"
        "  --run-reference S   also render S, report MSSIM against it\n"
        "exports:\n"
        "  --metrics-json F    write the metrics document (schema v%d)\n"
        "  --metrics-csv F     write per-frame stats as CSV\n"
        "  --trace-out F       write a chrome://tracing JSON profile\n"
        "  --quiet             suppress the human-readable summary\n"
        "See docs/METRICS.md for the schema and every metric name.\n",
        kMetricsSchemaVersion);
}

/**
 * Parse all of @p v as a number of type T (std::from_chars: no leading
 * blanks or '+', no trailing characters, overflow rejected), else exit 2
 * naming @p flag and the value.
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &v)
{
    T n{};
    const char *end = v.data() + v.size();
    const std::from_chars_result r = std::from_chars(v.data(), end, n);
    if (r.ec != std::errc{} || r.ptr != end) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                     v.c_str());
        std::exit(2);
    }
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto needInt = [&](const char *flag) {
            return parseNumber<int>(flag, need(flag));
        };
        if (a == "--run-game") {
            o.game = parseGame(need("--run-game"));
        } else if (a == "--run-scenario") {
            o.run.scenario = parseScenario(need("--run-scenario"));
        } else if (a == "--run-threshold") {
            o.run.threshold = parseNumber<float>(
                "--run-threshold", need("--run-threshold"));
        } else if (a == "--run-width") {
            o.width = needInt("--run-width");
        } else if (a == "--run-height") {
            o.height = needInt("--run-height");
        } else if (a == "--run-frames") {
            o.frames = needInt("--run-frames");
        } else if (a == "--run-tc-scale") {
            o.run.tc_scale =
                static_cast<unsigned>(needInt("--run-tc-scale"));
        } else if (a == "--run-llc-scale") {
            o.run.llc_scale =
                static_cast<unsigned>(needInt("--run-llc-scale"));
        } else if (a == "--run-max-aniso") {
            o.run.max_aniso = needInt("--run-max-aniso");
        } else if (a == "--run-table-entries") {
            o.run.table_entries = needInt("--run-table-entries");
        } else if (a == "--run-threads") {
            o.run.threads = needInt("--run-threads");
        } else if (a == "--run-tile-parallel") {
            o.run.tile_parallel = true;
        } else if (a == "--run-clusters") {
            o.run.clusters = needInt("--run-clusters");
        } else if (a == "--run-filter-policy") {
            o.run.filter_policy =
                parseFilterPolicyOrDie(need("--run-filter-policy"));
        } else if (a == "--run-reference") {
            o.have_reference = true;
            o.reference = parseScenario(need("--run-reference"));
        } else if (a == "--metrics-json") {
            o.metrics_json = need("--metrics-json");
        } else if (a == "--metrics-csv") {
            o.metrics_csv = need("--metrics-csv");
        } else if (a == "--trace-out") {
            o.trace_out = need("--trace-out");
        } else if (a == "--quiet") {
            o.quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            std::exit(2);
        }
    }
    if (!viewportInRange(o.width, o.height) || !framesInRange(o.frames)) {
        std::fprintf(stderr,
                     "viewport sides must be in [1, %d] and the frame "
                     "count in [1, %d]\n",
                     kMaxViewportSide, kMaxFrames);
        std::exit(2);
    }
    // Typed validation instead of the old behavior (silent acceptance,
    // then a crash or clamp deep inside the run). Report every violation,
    // not just the first — the CLI is interactive.
    const std::vector<ConfigError> errors = o.run.validate();
    if (!errors.empty()) {
        for (ConfigError e : errors)
            std::fprintf(stderr, "invalid option: %s\n",
                         configErrorMessage(e));
        std::exit(2);
    }
    if (o.run.threads > 0)
        ThreadPool::setDefaultThreads(
            static_cast<unsigned>(o.run.threads));
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);

    // The quality axis needs rendered images on both sides.
    o.run.keep_images = o.have_reference;

    // Constructing the Session takes the one validated pass over every
    // PARGPU_* override (envOverrides()), after parseArgs() so a
    // --run-threads override is already in effect; both runs below then
    // execute against the same pinned environment.
    Session session;

    GameTrace trace = buildGameTrace(o.game, o.width, o.height, o.frames);

    if (!o.trace_out.empty())
        trace::Tracing::enable();

    RunResult run = session.run(trace, o.run);

    double mssim = -1.0;
    if (o.have_reference) {
        RunConfig ref_cfg = o.run;
        ref_cfg.scenario = o.reference;
        // The reference is the quality yardstick: always exact filtering
        // under the requested scenario, never an approximating policy
        // (comparing an STF run against its own noise would report a
        // meaningless MSSIM of 1).
        ref_cfg.filter_policy = FilterPolicyId::Patu;
        RunResult ref = session.run(trace, ref_cfg);
        mssim = run.mssimAgainst(ref.images);
    }

    if (!o.trace_out.empty()) {
        trace::Tracing::disable();
        if (!trace::Tracing::writeFile(o.trace_out)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         o.trace_out.c_str());
            return 1;
        }
    }

    RunMetadata meta;
    meta.tool = "pargpu_harness";
    meta.workload = trace.name;
    meta.width = o.width;
    meta.height = o.height;
    meta.frames = o.frames;

    if (!o.metrics_json.empty() &&
        !writeMetricsJson(o.metrics_json, meta, o.run, run, mssim)) {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     o.metrics_json.c_str());
        return 1;
    }
    if (!o.metrics_csv.empty() &&
        !writeMetricsCsv(o.metrics_csv, meta, o.run, run)) {
        std::fprintf(stderr, "cannot write metrics CSV to %s\n",
                     o.metrics_csv.c_str());
        return 1;
    }

    if (!o.quiet) {
        std::printf("workload   : %s (%d frames)\n", trace.name.c_str(),
                    o.frames);
        std::printf("scenario   : %s, threshold %.2f\n",
                    scenarioMetricName(o.run.scenario), o.run.threshold);
        std::printf("policy     : %s\n",
                    filterPolicyName(o.run.filter_policy));
        std::printf("avg cycles : %.0f (%.2f fps @1GHz)\n", run.avg_cycles,
                    run.avg_cycles > 0.0 ? 1e9 / run.avg_cycles : 0.0);
        std::printf("energy     : %.3f mJ (%.2f W avg)\n",
                    run.total_energy_nj * 1e-6, run.avg_power_w);
        if (mssim >= 0.0)
            std::printf("mssim      : %.4f (vs %s)\n", mssim,
                        scenarioMetricName(o.reference));
        if (!o.metrics_json.empty())
            std::printf("metrics    : %s\n", o.metrics_json.c_str());
        if (!o.metrics_csv.empty())
            std::printf("csv        : %s\n", o.metrics_csv.c_str());
        if (!o.trace_out.empty())
            std::printf("trace      : %s (%zu events)\n",
                        o.trace_out.c_str(),
                        trace::Tracing::eventCount());
    }
    return 0;
}
