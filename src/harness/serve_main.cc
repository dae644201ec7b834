/**
 * @file
 * pargpu_serve: persistent simulation server over stdin/stdout.
 *
 * Binds a ServeLoop to the process's standard streams: the client (e.g.
 * `pargpu_report.py --serve`) spawns this binary, writes length-prefixed
 * JSON request frames to its stdin and reads response frames from its
 * stdout (protocol in docs/SERVE.md). Assets load once per process and
 * are shared read-only across every request — the amortization
 * BENCH_serve.json measures.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "harness/serve.hh"

namespace
{

void
usage()
{
    std::printf(
        "pargpu_serve: persistent simulation server (docs/SERVE.md)\n"
        "\n"
        "Speaks length-prefixed JSON frames over stdin/stdout:\n"
        "  <decimal payload bytes>\\n<payload>\n"
        "Ops: ping, load, traces, run, sweep (streamed), status, "
        "shutdown.\n"
        "\n"
        "Options:\n"
        "  --job-workers N   concurrent sweep jobs (default 2)\n"
        "  --help            this text\n");
}

} // namespace

int
main(int argc, char **argv)
{
    pargpu::ServeOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage();
            return 0;
        }
        if (std::strcmp(argv[i], "--job-workers") == 0 && i + 1 < argc) {
            // All of the value must be the number (std::from_chars, as
            // pargpu_harness parses its --run-* flags).
            const char *v = argv[++i];
            const char *end = v + std::strlen(v);
            int n = 0;
            const std::from_chars_result r = std::from_chars(v, end, n);
            if (r.ec != std::errc{} || r.ptr != end || n < 1 || n > 4096) {
                std::fprintf(stderr,
                             "invalid value for --job-workers: '%s' (an "
                             "integer in [1, 4096])\n",
                             v);
                return 2;
            }
            options.job_workers = static_cast<unsigned>(n);
            continue;
        }
        std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
        usage();
        return 2;
    }
    // Frames are written explicitly and flushed per frame; keeping
    // iostream sync off avoids per-character stdio round-trips.
    std::ios::sync_with_stdio(false);
    pargpu::ServeLoop loop(std::cin, std::cout, options);
    return loop.run();
}
