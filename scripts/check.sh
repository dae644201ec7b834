#!/usr/bin/env bash
# pargpu correctness matrix: one command that builds and tests the tree
# under every supported analysis configuration and fails loudly on the
# first problem.
#
#    1. Release + contracts (-DPARGPU_CHECKS=ON) + -Werror, full ctest,
#       then the full ctest again with PARGPU_THREADS=4 so the pool has
#       live workers on any host (exit paths must stay safe with them)
#    2. AddressSanitizer build, full ctest
#    3. UndefinedBehaviorSanitizer build (no-recover), full ctest
#    4. ThreadSanitizer build, threading-focused ctest subset, run twice:
#       as-is, and with PARGPU_TILE_PARALLEL=1 so the intra-frame
#       tile-parallel fragment phase is exercised under TSAN
#    5. -DPARGPU_TRACING=OFF build (macros compiled out), tracing subset
#    6. pargpu-lint standalone (includes header self-containment builds)
#    7. clang-tidy over src/ (skipped with a note when not installed)
#    8. simulated-metrics gate: pargpu_harness exports of the
#       texel-bound HL2 640x512 run and the 8-cluster HL2 1280x1024 run
#       diffed against the committed baselines (bench/baselines/) with
#       --fail-on-regress, in both orders so a delta either way fails
#    9. SIMD bit-identity: determinism subset + simd_kernel_test, then
#       ssim_test (pinned MSSIM bits) and the harness metrics export
#       with an MSSIM reference run, each re-run with each tier (scalar,
#       and avx2 when the CPU has it) forced via PARGPU_SIMD; the
#       exports, serial and with PARGPU_TILE_PARALLEL=1, are diffed
#       field-by-field against the scalar serial run (forced tiers may
#       change only the dispatch fields, the driver nothing)
#   10. pargpu-analyze (concurrency & determinism AST rules) plus the
#       fixture selftest that proves every rule fires
#   11. Clang Thread Safety Analysis build (-DPARGPU_TSA=ON with
#       -Werror=thread-safety; skipped with a note when clang++ is not
#       installed)
#   12. filter-policy matrix: the determinism subset re-run under every
#       registered FilterPolicy (PARGPU_FILTER_POLICY), then the harness
#       metrics exports diffed across policies — selecting a policy may
#       change values but never the exported key set (only the
#       policy-reporting fields may differ; docs/FILTERING.md)
#   13. serve round-trip + amortization gate: pargpu_report.py boots the
#       ASan and UBSan pargpu_serve binaries and drives a real sweep
#       through the framed protocol (docs/SERVE.md), then perf_serve's
#       BENCH_serve.json is gated — a persistent session must beat a
#       fresh boot per sweep by >= 3x, bit-identically
#
# Each stage is timed; a PASS/SKIP/FAIL summary table is printed at the
# end (or at the first failure). Skipped stages announce themselves
# with a greppable "SKIP:" line.
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
while getopts "j:" opt; do
    case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

cd "$ROOT"

# --- stage runner ---------------------------------------------------------
# Stage bodies are functions. run_stage executes one in a subshell with
# errexit live (so any failing command aborts the stage), records
# PASS/SKIP/FAIL plus wall time, and stops the matrix at the first
# failure. A body signals SKIP by printing "SKIP: <reason>" and
# returning $SKIP_RC.
SKIP_RC=99
SUMMARY=()

summary() {
    echo
    echo "==== check.sh summary ===="
    printf '%-7s %-52s %s\n' "status" "stage" "time"
    local row st nm tm
    for row in "${SUMMARY[@]}"; do
        IFS='|' read -r st nm tm <<<"$row"
        printf '%-7s %-52s %4ss\n' "$st" "$nm" "$tm"
    done
}

run_stage() {
    local name="$1" fn="$2" rc=0 t0 t1
    echo
    echo "==== check.sh: $name ===="
    t0=$(date +%s)
    set +e
    ( set -euo pipefail; "$fn" )
    rc=$?
    set -e
    t1=$(date +%s)
    case "$rc" in
    0) SUMMARY+=("PASS|$name|$((t1 - t0))") ;;
    "$SKIP_RC") SUMMARY+=("SKIP|$name|$((t1 - t0))") ;;
    *)
        SUMMARY+=("FAIL|$name|$((t1 - t0))")
        summary
        echo "check.sh: stage '$name' failed (exit $rc)" >&2
        exit 1
        ;;
    esac
}

configure_build_test() {
    local dir="$1"
    shift
    local ctest_args=("--output-on-failure" "-j" "$JOBS")
    cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1 || {
        cat "$dir.configure.log" >&2
        return 1
    }
    cmake --build "$dir" -j "$JOBS"
    ctest --test-dir "$dir" "${ctest_args[@]}"
}

# --- stages ---------------------------------------------------------------

stage_release() {
    configure_build_test build-check \
        -DCMAKE_BUILD_TYPE=Release -DPARGPU_CHECKS=ON -DPARGPU_WERROR=ON
    # On a host with few cores the pool has few or no workers, so an
    # exit path that joins them (fatal() in a death test's forked child,
    # or on a worker) cannot hang there; forcing four threads makes such
    # a hang show on every host (the CTest TIMEOUT turns it into a fail).
    PARGPU_THREADS=4 ctest --test-dir build-check --output-on-failure \
        -j "$JOBS"
}

stage_asan() {
    configure_build_test build-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_ASAN=ON -DPARGPU_CHECKS=ON
}

stage_ubsan() {
    configure_build_test build-ubsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_UBSAN=ON -DPARGPU_CHECKS=ON
}

stage_tsan() {
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARGPU_TSAN=ON \
        >build-tsan.configure.log 2>&1 \
        || { cat build-tsan.configure.log >&2; return 1; }
    cmake --build build-tsan -j "$JOBS"
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R "threadpool_test|determinism_test|pipeline_test|integration_test|contract_test|session_test|serve_test|arena_test"
    # Second pass with tile parallelism forced on: every renderFrame() in
    # the subset fans its fragment phase out across clusters, so TSAN sees
    # the per-cluster sharding, the arena-backed framebuffer planes the
    # workers share, and the ordered commit pass.
    PARGPU_TILE_PARALLEL=1 ctest --test-dir build-tsan \
        --output-on-failure -j "$JOBS" \
        -R "determinism_test|pipeline_test|integration_test|arena_test"
}

stage_notrace() {
    cmake -B build-notrace -S . \
        -DCMAKE_BUILD_TYPE=Release -DPARGPU_TRACING=OFF \
        >build-notrace.configure.log 2>&1 \
        || { cat build-notrace.configure.log >&2; return 1; }
    cmake --build build-notrace -j "$JOBS" \
        --target tracing_test determinism_test pargpu_harness
    ctest --test-dir build-notrace --output-on-failure -j "$JOBS" \
        -R "tracing_test|determinism_test"
}

stage_lint() {
    python3 tools/pargpu_lint.py --root "$ROOT"
}

stage_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "SKIP: clang-tidy not installed (config committed in .clang-tidy)"
        return "$SKIP_RC"
    fi
    cmake -B build-check -S . >/dev/null
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    clang-tidy -p build-check --quiet "${tidy_sources[@]}"
}

# Diff a deterministic metrics export ($2) against its committed
# baseline ($1) in both orders: --fail-on-regress fails only on a metric
# that moved in its "worse" direction, and any delta is a behaviour
# change.
baseline_diff() {
    python3 tools/pargpu_report.py "$1" "$2" --fail-on-regress 0.01
    echo "reverse order (export as the baseline):"
    python3 tools/pargpu_report.py "$2" "$1" --fail-on-regress 0.01
}

stage_perf() {
    # Plain Release (contracts off); stages 9 and 13 reuse this tree.
    # The gate is on the *simulated* metrics, which are deterministic,
    # so its threshold (0.01 %) is tight. Host speed is perfbench's job.
    cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release \
        >build-perf.configure.log 2>&1 \
        || { cat build-perf.configure.log >&2; return 1; }
    cmake --build build-perf -j "$JOBS" --target pargpu_harness
    local harness="$ROOT/build-perf/src/harness/pargpu_harness"
    local perf_metrics="$ROOT/build-perf/perf-metrics"
    mkdir -p "$perf_metrics"
    "$harness" --run-game hl2 --run-scenario baseline \
        --run-width 640 --run-height 512 --run-frames 2 --run-threads 1 \
        --quiet --metrics-json "$perf_metrics/texel_hl2_640x512.json"
    baseline_diff bench/baselines/perf_texel_HL2-640x512_baseline.json \
        "$perf_metrics/texel_hl2_640x512.json"
    "$harness" --run-game hl2 --run-scenario baseline \
        --run-width 1280 --run-height 1024 --run-frames 1 --run-threads 1 \
        --run-clusters 8 \
        --quiet --metrics-json "$perf_metrics/tile_hl2_1280x1024.json"
    baseline_diff bench/baselines/perf_tile_HL2-1280x1024_baseline.json \
        "$perf_metrics/tile_hl2_1280x1024.json"
}

stage_simd_identity() {
    # Every tier must render the same frames and register the same
    # metrics; only the dispatch-reporting fields (run.simd_dispatch,
    # registry simd.dispatch / texunit.simd_width) may differ. The scalar
    # tier forced at run time is the configuration non-x86 targets build.
    cmake --build build-perf -j "$JOBS" \
        --target determinism_test simd_kernel_test ssim_test pargpu_harness
    ctest --test-dir build-perf --output-on-failure -j "$JOBS" \
        -R "determinism_test|simd_kernel_test"
    local simd_diff="$ROOT/build-perf/simd-diff"
    mkdir -p "$simd_diff"
    # Shared field-by-field diff: --allow names the exact keys that may
    # differ.
    cat >"$simd_diff/diff.py" <<'EOF'
import argparse, json, sys

p = argparse.ArgumentParser()
p.add_argument("a")
p.add_argument("b")
p.add_argument("--label", default="exports")
p.add_argument("--allow", action="append", default=[])
args = p.parse_args()

def flatten(node, prefix, out):
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}/{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out

a = flatten(json.load(open(args.a)), "", {})
b = flatten(json.load(open(args.b)), "", {})
bad = [k for k in a.keys() | b.keys()
       if k not in args.allow and a.get(k) != b.get(k)]
if bad:
    for k in sorted(bad):
        print(f"{args.label} mismatch {k}: {a.get(k)} vs {b.get(k)}",
              file=sys.stderr)
    sys.exit(1)
print(f"{args.label} identical ({len(a)} fields)")
EOF
    # The only fields the dispatch tier may change.
    local dispatch_allow=(--allow run/simd_dispatch
        --allow registry/scalars/simd.dispatch
        --allow registry/scalars/texunit.simd_width)
    # Forced-tier matrix: every runnable tier must pass ssim_test, whose
    # MSSIM values and SSIM-map hashes are pinned bit for bit, and, under
    # the inline and the tile-parallel driver of the fragment engine,
    # must export the scalar inline run's numbers (dispatch fields
    # aside), the MSSIM against the Baseline reference included.
    local tiers="scalar"
    if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
        tiers="$tiers avx2"
    fi
    local tier tp
    for tier in $tiers; do
        PARGPU_SIMD="$tier" "$ROOT/build-perf/tests/ssim_test"
        for tp in 0 1; do
            PARGPU_SIMD="$tier" PARGPU_TILE_PARALLEL="$tp" \
                "$ROOT/build-perf/src/harness/pargpu_harness" \
                --run-game wolf --run-scenario patu \
                --run-reference baseline \
                --run-width 160 --run-height 120 --run-frames 2 --quiet \
                --metrics-json "$simd_diff/tier-$tier-tp$tp.json"
        done
    done
    for tier in $tiers; do
        for tp in 0 1; do
            [ "$tier-$tp" = scalar-0 ] && continue
            python3 "$simd_diff/diff.py" \
                "$simd_diff/tier-scalar-tp0.json" \
                "$simd_diff/tier-$tier-tp$tp.json" \
                --label "tier scalar/$tier tile-parallel=$tp" \
                "${dispatch_allow[@]}"
        done
    done
}

stage_analyze() {
    # build-check carries compile_commands.json (exported by default);
    # without the libclang bindings the analyzer notes the fallback and
    # runs its builtin text front-end, so the gate holds either way.
    python3 tools/pargpu_analyze.py --root "$ROOT" --build-dir build-check
    python3 tests/lint_selftest.py --root "$ROOT"
}

stage_tsa() {
    local clangxx
    clangxx="$(command -v clang++ || true)"
    if [ -z "$clangxx" ]; then
        echo "SKIP: clang++ not installed (thread-safety analysis needs" \
             "clang's -Wthread-safety; annotations compile to no-ops here)"
        return "$SKIP_RC"
    fi
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_COMPILER="$clangxx" -DPARGPU_TSA=ON \
        >build-tsa.configure.log 2>&1 \
        || { cat build-tsa.configure.log >&2; return 1; }
    # -Werror=thread-safety: the build itself is the gate; no test run
    # needed (stage 1 already executes the suite).
    cmake --build build-tsa -j "$JOBS"
}

stage_policy_matrix() {
    # build-check (stage 1) carries the binaries; run the determinism
    # subset under each registered policy, then prove the metrics schema
    # does not depend on the policy: exports across policies must agree
    # on the key set, with only the policy-reporting fields differing in
    # value.
    cmake --build build-check -j "$JOBS" \
        --target determinism_test filter_policy_test pargpu_harness
    local pdir="$ROOT/build-check/policy-matrix"
    mkdir -p "$pdir"
    local policy
    for policy in patu stf_uniform stf_blue stf_weighted \
                  filter_after_shading; do
        echo "--- policy: $policy ---"
        PARGPU_FILTER_POLICY="$policy" ctest --test-dir build-check \
            --output-on-failure -j "$JOBS" \
            -R "determinism_test|filter_policy_test"
        "$ROOT/build-check/src/harness/pargpu_harness" \
            --run-game nfs --run-scenario patu \
            --run-filter-policy "$policy" \
            --run-width 160 --run-height 120 --run-frames 2 --quiet \
            --metrics-json "$pdir/$policy.json"
    done
    python3 - "$pdir"/patu.json "$pdir"/stf_uniform.json \
        "$pdir"/stf_blue.json "$pdir"/stf_weighted.json \
        "$pdir"/filter_after_shading.json <<'EOF'
import json, sys

# The only fields whose *values* identify the policy; every other field
# may differ in value but the key set itself must be identical.
POLICY_FIELDS = {
    "run/filter_policy",
    "registry/scalars/texunit.policy",
}

def flatten(node, prefix, out):
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}/{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out

docs = [(p, flatten(json.load(open(p)), "", {})) for p in sys.argv[1:]]
ref_path, ref = docs[0]
ok = True
for path, doc in docs[1:]:
    missing = ref.keys() - doc.keys()
    extra = doc.keys() - ref.keys()
    for k in sorted(missing):
        print(f"key-set drift: {k} in {ref_path} but not {path}",
              file=sys.stderr)
    for k in sorted(extra):
        print(f"key-set drift: {k} in {path} but not {ref_path}",
              file=sys.stderr)
    ok = ok and not missing and not extra
    for k in POLICY_FIELDS:
        if doc.get(k) == ref.get(k):
            print(f"{path}: policy field {k} identical to patu "
                  f"({doc.get(k)}) — policy did not take effect",
                  file=sys.stderr)
            ok = False
if not ok:
    sys.exit(1)
print(f"policy exports schema-identical across {len(docs)} policies "
      f"({len(ref)} fields each)")
EOF
}

stage_serve() {
    # The round trip under the sanitizer matrix: the report client boots
    # the actual pargpu_serve binaries from the ASan and UBSan builds
    # (stages 2 and 3) and drives a real sweep through the framed
    # protocol end to end.
    local build
    for build in build-asan build-ubsan; do
        cmake --build "$build" -j "$JOBS" --target pargpu_serve
        python3 tools/pargpu_report.py \
            --serve "$ROOT/$build/src/harness/pargpu_serve" \
            --serve-sweep wolf:96x72x2:baseline,patu \
            --serve-out "$ROOT/$build/serve-out"
        # The streamed documents are standard metrics JSONs: a
        # self-comparison through the regular diff must gate cleanly.
        python3 tools/pargpu_report.py \
            "$ROOT/$build/serve-out/serve_wolf_patu.json" \
            "$ROOT/$build/serve-out/serve_wolf_patu.json" \
            --fail-on-regress 0.01
    done
    # Amortization gate in the build-perf (stage 8) Release tree: the
    # persistent session must beat a fresh boot per sweep by >= 3x on
    # the repeated 16-config sweep, with byte-identical responses.
    cmake --build build-perf -j "$JOBS" --target perf_serve
    ( cd build-perf && ./bench/perf_serve )
    python3 tools/pargpu_report.py --serve-bench build-perf/BENCH_serve.json
}

# --- matrix ---------------------------------------------------------------

run_stage "1/13 Release + contracts + -Werror" stage_release
run_stage "2/13 AddressSanitizer" stage_asan
run_stage "3/13 UndefinedBehaviorSanitizer" stage_ubsan
run_stage "4/13 ThreadSanitizer (threading subset)" stage_tsan
run_stage "5/13 tracing compiled out (-DPARGPU_TRACING=OFF)" stage_notrace
run_stage "6/13 pargpu-lint" stage_lint
run_stage "7/13 clang-tidy" stage_tidy
run_stage "8/13 simulated-metrics gate (harness vs baselines)" stage_perf
run_stage "9/13 SIMD bit-identity (forced tiers x tile-parallel)" stage_simd_identity
run_stage "10/13 pargpu-analyze + fixture selftest" stage_analyze
run_stage "11/13 thread-safety analysis (-DPARGPU_TSA=ON)" stage_tsa
run_stage "12/13 filter-policy matrix (determinism + schema)" stage_policy_matrix
run_stage "13/13 serve round-trip (sanitizers) + amortization gate" stage_serve

summary
echo
echo "==== check.sh: all stages passed ===="
