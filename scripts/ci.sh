#!/usr/bin/env bash
# CI gate: build the tree with AddressSanitizer+UBSan and run the full
# tier-1 test suite, then rebuild the concurrency-sensitive parts with
# ThreadSanitizer and run the SweepRunner tests under it.
#
#   scripts/ci.sh            # asan/ubsan suite + tsan runner tests
#   SKIP_TSAN=1 scripts/ci.sh  # asan/ubsan only (fast path)
#   SKIP_PERF=1 scripts/ci.sh  # skip the Release perf-regression gate
#
# TSan and ASan cannot share a build tree, so each sanitizer gets its
# own build directory; the perf gate needs an unsanitized Release
# build on top (sanitizer slowdown would drown real regressions), so
# it gets a third.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
ARTIFACTS=${CI_ARTIFACTS:-ci-artifacts}

# Run a fuzz sweep; on failure, sweep its FLIGHT_*.json flight
# recorder dumps into ${ARTIFACTS}/ so the divergence timeline
# survives the CI run, then fail the gate.
run_fuzz() {
    if ! "$@"; then
        mkdir -p "${ARTIFACTS}"
        mv -f FLIGHT_*.json "${ARTIFACTS}/" 2>/dev/null || true
        echo "fuzz FAILED: $* (flight dumps in ${ARTIFACTS}/)" >&2
        exit 1
    fi
    rm -f FLIGHT_*.json
}

echo "=== ASan/UBSan build + full test suite ==="
cmake -B build-asan -S . -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build build-asan -j "${JOBS}"
# The suite includes one fuzz-driver sweep per fault-plane set (the
# fuzz.* tests in bench/CMakeLists.txt).  On failure, keep the flight
# recorder dumps its failed points left in their test directories.
if ! ctest --test-dir build-asan --output-on-failure -j "${JOBS}"; then
    mkdir -p "${ARTIFACTS}"
    mv -f build-asan/bench/fuzz_tests/*/FLIGHT_*.json "${ARTIFACTS}/" \
        2>/dev/null || true
    echo "ASan suite FAILED (fuzz flight dumps in ${ARTIFACTS}/)" >&2
    exit 1
fi

echo "=== Fleet-storm smoke (ASan/UBSan) ==="
# A reduced multi-tenant fleet (DESIGN.md §13) swept on 1 and 4
# cores: churn through the crash-consistent exit/spawn paths,
# checkpoint storms over the population, reclaim demotions and OOM
# kills against the squeezed zones.  The bench self-checks churn
# determinism (two byte-identical small-fleet runs) before sweeping
# and exits non-zero if any point fails.
./build-asan/bench/fleet_storm --tenants 192 --churn 48
rm -f BENCH_fleet_storm.json

echo "=== DESIGN.md crash-site / README.md flag table drift check ==="
# The tables are generated from fault::crashSiteCatalog() and the
# binaries' --help; regenerate them and fail if the committed docs had
# gone stale.
scripts/gen_crash_site_table.sh build-asan/bench/experiments
if ! git diff --exit-code -- DESIGN.md README.md; then
    echo "DESIGN.md / README.md tables are stale: commit the" \
         "regenerated tables above" >&2
    exit 1
fi

echo "=== Repo benchmark: fleet on the held-out seed ==="
# The benchmark's own Release kbench on the checkpoint/reclaim-heavy
# workload.  run.py exits non-zero when an operation fails, an output
# check does not hold (served + lost == attempted, every tenant exits),
# or two repetitions simulate different machines (stat digests differ).
python3 benchmark/run.py --workload fleet --seed 2

if [[ "${SKIP_PERF:-0}" != "1" ]]; then
    echo "=== Perf-regression gate (Release fig5 vs baselines.json) ==="
    # Wall-clock regression check with prof.* attribution: a Release
    # (unsanitized) run of the fig5 sweep must stay within 1.5x of the
    # committed bench/baselines.json.  --prof attaches the
    # self-profiler so a failure names the subsystem that slowed down;
    # --jobs 1 keeps the wall numbers free of scheduling noise.
    cmake -B build-perf -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
    cmake --build build-perf -j "${JOBS}" \
        --target experiments fleet_storm
    PERF_DIR=$(mktemp -d)
    REPO=$(pwd)
    (cd "${PERF_DIR}" &&
        "${REPO}/build-perf/bench/experiments" \
            --experiment fig5_ssp_interval --jobs 1 --prof)
    python3 scripts/perf_gate.py check \
        "${PERF_DIR}/BENCH_fig5_ssp_interval.json"
    # The fleet storm gates the scale axis: 1024 churning tenants on 1
    # and 4 cores must stay fast — this is the run that wedges if the
    # checkpoint sweep ever goes back to O(population) NVM writes or
    # pressure relief loses its throttle.
    (cd "${PERF_DIR}" &&
        "${REPO}/build-perf/bench/fleet_storm" --jobs 1 --prof \
            --churn 256)
    python3 scripts/perf_gate.py check \
        "${PERF_DIR}/BENCH_fleet_storm.json"
    rm -rf "${PERF_DIR}"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
    echo "=== TSan build + SweepRunner/fault/persist tests ==="
    cmake -B build-tsan -S . -G Ninja \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "${JOBS}" \
        --target test_runner test_fault test_persist test_trace \
        test_telemetry experiments fuzz fleet_storm
    # The runner tests exercise every cross-thread path: the work
    # queue, result placement, and the shared error-mode global that
    # concurrent KindleSystem instances touch.
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
        -R 'SweepRunner|SweepDeterminism|BenchReport'
    # The fault and persist suites drive crash/reboot/recovery (and
    # with media faults, scrubber-triggered retirement) through the
    # same thread-local probe registration SweepRunner workers use —
    # run them whole under TSan as well.
    ./build-tsan/tests/test_fault
    ./build-tsan/tests/test_persist
    # The trace and telemetry suites cover that registration's sink
    # and profiler targets, which the sweep workers rely on for
    # interleaving-free per-scenario traces and prof.* stats.
    ./build-tsan/tests/test_trace
    ./build-tsan/tests/test_telemetry

    echo "=== Traced sweep under TSan + JSON well-formedness smoke ==="
    # Two concurrent workers, tracing on: each scenario must land in
    # its own file, every file must be valid Chrome trace JSON, and
    # payload events must be chronologically sorted.
    TRACE_DIR=$(mktemp -d)
    KINDLE_SCALE=4 ./build-tsan/bench/experiments \
        --experiment fig4a_seq_alloc --jobs 2 --trace-out "${TRACE_DIR}"
    python3 - "${TRACE_DIR}" <<'PY'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
files = sorted(d.glob("*.trace.json"))
assert len(files) >= 2, f"expected >=2 per-scenario traces, got {files}"
for f in files:
    doc = json.loads(f.read_text())
    events = doc["traceEvents"]
    assert events, f"{f}: empty traceEvents"
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts), f"{f}: events not chronological"
print(f"trace smoke: {len(files)} per-scenario files well-formed")
PY
    rm -rf "${TRACE_DIR}" BENCH_fig4a_seq_alloc.json

    echo "=== Multi-core ablation sweep under TSan ==="
    # The SMP scheduler, MESI-lite directory, and shootdown IPIs all
    # run inside one simulation thread, but concurrent KindleSystem
    # instances in sweep workers share the error-mode global; a
    # core-count sweep under TSan proves the multi-core paths add no
    # cross-thread hazard.  The row itself fails if any core retires
    # no instructions.
    for CORES in 1 2 4; do
        KINDLE_OPS=20000 ./build-tsan/bench/experiments \
            --experiment ablation_multiprocess --cores "${CORES}"
    done
    rm -f BENCH_ablation_multiprocess.json

    echo "=== 4-core pressure sweep under TSan ==="
    # Reclaim demotions, TLB shootdowns for demoted mappings, OOM
    # teardown, and early checkpoints all firing while the SMP
    # scheduler time-shares four cores — the densest interleaving the
    # pressure subsystem sees.  Single simulation thread, but the
    # sweep runs next to other systems' workers, so TSan must stay
    # quiet here too.
    run_fuzz ./build-tsan/bench/fuzz --points 32 --cores 4 \
        --faults pressure
    rm -f BENCH_fuzz.json

    echo "=== 4-core core-loss sweep under TSan ==="
    # Cores dying mid-protocol: IPI retries against a fail-stopped
    # target, watchdog offlining with runqueue re-placement, private
    # cache flushes through the directory — all riding the same
    # thread-local probe registration the sweep workers use.
    for FAULTS in core core,media core,pressure; do
        run_fuzz ./build-tsan/bench/fuzz --points 6 --cores 4 \
            --faults "${FAULTS}"
    done
    rm -f BENCH_fuzz.json

    echo "=== 4-core fleet storm under TSan ==="
    # The fleet sweep's two points run in concurrent workers: clean-
    # skipped checkpoint sweeps, throttled pressure relief, OOM
    # teardown and churn respawns on the 4-core scheduler, all sharing
    # the error-mode global TSan watches.
    KINDLE_FLEET_TENANTS=96 KINDLE_FLEET_CHURN=24 \
        ./build-tsan/bench/fleet_storm
    rm -f BENCH_fleet_storm.json
fi

echo "ci.sh: all checks passed"
