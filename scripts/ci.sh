#!/usr/bin/env bash
# CI gate: build the tree with AddressSanitizer+UBSan and run the full
# tier-1 test suite, then rebuild the concurrency-sensitive parts with
# ThreadSanitizer and run the SweepRunner tests under it.
#
#   scripts/ci.sh            # asan/ubsan suite + tsan runner tests
#   SKIP_TSAN=1 scripts/ci.sh  # asan/ubsan only (fast path)
#
# TSan and ASan cannot share a build tree, so each sanitizer gets its
# own build directory.  Host-time regressions are judged by
# `benchmark/run.py compare` between a change and its parent (see
# benchmark/README.md); here the benchmark runs for its output checks.
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
# -Werror on top of the tree's -Wall -Wextra: a new warning fails CI.
cmake -B build-asan -S . -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -Werror"
cmake --build build-asan -j "${JOBS}"
# The suite includes one fuzz-driver sweep per fault-plane set (the
# fuzz.* tests in bench/CMakeLists.txt) and the golden.rows run of every
# experiment row at reduced scale (the fleet_storm row's 256-tenant
# fleet on 1 and 4 cores among them), each checked against its golden
# under tests/golden/, and a micro_cache smoke.  On failure, keep the
# flight recorder dumps the fuzz sweeps' failed points left in their
# test directories.
if ! ctest --test-dir build-asan --output-on-failure -j "${JOBS}"; then
    mkdir -p "${ARTIFACTS}"
    mv -f build-asan/bench/fuzz_tests/*/FLIGHT_*.json "${ARTIFACTS}/" \
        2>/dev/null || true
    echo "ASan suite FAILED (fuzz flight dumps in ${ARTIFACTS}/)" >&2
    exit 1
fi

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

echo "=== Repo benchmark: every workload on the held-out seed ==="
# The benchmark's own Release kbench on the checkpoint/reclaim-heavy
# workload, on the SSP replay (TLB, NVM durability model, interval
# commits), on the HSCC replay (pool selection, copy-back, reverts,
# per-store table reads) and on crash/recover (reboot, recovery and
# the persist layer's logs under both page-table schemes).  run.py
# exits non-zero when an operation fails, an output check does not
# hold (served + lost == attempted, every tenant exits), or two
# repetitions simulate different machines (stat digests differ).
python3 benchmark/run.py --workload fleet --seed 2
python3 benchmark/run.py --workload replay_ssp --seed 2
python3 benchmark/run.py --workload replay_hscc --seed 2
python3 benchmark/run.py --workload crash_recover --seed 2

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
    echo "=== TSan build + SweepRunner/fault/persist tests ==="
    cmake -B build-tsan -S . -G Ninja \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "${JOBS}" \
        --target test_runner test_fault test_persist test_trace \
        test_telemetry experiments fuzz
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

    echo "=== Traced sweep under TSan + trace export check ==="
    # Two concurrent workers, tracing on: each scenario must land in
    # its own file, and every file must pass scripts/check_trace_json.py
    # (valid Chrome trace JSON, payload events chronologically sorted,
    # parents ahead of the spans they enclose).
    TRACE_DIR=$(mktemp -d)
    ./build-tsan/bench/experiments --scale 4 \
        --experiment fig4a_seq_alloc --jobs 2 --trace-out "${TRACE_DIR}"
    TRACES=("${TRACE_DIR}"/*.trace.json)
    if (( ${#TRACES[@]} < 2 )); then
        echo "expected >= 2 per-scenario traces, got: ${TRACES[*]}" >&2
        exit 1
    fi
    python3 scripts/check_trace_json.py "${TRACES[@]}"
    rm -rf "${TRACE_DIR}" BENCH_fig4a_seq_alloc.json

    echo "=== Multi-core ablation sweep under TSan ==="
    # The SMP scheduler, MESI-lite directory, and shootdown IPIs all
    # run inside one simulation thread, but concurrent KindleSystem
    # instances in sweep workers share the error-mode global; a
    # core-count sweep under TSan proves the multi-core paths add no
    # cross-thread hazard.  The row itself fails if any core retires
    # no instructions.
    for CORES in 1 2 4; do
        ./build-tsan/bench/experiments --ops 20000 \
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
    # --scale 64: 128 tenants and 32 churn respawns.
    ./build-tsan/bench/experiments --scale 64 \
        --experiment fleet_storm
    rm -f BENCH_fleet_storm.json
fi

echo "ci.sh: all checks passed"
