#!/usr/bin/env bash
# Artifact-style driver (paper appendix E): builds the framework and
# regenerates every experiment row, the fuzz audit and the substrate
# micros into outputs/, with the BENCH_*.json records in results/.
# `KINDLE_SCALE=1 KINDLE_OPS=10000000 scripts/run_experiments.sh` runs
# at paper scale; the defaults finish in a few minutes.  Flags come from
# their environment mirrors (README's knob table), e.g. KINDLE_JOBS=4.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

mkdir -p outputs results
export KINDLE_RESULTS_DIR="${KINDLE_RESULTS_DIR:-$PWD/results}"

# run OUTPUT-NAME BINARY [ARG ...]
run() {
    local name=$1 bin=$2
    shift 2
    echo "== ${name} =="
    "./build/bench/${bin}" "$@" | tee "outputs/${name}.txt"
}

for name in $(./build/bench/experiments --list); do
    run "${name}" experiments --experiment "${name}"
done
run fuzz fuzz
run micro_mem micro_mem
run micro_cache micro_cache

echo "All text outputs in ./outputs/"
echo "Structured sweep records:"
ls -1 "${KINDLE_RESULTS_DIR}"/BENCH_*.json 2>/dev/null || echo "  (none)"
