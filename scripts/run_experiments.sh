#!/usr/bin/env bash
# Artifact-style driver (paper appendix E): builds the framework and
# regenerates every experiment row, the fuzz audit and the substrate
# micros into outputs/, with the BENCH_*.json records in results/.
#
#   scripts/run_experiments.sh [experiments flag ...]
#
# The flags go to every experiments run (README's knob table), e.g.
# `scripts/run_experiments.sh --scale 1 --ops 10000000 --jobs 4` runs
# at paper scale; the defaults finish in a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD

cmake -B build -G Ninja
cmake --build build

mkdir -p outputs results

# run OUTPUT-NAME BINARY [ARG ...], in results/ so that the binary's
# BENCH_*.json records land there.
run() {
    local name=$1 bin=$2
    shift 2
    echo "== ${name} =="
    (cd results && "${ROOT}/build/bench/${bin}" "$@") |
        tee "outputs/${name}.txt"
}

for name in $(./build/bench/experiments --list); do
    run "${name}" experiments --experiment "${name}" "$@"
done
run fuzz fuzz
run micro_mem micro_mem
run micro_cache micro_cache

echo "All text outputs in ./outputs/"
echo "Structured sweep records:"
ls -1 results/BENCH_*.json 2>/dev/null || echo "  (none)"
