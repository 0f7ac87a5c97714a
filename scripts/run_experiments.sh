#!/usr/bin/env bash
# Artifact-style driver (paper appendix E): builds the framework and
# regenerates every table and figure into outputs/, plus the structured
# BENCH_*.json records (ported benches) into results/.
#
#   KINDLE_SCALE=1 KINDLE_OPS=10000000 scripts/run_experiments.sh
#
# runs at paper scale; the defaults finish in a few minutes.  The
# runner-backed benches take their flags from the environment mirrors
# (README's knob table), e.g. KINDLE_JOBS=4 for the sweep parallelism.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

mkdir -p outputs results

# Runner-backed benches drop BENCH_<name>.json here.
export KINDLE_RESULTS_DIR="${KINDLE_RESULTS_DIR:-$PWD/results}"

run() {
    local name=$1
    echo "== ${name} =="
    "./build/bench/${name}" | tee "outputs/${name}.txt"
}

# Paper artifacts.
run table2_benchmarks
run fig4a_seq_alloc
run fig4b_stride
run table3_vma_churn
run table4_ckpt_interval
run fig5_ssp_interval
run fig6_hscc_migration
run table5_pages_migrated
run table6_selection_copy

# Ablations and substrate micros.
run ablation_pt_placement
run ablation_ssp_consolidation
run ablation_nvm_tech
run ablation_multiprocess
run ablation_incremental_ckpt
run ablation_hscc_dynamic

# Robustness audit: deterministic crash-point exploration with the
# recovery oracle (the plain sweep; --faults media,pressure,core adds
# fault planes underneath when run by hand).
run fuzz

./build/bench/micro_mem | tee outputs/micro_mem.txt
./build/bench/micro_cache | tee outputs/micro_cache.txt

# Sweep any stray JSON records (benches run outside this script drop
# them in the working directory) into results/ as well.
shopt -s nullglob
for f in BENCH_*.json; do
    mv "$f" results/
done
shopt -u nullglob

echo "All text outputs in ./outputs/"
echo "Structured sweep records:"
ls -1 results/BENCH_*.json 2>/dev/null || echo "  (none)"
