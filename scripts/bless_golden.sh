#!/usr/bin/env bash
# Rewrite the goldens under tests/golden/ from a build's own golden
# ctests (the "golden" label in bench/CMakeLists.txt): golden.rows, the
# output of every experiment row at --scale 32 --ops 200000, into
# rows/, and each fuzz.<plane> sweep's BENCH_fuzz.json into
# fuzz/<plane>/.
#
#   scripts/bless_golden.sh [build-dir]   # relative to the repo root; default build
#
# Bless on purpose: run it after a change that means to move the
# output, commit the rewritten files with the change and say in
# CHANGES.md what moved and why (`git diff --stat tests/golden` and
# scripts/bench_diff.py name the rows and stats).  Each point's wall_ms
# is host time, not output, so it is left out.  Exits non-zero if the
# golden tests still fail afterwards, e.g. because a fuzz audit failed.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
cmake --build "${BUILD}" --target experiments fuzz
# The first pass only produces the output; stale goldens fail it.
ctest --test-dir "${BUILD}" -L golden -j "$(nproc)" > /dev/null || true

python3 - "${BUILD}" tests/golden <<'PY'
import json
import pathlib
import shutil
import subprocess
import sys

build, golden = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
listing = json.loads(subprocess.check_output(
    ["ctest", "--test-dir", str(build), "-N", "-L", "golden",
     "--show-only=json-v1"]))
reports = {golden / "rows":
           sorted((build / "bench" / "golden_rows").glob("BENCH_*.json"))}
for test in listing["tests"]:
    if test["name"].startswith("fuzz."):
        plane = test["name"][len("fuzz."):]
        reports[golden / "fuzz" / plane] = [
            build / "bench" / "fuzz_tests" / plane / "BENCH_fuzz.json"]

shutil.rmtree(golden, ignore_errors=True)
for dest, files in reports.items():
    dest.mkdir(parents=True)
    for report in files:
        doc = json.loads(report.read_text())
        for point in doc["points"]:
            point.pop("wall_ms", None)
        (dest / report.name).write_text(json.dumps(doc, indent=1) + "\n")
print(f"{golden}: {sum(map(len, reports.values()))} reports blessed")
PY

ctest --test-dir "${BUILD}" -L golden --output-on-failure -j "$(nproc)"
