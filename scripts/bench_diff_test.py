#!/usr/bin/env python3
"""Check scripts/bench_diff.py's verdicts on real experiment output.

    scripts/bench_diff_test.py EXPERIMENTS_BINARY

Runs the fig4b_stride row twice at --ops 20000 (with --prof, so the
reports carry prof.* stats) in two directories, then checks:

* the two runs compare identical (exit 0);
* one perturbed deterministic stat is a difference (exit 1, with the
  stat's path printed);
* perturbing only wall_ms and a prof.* stat is not (exit 0).

Exits 0 when every check holds, 1 otherwise.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROW = "fig4b_stride"
BENCH_DIFF = pathlib.Path(__file__).resolve().with_name("bench_diff.py")


def run_row(experiments, out_dir):
    out_dir.mkdir()
    res = subprocess.run([experiments, "--experiment", ROW, "--ops",
                          "20000", "--prof"], cwd=out_dir,
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{experiments} exited {res.returncode}:\n"
                 f"{res.stdout}{res.stderr}")


def bench_diff(dir_a, dir_b):
    res = subprocess.run([sys.executable, str(BENCH_DIFF), str(dir_a),
                          str(dir_b)], capture_output=True, text=True)
    return res.returncode, res.stdout


def perturbed_copy(src, dst, edit):
    """Copy src to dst and apply edit() to the first point's report."""
    shutil.copytree(src, dst)
    path = dst / f"BENCH_{ROW}.json"
    report = json.loads(path.read_text())
    edit(report["points"][0])
    path.write_text(json.dumps(report))
    return report["points"][0]["name"]


def main(argv):
    if len(argv) != 2:
        print("usage: bench_diff_test.py EXPERIMENTS_BINARY",
              file=sys.stderr)
        return 2
    failures = []

    def expect(what, got_rc, want_rc, out, needle=None):
        if got_rc != want_rc or (needle and needle not in out):
            failures.append(f"{what}: exit {got_rc} (want {want_rc})"
                            + (f", '{needle}' not printed" if needle
                               else "") + f"\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        run_row(argv[1], root / "a")
        run_row(argv[1], root / "b")
        rc, out = bench_diff(root / "a", root / "b")
        expect("two runs", rc, 0, out)

        stat = "cacheHierarchy.accesses"

        def bump_stat(point):
            point["stats"][stat] += 1

        point = perturbed_copy(root / "b", root / "stat", bump_stat)
        rc, out = bench_diff(root / "a", root / "stat")
        expect("perturbed stat", rc, 1, out,
               f"{ROW} points[{point}].stats.{stat}: ")

        def bump_host_only(point):
            point["wall_ms"] += 1000
            prof = next(k for k in point["stats"] if k.startswith("prof."))
            point["stats"][prof] += 1

        perturbed_copy(root / "b", root / "host", bump_host_only)
        rc, out = bench_diff(root / "a", root / "host")
        expect("perturbed wall_ms and prof.*", rc, 0, out)

    for f in failures:
        print(f"FAIL {f}")
    print(f"bench_diff_test: {3 - len(failures)} of 3 checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
