#!/usr/bin/env python3
"""Repo benchmark: build kbench, run workloads, aggregate and compare.

Measure (from the repository root):

    python3 benchmark/run.py [--workload NAME] [--seed N] [--trace 0|1]
                             [--out DIR]

Without --workload every workload in BENCHMARK.json runs, one after
another.  Each repetition of a workload is one fresh ``kbench`` process
on a single host thread, and a run is a fixed number of repetitions
(REPS), so its length does not depend on how fast the code is.  Set-up
time and peak RSS (from ``os.wait4``) are medians over the repetitions;
throughputs use the fastest repetition of each window of the run (see
fastest_run_s).

``--trace 1`` adds TRACED_REPS traced repetitions, interleaved with the
same REPS untraced ones.  The traced ones time every boundary the
benchmark can see (benchmark/probe.hh), print the per-layer table,
write ``TRACE_<workload>.json`` (Chrome trace-event format, opens in
Perfetto) and report ``trace_overhead`` (traced wall / untraced wall -
1).  The run fails if the boundaries cover less than 95 % of traced
wall time.

Every metric is printed as ``workload metric value unit``; a results
JSON per workload goes to --out (default .bench_build/results), and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced).  The exit code
is non-zero when any operation failed or any output check did not hold.

Compare two sets of results files:

    python3 benchmark/run.py compare A.json... -- B.json...

prints each side's median and quartiles for every (workload, metric)
pair and a verdict against the metric's bound, and exits non-zero on any
disagreement (worse, unresolved, or a stat digest that differs at the
same seed).  A metric whose spread (IQR / median) exceeds its bound is
unresolved unless every B run beats every A run; setup_s is judged by
its median alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
KBENCH = BUILD / "kbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Repetitions of a run.  fastest_run_s's estimate falls as repetitions
# are added, so the count is a constant of the benchmark, never derived
# from elapsed time; changing it means measuring the baseline again.
# One unit takes 2-3 s on the reference box, which makes an untraced
# run about run_seconds long.
REPS = 8
TRACED_REPS = 3
# A workload's repetitions that are still running this long after its
# first one started are killed and counted as failed, so a run always
# ends inside the 180 s limit.
RUN_LIMIT_S = 150
MIN_COVERAGE = 0.95
# Set-up takes milliseconds, so its run-to-run spread is wide; as in the
# benchmark contract, `compare` judges it by the change of its median.
MEDIAN_ONLY = {"setup_s"}

# End-to-end metrics that exist on one workload only.  BENCHMARK.json
# lists the metrics every workload reports; these are printed, stored
# and gated by `compare` in the same way.  Simulated ones repeat exactly
# at a fixed seed.
WORKLOAD_E2E = {
    "requests_per_s": ("fleet", "req/s", "higher", 0.24),
    "req_p50_sim_us": ("fleet", "us", "lower", 0.005),
    "req_p99_sim_us": ("fleet", "us", "lower", 0.005),
    "req_lost_frac": ("fleet", "ratio", "lower", 0.005),
    "crash_points_per_s": ("crash_recover", "pts/s", "higher", 0.24),
    "recover_sim_us": ("crash_recover", "us", "lower", 0.005),
}

# Throughputs: the simulated item count each is derived from (items per
# host second of the measured run, see fastest_run_s).
RATES = {
    "requests_per_s": "requests",
    "crash_points_per_s": "crash_points",
}

# Per-layer host metrics that exist only where their layer runs; the
# traced table prints them on those workloads.
WORKLOAD_LAYER = {
    "cpu.compute_op_ns": "ns",
    "os.reclaim_ns": "ns",
    "persist.ckpt_ns": "ns",
    "persist.ckpt_now_ns": "ns",
    "persist.recover_ns": "ns",
    "kindle.crash_ns": "ns",
    "ssp.commit_ns": "ns",
    "hscc.migrate_ns": "ns",
    "fleet.req_p999_sim_us": "us",
    "fleet.sched_lag_p99_sim_us": "us",
}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build kbench; exit 1 when either fails."""
    steps = [
        ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "kbench", "-j", "4"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build step failed: {e}")
            sys.exit(1)
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(1)


def run_child(workload, seed, timed, timeout_s, trace_out=None):
    """One kbench repetition in a fresh process, killed after
    `timeout_s`; returns its result dict with peak_rss_mb added, or
    None when it failed."""
    cmd = [str(KBENCH), "--workload", workload, "--seed", str(seed)]
    if timed:
        cmd.append("--timed")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
    timer.start()
    # stderr is drained on its own thread: the OOM killer alone writes
    # a warning per victim, enough to fill a pipe.
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    status = None
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:  # interrupted: never leave the child behind
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        tail = err[0].decode(errors="replace")[-2000:] if err else ""
        log(f"run.py: kbench {workload} exited {proc.returncode}\n{tail}")
        return None
    rep = json.loads(out)
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def fastest_run_s(reps):
    """Host run time of one repetition with interference filtered out.

    Repetitions of one seed do identical work, op for op, and kbench
    records host time per window of 1024 op fetches.  Load from other
    tenants of the machine only ever adds time, so the run time is the
    sum over windows of the fastest repetition of each.  On a shared
    4-vCPU VM this halved the run-to-run spread of the median
    repetition.  The sum is shorter than any repetition took, and it
    shrinks as repetitions are added; REPS is fixed so that every run,
    on every commit, pools the same number.
    """
    return sum(map(min, zip(*[r["windows_ns"] for r in reps]))) / 1e9


def measure(workload, seed, trace, out_dir):
    """Run REPS repetitions of one workload (and TRACED_REPS traced ones
    when tracing); return the results record."""
    schedule = []
    for i in range(REPS):
        schedule.append(False)
        if trace and i < TRACED_REPS:
            schedule.append(True)
    reps = {False: [], True: []}
    crashed = 0
    trace_path = out_dir / f"TRACE_{workload}.json"
    deadline = time.monotonic() + RUN_LIMIT_S
    for timed in schedule:
        rep = run_child(workload, seed, timed, deadline - time.monotonic(),
                        trace_path if timed and not reps[True] else None)
        if rep is None:
            crashed += 1
            break
        reps[timed].append(rep)

    plain, traced = reps[False], reps[True]
    everything = plain + traced
    digests = sorted({r["digest"] for r in everything})
    checks_failed = sorted({k for r in everything
                            for k, ok in r["checks"].items() if not ok})
    # Repetitions of one seed must do the same work, window for window.
    windows = {len(r["windows_ns"]) for r in plain}
    attempted = sum(r["attempted"] for r in everything) or 1
    failed = (sum(r["failed"] for r in everything) + crashed +
              (len(digests) > 1) + (len(windows) > 1) + len(checks_failed))

    metrics = {}
    units = {}
    if plain:
        run_s = fastest_run_s(plain)
        sim = plain[0]["metrics"]

        def put(name, unit, value):
            metrics[name] = value
            units[name] = unit
        put("setup_s", "s", median([r["setup_s"] for r in plain]))
        put("peak_rss_mb", "MB", median([r["peak_rss_mb"] for r in plain]))
        put("mem_ops_per_s", "ops/s", sim["mem_ops"] / run_s)
        put("sim_ms", "ms", sim["sim_ms"])
        for name, (wl, unit, _, _) in WORKLOAD_E2E.items():
            if wl != workload:
                continue
            if name in RATES:
                put(name, unit, sim[RATES[name]] / run_s)
            else:
                put(name, unit, sim[name])
        put("run_s", "s", run_s)

    layer = {}
    boundaries = {}
    if trace and plain and traced:
        layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        layer_units.update(WORKLOAD_LAYER)
        for name, unit in layer_units.items():
            if name in traced[0]["host"]:
                value = median([r["host"][name] for r in traced])
            elif name == "trace_overhead":
                value = (median([r["wall_s"] for r in traced]) /
                         median([r["wall_s"] for r in plain]) - 1.0)
            else:
                value = sim.get(name, 0.0)
            layer[name] = (value, unit)
        for name in traced[0]["boundaries"]:
            rows = [r["boundaries"][name] for r in traced]
            boundaries[name] = {k: (median([row[k] for row in rows])
                                    if k != "layer" else rows[0][k])
                                for k in rows[0]}
        coverage = median([r["host"]["trace_coverage"] for r in traced])
        if coverage < MIN_COVERAGE:
            log(f"run.py: {workload}: boundaries cover {coverage:.1%} "
                f"of traced wall time (< {MIN_COVERAGE:.0%})")
            failed += 1

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "sizes": everything[0]["sizes"] if everything else {},
        "reps": {"untraced": len(plain), "traced": len(traced)},
        "run_s_per_rep": [r["run_s"] for r in plain],
        "digest": digests[0] if len(digests) == 1 else digests,
        "checks_failed": checks_failed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in layer.items()},
        "boundaries": boundaries,
        "trace_file": str(trace_path) if traced else None,
    }


def fmt(v):
    return f"{v:.6g}"


def print_result(res):
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w} {name} {fmt(m['value'])} {m['unit']}")
    print(f"{w} digest {res['digest']}")
    print(f"{w} attempted {res['attempted']} failed {res['failed']}"
          + (f" (checks failed: {', '.join(res['checks_failed'])})"
             if res["checks_failed"] else ""))
    if not res["per_layer"]:
        return
    print(f"\n{w}: per-layer metrics (host: median of "
          f"{res['reps']['traced']} traced reps; simulated: exact; "
          f"benchmark/README.md maps each to the end-to-end metric it "
          f"should move)")
    for name, m in res["per_layer"].items():
        if name in WORKLOAD_LAYER and m["value"] == 0:
            continue  # that layer does not run on this workload
        print(f"{w} {name} {fmt(m['value'])} {m['unit']}")
    print(f"\n{w}: boundaries {'calls':>10} {'mean_ns':>12} "
          f"{'p50_ns':>12} {'p99_ns':>12} {'share':>7}")
    for name, b in res["boundaries"].items():
        if b["calls"] == 0:
            continue
        print(f"{w}   {name:<20} {b['calls']:>10.0f} {b['mean_ns']:>12.0f} "
              f"{b['p50_ns']:>12.0f} {b['p99_ns']:>12.0f} "
              f"{b['share']:>7.2%}")
    print(f"{w}: trace written to {res['trace_file']}\n")


def contract_line(results, trace):
    """The last stdout line the benchmark contract asks for."""
    key = "per_layer" if trace else "metrics"
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name in names:
            m = res[key].get(name)
            if m is not None:
                metrics[prefix + name] = {"value": m["value"],
                                          "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def cmd_measure(argv):
    p = argparse.ArgumentParser(description="Run the repo benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    # The benchmark contract passes --seconds; a run is REPS repetitions
    # whatever it says, so only the length BENCHMARK.json states for
    # that is accepted.
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                   help="must equal run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=BUILD / "results")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds != SPEC["run_seconds"]:
        p.error(f"--seconds must be {SPEC['run_seconds']}: a run is "
                f"{REPS} repetitions, sized to take about that long")

    build()
    out_dir = args.out if args.out.is_absolute() else ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = []
    for w in [args.workload] if args.workload else WORKLOADS:
        res = measure(w, args.seed, bool(args.trace), out_dir)
        path = out_dir / (f"{w}-seed{args.seed}-"
                          f"{'trace' if args.trace else 'plain'}-"
                          f"{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(res, indent=1) + "\n")
        print_result(res)
        print(f"{w} results {path}")
        results.append(res)
    print(contract_line(results, bool(args.trace)))
    return 0 if all(r["correct"] for r in results) else 1


def bounds():
    """metric -> (better, bound) for every gated metric."""
    b = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    for name, (_, _, better, bound) in WORKLOAD_E2E.items():
        b[name] = (better, bound)
    return b


def load(paths):
    values, digests = {}, {}
    for path in paths:
        res = json.loads(Path(path).read_text())
        w = res["workload"]
        for section in ("metrics", "per_layer"):
            for name, m in res.get(section, {}).items():
                values.setdefault((w, name), []).append(m["value"])
        digests.setdefault((w, res["seed"]), set()).add(str(res["digest"]))
    return values, digests


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def cmd_compare(argv):
    if "--" not in argv:
        log("usage: run.py compare A.json... -- B.json...")
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        log("usage: run.py compare A.json... -- B.json...")
        return 2
    (a_vals, a_dig), (b_vals, b_dig) = load(a_paths), load(b_paths)
    gated = bounds()
    disagree = 0
    print(f"{'workload':<14} {'metric':<28} {'A q1/med/q3':>34} "
          f"{'B q1/med/q3':>34} {'change':>8} {'spread':>7} verdict")
    for key in sorted(set(a_vals) & set(b_vals)):
        w, name = key
        a1, am, a3 = quartiles(a_vals[key])
        b1, bm, b3 = quartiles(b_vals[key])
        change = (bm - am) / am if am else 0.0
        spread = max((a3 - a1) / am if am else 0.0,
                     (b3 - b1) / bm if bm else 0.0)
        verdict = "-"
        if name in gated:
            better, bound = gated[name]
            worse = change if better == "lower" else -change
            if spread > bound and name not in MEDIAN_ONLY:
                a, b = a_vals[key], b_vals[key]
                beats = (max(b) < min(a) if better == "lower"
                         else min(b) > max(a))
                verdict = "better" if beats else "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within"
            disagree += verdict in ("worse", "unresolved")
        print(f"{w:<14} {name:<28} "
              f"{fmt(a1):>10} {fmt(am):>11} {fmt(a3):>11} "
              f"{fmt(b1):>10} {fmt(bm):>11} {fmt(b3):>11} "
              f"{change:>+8.2%} {spread:>7.2%} {verdict}")
    for key in sorted(set(a_dig) & set(b_dig)):
        same = a_dig[key] == b_dig[key] and len(a_dig[key]) == 1
        print(f"{key[0]:<14} digest@seed{key[1]:<20} "
              f"{'identical' if same else 'DIFFERENT'}")
        disagree += not same
    print(f"{disagree} disagreement(s)")
    return 1 if disagree else 0


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    return cmd_measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
