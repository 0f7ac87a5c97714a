#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json reports for identity.

    scripts/bench_diff.py DIR_A DIR_B

Every BENCH_<row>.json in either directory is compared with its
namesake in the other.  Host-dependent fields are ignored: each
point's ``wall_ms``, every ``prof.*`` stat (the self-profiler's wall
times) and the report's ``jobs`` (the worker count, which must not
change results).  Everything else -- point names, ``ok``, ``ticks``,
errors and every deterministic stat -- must match exactly.

Each difference is printed as ``<row> <point> <path>: A -> B``; a row
or point present on one side only is reported too.  Exits 0 when the
directories are identical, 1 on any difference, 2 on bad usage.
"""

import json
import pathlib
import sys

IGNORED_KEYS = {"wall_ms"}
IGNORED_TOP = {"jobs"}
IGNORED_STAT_PREFIX = "prof."


def load_rows(directory):
    return {p.name: json.loads(p.read_text())
            for p in sorted(pathlib.Path(directory).glob("BENCH_*.json"))}


def keyed(items):
    """Index a list of points by name (by position if names repeat)."""
    names = [i.get("name") if isinstance(i, dict) else None for i in items]
    if None not in names and len(set(names)) == len(names):
        return dict(zip(names, items))
    return {f"#{n}": item for n, item in enumerate(items)}


def diff(a, b, path, out):
    """Append (path, a, b) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in IGNORED_KEYS:
                continue
            if path.endswith("stats") and key.startswith(IGNORED_STAT_PREFIX):
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append((sub, a.get(key, "<absent>"),
                            b.get(key, "<absent>")))
            else:
                diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        ka, kb = keyed(a), keyed(b)
        for key in list(ka) + [k for k in kb if k not in ka]:
            sub = f"{path}[{key}]"
            if key not in ka or key not in kb:
                out.append((sub, "<absent>" if key not in ka else "<present>",
                            "<absent>" if key not in kb else "<present>"))
            else:
                diff(ka[key], kb[key], sub, out)
    elif a != b:
        out.append((path, a, b))


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = argv[1], argv[2]
    for d in (dir_a, dir_b):
        if not pathlib.Path(d).is_dir():
            print(f"bench_diff: {d}: not a directory", file=sys.stderr)
            return 2
    rows_a, rows_b = load_rows(dir_a), load_rows(dir_b)
    if not rows_a and not rows_b:
        print(f"bench_diff: no BENCH_*.json in {dir_a} or {dir_b}",
              file=sys.stderr)
        return 2

    differing = 0
    for name in sorted(set(rows_a) | set(rows_b)):
        row = name[len("BENCH_"):-len(".json")]
        if name not in rows_a or name not in rows_b:
            side = dir_b if name in rows_b else dir_a
            print(f"{row}: only in {side}")
            differing += 1
            continue
        out = []
        a = {k: v for k, v in rows_a[name].items() if k not in IGNORED_TOP}
        b = {k: v for k, v in rows_b[name].items() if k not in IGNORED_TOP}
        diff(a, b, "", out)
        for path, va, vb in out:
            print(f"{row} {path}: {va} -> {vb}")
        if out:
            differing += 1
        else:
            print(f"{row}: identical")
    print(f"bench_diff: {differing} of {len(set(rows_a) | set(rows_b))} "
          f"rows differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
