#!/usr/bin/env python3
"""Check scripts/check_trace_json.py's verdicts on real trace exports.

    scripts/check_trace_json_test.py TRACE... FLIGHT_DUMP

Takes the Chrome traces of one traced sweep (--trace-out) and one
flight-recorder dump, then checks:

* the real traces and the real flight dump pass (exit 0);
* a trace with one payload event moved ahead of an earlier ts fails;
* a trace with one equal-ts pair swapped so that dur rises fails;
* a flight dump whose dropped count is off by one fails.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

CHECK = pathlib.Path(__file__).resolve().with_name("check_trace_json.py")


def check(*paths):
    res = subprocess.run([sys.executable, str(CHECK), *map(str, paths)],
                         capture_output=True, text=True)
    return res.returncode, res.stdout + res.stderr


def payload(events):
    """Indexes of the non-metadata events."""
    return [i for i, e in enumerate(events) if e["ph"] != "M"]


def out_of_order(events):
    """Move the last payload event ahead of the first, which has an
    earlier ts."""
    idx = payload(events)
    moved = events.pop(idx[-1])
    assert moved["ts"] > events[idx[0]]["ts"], "one ts in the trace"
    events.insert(idx[0], moved)


def rising_tie(events):
    """Swap the first equal-ts pair whose dur falls, so that it rises;
    return False if the trace has no such pair."""
    idx = payload(events)
    for a, b in zip(idx, idx[1:]):
        if (events[a]["ts"] == events[b]["ts"] and
                events[a].get("dur", 0) > events[b].get("dur", 0)):
            events[a], events[b] = events[b], events[a]
            return True
    return False


def main(argv):
    if len(argv) < 3:
        print("usage: check_trace_json_test.py TRACE... FLIGHT_DUMP",
              file=sys.stderr)
        return 2
    traces = [pathlib.Path(p) for p in argv[1:-1]]
    flight = pathlib.Path(argv[-1])
    failures = []

    def expect(what, got, want_rc, needle=None):
        rc, out = got
        if rc != want_rc or (needle and needle not in out):
            failures.append(f"{what}: exit {rc} (want {want_rc})"
                            + (f", '{needle}' not printed" if needle
                               else "") + f"\n{out}")

    expect("real exports", check(*traces, flight), 0)

    # Mutate the first trace that has a falling equal-ts pair (a
    # checkpoint span and the first of its phases).
    for path in traces:
        doc = json.loads(path.read_text())
        if rising_tie(doc["traceEvents"]):
            break
    else:
        sys.exit("no trace has an equal-ts pair to swap")

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        tie = root / "tie.trace.json"
        tie.write_text(json.dumps(doc))
        expect("rising dur at a tie", check(tie), 1, "at the same ts")

        doc = json.loads(path.read_text())
        out_of_order(doc["traceEvents"])
        order = root / "order.trace.json"
        order.write_text(json.dumps(doc))
        expect("event out of ts order", check(order), 1, "before event")

        doc = json.loads(flight.read_text())
        doc["dropped"] += 1
        dropped = root / "FLIGHT_dropped.json"
        dropped.write_text(json.dumps(doc))
        expect("dropped mismatch", check(dropped), 1, "dropped")

    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print("check_trace_json_test: real exports pass, 3 mutants fail")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
