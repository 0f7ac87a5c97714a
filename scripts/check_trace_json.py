#!/usr/bin/env python3
"""Check Kindle's trace exports: Chrome-trace files and flight dumps.

    scripts/check_trace_json.py FILE...

A file with a "traceEvents" member is a Chrome trace (what
--trace-out writes, one <scenario>.trace.json per sweep point); any
other file is a flight-recorder dump (FLIGHT_*.json, what the fuzz
driver leaves for a failed point).

A Chrome trace must have:

* displayTimeUnit "ns";
* a process_name metadata ("M") event and at least 2 thread_name ones;
* payload (non-"M") events whose ts never decreases;
* among consecutive payload events with equal ts, a dur that never
  increases (an instant counts as 0), so a parent span precedes the
  spans it encloses;
* dur >= 0 on every complete ("X") event.

Across all the Chrome traces given there must be at least one X event
(a short run may checkpoint nowhere, so one file may hold only
instants).

A flight dump must have reason, crashSite, faultPlan and ringDepth;
dropped == totalRecorded - len(records); a name and a cat on every
record; and record end ticks (tick + dur, tick for an instant) that
never decrease.  The ring holds records in completion order and a
span's tick is its start, so an enclosing span follows the spans it
encloses with an earlier tick, but it cannot end before them.

Prints one line per problem and exits 1 if there is any, else prints
a summary and exits 0.
"""

import json
import sys


def check_chrome(doc):
    """Problems in one Chrome trace, and its number of X events."""
    problems = []
    if doc.get("displayTimeUnit") != "ns":
        problems.append(f"displayTimeUnit is "
                        f"{doc.get('displayTimeUnit')!r}, not 'ns'")
    events = doc["traceEvents"]
    meta = [e.get("name") for e in events if e.get("ph") == "M"]
    if "process_name" not in meta:
        problems.append("no process_name metadata event")
    if meta.count("thread_name") < 2:
        problems.append(f"{meta.count('thread_name')} thread_name "
                        f"metadata events, want at least 2")
    complete = 0
    prev = None
    for i, ev in enumerate(events):
        if ev.get("ph") == "M":
            continue
        dur = ev.get("dur", 0)
        if ev.get("ph") == "X":
            complete += 1
            if dur < 0:
                problems.append(f"event {i} ({ev.get('name')}): "
                                f"dur {dur} < 0")
        if prev is not None:
            prev_i, prev_ts, prev_dur = prev
            if ev["ts"] < prev_ts:
                problems.append(f"event {i} ({ev.get('name')}): ts "
                                f"{ev['ts']} before event {prev_i}'s "
                                f"{prev_ts}")
            elif ev["ts"] == prev_ts and dur > prev_dur:
                problems.append(f"event {i} ({ev.get('name')}): dur "
                                f"{dur} after event {prev_i}'s "
                                f"{prev_dur} at the same ts {prev_ts}")
        prev = (i, ev["ts"], dur)
    return problems, complete


def check_flight(doc):
    """Problems in one flight-recorder dump."""
    problems = [f"no {field}" for field in
                ("reason", "crashSite", "faultPlan", "ringDepth")
                if field not in doc]
    records = doc.get("records", [])
    if doc.get("dropped") != doc.get("totalRecorded", 0) - len(records):
        problems.append(f"dropped {doc.get('dropped')} != totalRecorded "
                        f"{doc.get('totalRecorded')} - "
                        f"{len(records)} records")
    prev_end = None
    for i, rec in enumerate(records):
        if "name" not in rec or "cat" not in rec:
            problems.append(f"record {i}: no name or cat")
        end = rec.get("tick", 0) + rec.get("dur", 0)
        if prev_end is not None and end < prev_end:
            problems.append(f"record {i}: ends at tick {end}, before "
                            f"record {i - 1}'s end {prev_end}")
        prev_end = end
    return problems


def main(paths):
    if not paths:
        print("usage: check_trace_json.py FILE...", file=sys.stderr)
        return 2
    problems = []
    traces = flights = complete = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            problems.append(f"{path}: {err}")
            continue
        if "traceEvents" in doc:
            found, n = check_chrome(doc)
            traces += 1
            complete += n
        else:
            found = check_flight(doc)
            flights += 1
        problems += [f"{path}: {p}" for p in found]
    if traces and not complete:
        problems.append(f"no complete (X) event in {traces} Chrome "
                        f"traces")
    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"check_trace_json: {traces} Chrome traces ({complete} complete "
          f"events) and {flights} flight dumps well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
