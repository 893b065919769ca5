#!/usr/bin/env python3
"""Validate a `vsim --qos-out` JSONL file.

The file carries two record shapes (see src/obs/qos.h):

  - violation events: type raise | escalate | clear, written by the
    QoS engine as SLO state transitions happen, and
  - decision records: type decision, the audit-ring tail appended at
    the end of the run.

Checks performed on every file:

  - each line is valid JSON with a known type and the full schema
    for that type;
  - per (bucket, kind), transitions follow the engine's state
    machine: a raise only when inactive, escalate/clear only while
    active (so no clear without a raise, no double raise);
  - escalations carry severity critical; raises start at warning;
  - decision sequence numbers are strictly increasing.

Modes (for CI gating):

  --expect-clean            fail if any violation was raised
  --expect-violation [KIND] fail unless a violation (of KIND, when
                            given) was raised
  --require-decisions       fail unless the audit tail is present

Exit status: 0 when all checks pass, 1 otherwise.
"""

import argparse
import collections
import json
import sys

EVENT_TYPES = ("raise", "escalate", "clear")
EVENT_FIELDS = {
    "kind": str, "severity": str, "bucket": str, "part": int,
    "value": (int, float), "threshold": (int, float),
    "since_epoch": int, "epoch": int, "duration_epochs": int,
    "active": bool,
}
DECISION_FIELDS = {
    "seq": int, "accesses": int, "kind": str, "part": int,
    "target_lines": int, "actual_lines": int, "aperture_bp": int,
    "setpoint_ts": int, "current_ts": int, "cands_seen": int,
    "cands_demoted": int,
}
# As the engine names them (qosKindName in src/obs/qos.cc); the
# --slo key for the miss-rate SLO is spelled "missrate".
VIOLATION_KINDS = ("slack", "aperture_saturation", "miss_rate",
                   "latency")


def fail(lineno, message):
    raise AssertionError(f"line {lineno}: {message}")


def check_fields(lineno, rec, fields):
    for name, types in fields.items():
        if name not in rec:
            fail(lineno, f"missing field '{name}': {rec}")
        if not isinstance(rec[name], types):
            fail(lineno, f"field '{name}' has type "
                         f"{type(rec[name]).__name__}: {rec}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="--qos-out JSONL file")
    ap.add_argument("--expect-clean", action="store_true",
                    help="fail if any violation was raised")
    ap.add_argument("--expect-violation", nargs="?", const="any",
                    metavar="KIND",
                    help="fail unless a violation (of KIND) raised")
    ap.add_argument("--require-decisions", action="store_true",
                    help="fail unless audit records are present")
    opts = ap.parse_args()

    raises = collections.Counter()
    events = decisions = 0
    active = {}  # (bucket, kind) -> active?
    last_seq = 0

    with open(opts.file) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(lineno, f"not JSON ({exc}): {line[:120]}")
            rtype = rec.get("type")
            if rtype in EVENT_TYPES:
                events += 1
                check_fields(lineno, rec, EVENT_FIELDS)
                if rec["kind"] not in VIOLATION_KINDS:
                    fail(lineno, f"unknown kind '{rec['kind']}'")
                key = (rec["bucket"], rec["kind"])
                was_active = active.get(key, False)
                if rtype == "raise":
                    if was_active:
                        fail(lineno, f"double raise for {key}")
                    if rec["severity"] != "warning":
                        fail(lineno, "raise must start at warning")
                    if not rec["active"]:
                        fail(lineno, "raise with active=false")
                    active[key] = True
                    raises[rec["kind"]] += 1
                elif rtype == "escalate":
                    if not was_active:
                        fail(lineno, f"escalate while clear: {key}")
                    if rec["severity"] != "critical":
                        fail(lineno, "escalate must be critical")
                else:  # clear
                    if not was_active:
                        fail(lineno, f"clear without raise: {key}")
                    if rec["active"]:
                        fail(lineno, "clear with active=true")
                    active[key] = False
            elif rtype == "decision":
                decisions += 1
                check_fields(lineno, rec, DECISION_FIELDS)
                if rec["seq"] <= last_seq:
                    fail(lineno,
                         f"seq {rec['seq']} not above {last_seq}")
                last_seq = rec["seq"]
            else:
                fail(lineno, f"unknown record type {rtype!r}")

    total_raises = sum(raises.values())
    print(f"check_qos: {events} events ({total_raises} raises: "
          f"{dict(raises) or '{}'}), {decisions} decision records")

    if opts.expect_clean and total_raises > 0:
        raise AssertionError(
            f"expected a clean run, got {total_raises} raises: "
            f"{dict(raises)}")
    if opts.expect_violation is not None:
        if opts.expect_violation == "any":
            if total_raises == 0:
                raise AssertionError(
                    "expected at least one violation, got none")
        elif raises[opts.expect_violation] == 0:
            raise AssertionError(
                f"expected a {opts.expect_violation} violation, "
                f"got {dict(raises) or 'none'}")
    if opts.require_decisions and decisions == 0:
        raise AssertionError("no audit decision records in the file")
    print("check_qos: OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"check_qos: FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
