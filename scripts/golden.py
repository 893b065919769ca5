#!/usr/bin/env python3
"""Golden-digest regression harness.

Each non-comment line of the digest file is

    <0xDIGEST|unpinned> <vsim args...>

The harness runs `vsim <args> --digest` for every line and compares
the printed 64-bit FNV-1a outcome digest against the pinned value.
Digests capture the full per-access decision stream (hit/miss/bypass,
evicted partition, demotion delta), so any behavioral drift in
replacement, partitioning, or the controller shows up as a mismatch —
while stats/reporting refactors leave them untouched.

Re-pin after an *intentional* behavior change:

    scripts/golden.py --vsim build/src/sim/vsim --repin

and commit the updated tests/golden/digests.txt with a note in the PR
explaining why behavior moved.

Exit status: 0 all match, 1 any mismatch/failure, 2 usage error.
"""

import argparse
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

DIGEST_RE = re.compile(r"^digest: (0x[0-9a-f]{16})$", re.M)


def parse_lines(path):
    """Yield (lineno, pinned_digest_or_None, args) tuples."""
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        pinned, args = fields[0], fields[1:]
        if pinned == "unpinned":
            yield lineno, None, args
        elif re.fullmatch(r"0x[0-9a-f]{16}", pinned):
            yield lineno, pinned, args
        else:
            sys.exit(f"{path}:{lineno}: bad digest field '{pinned}'")


def run_digest(vsim, args, extra_args=None):
    """Run one vsim point, return its printed digest string."""
    cmd = [vsim] + args + ["--digest"] + (extra_args or [])
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL  {' '.join(args)}", flush=True)
        print(f"      vsim exited {proc.returncode}:", flush=True)
        sys.stderr.write(proc.stderr)
        return None
    match = DIGEST_RE.search(proc.stdout)
    if not match:
        print(f"FAIL  {' '.join(args)}: no digest in output",
              flush=True)
        return None
    return match.group(1)


def run_lifecycle_point(vsim, args, extra_args):
    """Record one dynamic-tenant point to a temp journal, then replay
    the journal and require the identical digest. Returns the digest
    string, or None on any failure or record/replay mismatch."""
    fd, journal = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    try:
        got = run_digest(
            vsim, args,
            (extra_args or []) + ["--serve-journal", journal])
        if got is None:
            return None
        replayed = run_digest(vsim, ["--replay", journal])
        if replayed is None:
            return None
        if replayed != got:
            print(f"FAIL  {' '.join(args)}: replay diverged",
                  flush=True)
            print(f"      recorded {got}", flush=True)
            print(f"      replayed {replayed}", flush=True)
            return None
        return got
    finally:
        os.unlink(journal)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vsim", required=True, help="vsim binary")
    ap.add_argument(
        "--file",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "tests" / "golden" / "digests.txt"),
        help="digest file (default: tests/golden/digests.txt)")
    ap.add_argument("--repin", action="store_true",
                    help="rewrite the file with measured digests")
    ap.add_argument(
        "--extra-args", default="",
        help="extra vsim arguments appended to every point "
             "(e.g. '--metrics-port 0' to assert observability "
             "features are digest-neutral)")
    ap.add_argument(
        "--lifecycle", action="store_true",
        help="run only the dynamic-tenant points (lines whose args "
             "contain --lifecycle); each records its journal to a "
             "temp file and must replay to the identical digest")
    opts = ap.parse_args()
    extra = shlex.split(opts.extra_args)

    path = pathlib.Path(opts.file)
    entries = list(parse_lines(path))
    # Lifecycle points are their own population: the static compare
    # skips them, and --lifecycle runs only them, adding the
    # record/replay parity assertion.
    if opts.lifecycle:
        entries = [e for e in entries if "--lifecycle" in e[2]]
        if not entries:
            sys.exit(f"{path}: no --lifecycle entries")
    else:
        entries = [e for e in entries if "--lifecycle" not in e[2]]
    if not entries:
        sys.exit(f"{path}: no digest entries")

    measured = {}
    failures = 0
    for lineno, pinned, args in entries:
        if opts.lifecycle:
            got = run_lifecycle_point(opts.vsim, args, extra)
        else:
            got = run_digest(opts.vsim, args, extra)
        if got is None:
            failures += 1
            continue
        measured[lineno] = got
        if opts.repin:
            print(f"pin   {got}  {' '.join(args)}", flush=True)
        elif pinned is None:
            print(f"FAIL  {' '.join(args)}: unpinned "
                  f"(measured {got}; run --repin)", flush=True)
            failures += 1
        elif got != pinned:
            print(f"FAIL  {' '.join(args)}", flush=True)
            print(f"      pinned   {pinned}", flush=True)
            print(f"      measured {got}", flush=True)
            failures += 1
        else:
            print(f"ok    {got}  {' '.join(args)}", flush=True)

    if opts.repin:
        out = []
        for lineno, raw in enumerate(path.read_text().splitlines(),
                                     1):
            if lineno in measured:
                rest = raw.strip().split(maxsplit=1)[1]
                out.append(f"{measured[lineno]} {rest}")
            else:
                out.append(raw)
        path.write_text("\n".join(out) + "\n")
        print(f"repinned {len(measured)} entries in {path}",
              flush=True)

    if failures:
        print(f"{failures} of {len(entries)} golden points failed",
              flush=True)
        return 1
    print(f"all {len(entries)} golden points match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
