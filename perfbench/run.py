#!/usr/bin/env python3
"""Host-speed benchmark of the Vantage simulator.

Run from the repository root:

    python3 perfbench/run.py --workload cmp32_fig7 --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Builds the simulator libraries and the vbench driver from source into
.bench_build/perfbench (cmake, RelWithDebInfo), runs one workload in a
process of its own and prints, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. The line before it carries the full record (build
fingerprint, digest, pinned-digest verdict, failures, detail); the
same record is written to .bench_build/results/.

A run fails when its outcome digest differs from the digest pinned in
perfbench/digests.json for that workload and seed, or when any of
vbench's own checks fails (rep-to-rep digest equality, record/replay
parity, traced-vs-untimed digest equality, layer-replay fidelity,
checkInvariants).

--selftest runs every workload briefly, untimed and traced, and
requires every check to pass: the layer-replay fidelity test.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
VBENCH = os.path.join(BUILD, "vbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build vbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "vbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_vbench(workload, seed, seconds, trace, selftest=False):
    os.makedirs(WORK, exist_ok=True)
    cmd = [VBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK]
    if selftest:
        cmd.append("--selftest")
    # A run measures for `seconds`, then finishes its last rep; at the
    # default 40 s this still ends a hung run within 180 s.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        fail("vbench timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("vbench exited %d: %s" % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("vbench printed nothing")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def verdict(record):
    """Compare the digest with the pin for this workload and seed."""
    pins = load_json(os.path.join(HERE, "digests.json"))
    pinned = pins["digests"].get(record["workload"], {}).get(
        str(record["seed"]))
    if pinned is None:
        return "unpinned", None
    return ("match" if pinned == record["digest"] else "mismatch"), pinned


def benchmark(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (choose from %s)" %
             (args.workload, ", ".join(names)))
    build()
    record = run_vbench(args.workload, args.seed, args.seconds, args.trace)

    record["verdict"], record["pinned_digest"] = verdict(record)
    failed = record["failed"]
    attempted = record["attempted"]
    if record["verdict"] != "unpinned":
        attempted += 1
        if record["verdict"] == "mismatch":
            failed += 1
            record["failures"].append(
                "digest %s differs from the pinned %s" %
                (record["digest"], record["pinned_digest"]))

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("vbench did not report metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def selftest():
    """Every workload, briefly, untimed and traced: all checks pass."""
    build()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bad = 0
    for w in spec["workloads"]:
        untimed = run_vbench(w["name"], 1, 0.5, False, selftest=True)
        traced = run_vbench(w["name"], 1, 0.5, True, selftest=True)
        problems = untimed["failures"] + traced["failures"]
        if untimed["digest"] != traced["digest"]:
            problems.append("traced digest %s != untimed digest %s" %
                            (traced["digest"], untimed["digest"]))
        status = "ok" if not problems else "FAIL"
        print("%-16s %s  %d + %d checks" %
              (w["name"], status, untimed["attempted"],
               traced["attempted"]))
        for p in problems:
            print("    " + p)
        bad += 1 if problems else 0
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the layer-replay fidelity self-test")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        fail("--workload is required")
    benchmark(args)


if __name__ == "__main__":
    main()
