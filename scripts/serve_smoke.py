#!/usr/bin/env python3
"""End-to-end smoke for `vsim --serve` (see README "Serve mode").

Starts the daemon on an ephemeral port with a journal, a live
/metrics endpoint, and the QoS engine enabled; drives two concurrent
tenants through the binary frame protocol (one announcing a latency
SLO in its HELLO), has one leave mid-run and a third join (exercising
slot retirement and reuse, and the per-tenant metric guards around
both), pokes the server with a malformed frame (which must only cost
that connection), shuts the daemon down cleanly, and finally replays
the recorded journal — the serve-session digest and the replay digest
must be bit-identical even though the recording session ran with QoS
evaluation on and the replay does not.

Then it checks that replay memory does not grow with the journal: a
2,000,000-access `--lifecycle` journal (about 24 MB) must replay to
the recording's digest with the replay process peaking below
REPLAY_RSS_LIMIT_MB.

Exit status: 0 on full parity, 1 on any protocol, digest or memory
failure.
"""

import argparse
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import time
import urllib.request

# Frame types (src/serve/frame.h).
HELLO, ACCESS_BATCH, STATS, BYE, SHUTDOWN = 1, 2, 3, 4, 5
OK, ERR, STATS_REPLY = 0x80, 0x81, 0x82

DIGEST_RE = re.compile(r"^digest: (0x[0-9a-f]{16})$", re.M)

# Replay streams the journal through a fixed buffer; a replay that
# materialized this journal's records would peak near 166 MB.
REPLAY_ACCESSES = 2_000_000
REPLAY_RSS_LIMIT_MB = 48


def frame(ftype, payload=b""):
    """Length-prefixed frame: u32 length (type + payload), u8 type."""
    return struct.pack("<IB", 1 + len(payload), ftype) + payload


def read_frame(sock):
    """Blocking read of one full frame; returns (type, payload)."""
    hdr = b""
    while len(hdr) < 4:
        chunk = sock.recv(4 - len(hdr))
        if not chunk:
            raise ConnectionError("server closed the connection")
        hdr += chunk
    (length,) = struct.unpack("<I", hdr)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("truncated frame from server")
        body += chunk
    return body[0], body[1:]


def hello(port, name, latency_slo_us=None):
    """Join as tenant `name`; returns (socket, assigned slot).

    With latency_slo_us the HELLO carries the optional trailing QoS
    block (a u32 p99 latency target); without it the legacy short
    form is sent, so both parser paths stay covered.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    payload = struct.pack("<H", len(name)) + name.encode()
    if latency_slo_us is not None:
        payload += struct.pack("<I", latency_slo_us)
    sock.sendall(frame(HELLO, payload))
    ftype, body = read_frame(sock)
    if ftype != OK:
        raise AssertionError(f"HELLO({name}) rejected: {body!r}")
    (slot,) = struct.unpack("<H", body)
    return sock, slot


def batch(sock, addrs):
    """Send one ACCESS_BATCH of loads; returns the reported hits."""
    payload = struct.pack("<I", len(addrs))
    for addr in addrs:
        payload += struct.pack("<QB", addr, 0)
    sock.sendall(frame(ACCESS_BATCH, payload))
    ftype, body = read_frame(sock)
    if ftype != OK:
        raise AssertionError(f"ACCESS_BATCH rejected: {body!r}")
    return struct.unpack("<I", body)[0]


def stats(sock):
    """STATS round trip; returns the 10-field reply as a dict."""
    sock.sendall(frame(STATS))
    ftype, body = read_frame(sock)
    if ftype != STATS_REPLY:
        raise AssertionError(f"STATS failed: {body!r}")
    fields = struct.unpack("<10Q", body)
    return dict(zip(
        ("hits", "misses", "target", "actual", "batches",
         "latency_p50_ns", "latency_p99_ns", "slo_violations",
         "slo_active", "decisions"), fields))


def scrape(port):
    """GET /metrics; returns the exposition text."""
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode()


def scrape_until(port, pred, what, deadline=10.0):
    """Poll /metrics until pred(text) holds; the sampler only
    refreshes its snapshot every metrics epoch, so membership
    changes take a beat to show."""
    end = time.monotonic() + deadline
    while True:
        text = scrape(port)
        if pred(text):
            return text
        if time.monotonic() >= end:
            raise AssertionError(f"/metrics never showed: {what}")
        time.sleep(0.1)


def extract_digest(text, what):
    match = DIGEST_RE.search(text)
    if not match:
        raise AssertionError(f"no digest in {what} output:\n{text}")
    return match.group(1)


def run_measured(argv, timeout):
    """Run argv to completion; returns (exit code, stdout, peak RSS in
    MB of that process, from its wait4 rusage).

    The kernel folds the image a child replaced at exec into its
    ru_maxrss, so the figure is at least this interpreter's own peak
    (about 20 MB); the limit leaves room for that."""
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen(argv, stdout=out,
                                stderr=subprocess.DEVNULL, text=True)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() >= deadline:
                proc.kill()
                raise AssertionError(f"{argv} ran past {timeout} s")
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        # ru_maxrss is in KiB on Linux.
        return proc.returncode, out.read(), usage.ru_maxrss / 1024


def check_replay_memory(vsim):
    """Record a long --lifecycle journal, replay it, and require the
    same digest at a bounded replay peak RSS."""
    fd, journal = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    try:
        record = subprocess.run(
            [vsim, "--scheme", "vantage", "--array", "z4-52",
             "--lifecycle", str(REPLAY_ACCESSES),
             "--serve-journal", journal],
            capture_output=True, text=True, timeout=300)
        if record.returncode != 0:
            raise AssertionError(
                f"lifecycle recording exited {record.returncode}:\n"
                f"{record.stderr}")
        recorded = extract_digest(record.stdout, "lifecycle")
        size_mb = os.path.getsize(journal) / (1 << 20)
        code, out, rss_mb = run_measured([vsim, "--replay", journal],
                                         timeout=300)
        if code != 0:
            raise AssertionError(f"long replay exited {code}")
        replayed = extract_digest(out, "long replay")
        print(f"long replay: {REPLAY_ACCESSES} accesses, "
              f"{size_mb:.1f} MB journal, peak RSS {rss_mb:.1f} MB, "
              f"digest {replayed}", flush=True)
        if replayed != recorded:
            raise AssertionError(
                f"long replay digest {replayed} != recorded {recorded}")
        if rss_mb >= REPLAY_RSS_LIMIT_MB:
            raise AssertionError(
                f"replay peaked at {rss_mb:.1f} MB, limit "
                f"{REPLAY_RSS_LIMIT_MB} MB")
    finally:
        os.unlink(journal)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vsim", required=True, help="vsim binary")
    ap.add_argument("--batches", type=int, default=40,
                    help="access batches per tenant phase")
    opts = ap.parse_args()

    fd, journal = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    proc = subprocess.Popen(
        [opts.vsim, "--serve", "0", "--serve-journal", journal,
         "--epoch", "2000", "--metrics-port", "0",
         "--slo", "slack=0.5;aperture_bp=9000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        port = mport = None
        for line in proc.stderr:
            match = re.search(
                r"metrics listening on http://127\.0\.0\.1:(\d+)",
                line)
            if match:
                mport = int(match.group(1))
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise AssertionError("daemon never announced its port")
        if mport is None:
            raise AssertionError("metrics endpoint never announced")

        alpha, slot_a = hello(port, "alpha", latency_slo_us=500_000)
        beta, slot_b = hello(port, "beta")
        print(f"joined: alpha=slot{slot_a} beta=slot{slot_b}",
              flush=True)
        if slot_a == slot_b:
            raise AssertionError("two live tenants share a slot")

        # Phase 1: both tenants stream concurrently (interleaved
        # batches; alpha fits, beta thrashes).
        for _ in range(opts.batches):
            batch(alpha, [0x1000 + (j % 512) * 64
                          for j in range(200)])
            batch(beta, [0x900000 + (j % 4096) * 64
                         for j in range(200)])

        # STATS must account for exactly the accesses alpha sent,
        # and the QoS block must reflect the batches just driven.
        s = stats(alpha)
        print(f"alpha stats: {s}", flush=True)
        if s["hits"] + s["misses"] != opts.batches * 200:
            raise AssertionError("inconsistent STATS reply")
        if s["batches"] != opts.batches:
            raise AssertionError(
                f"expected {opts.batches} batches, "
                f"got {s['batches']}")
        if s["latency_p99_ns"] < s["latency_p50_ns"]:
            raise AssertionError("latency percentiles out of order")
        if s["latency_p99_ns"] == 0:
            raise AssertionError("no batch latency recorded")

        # Live scrape with both tenants attached: per-slot umon
        # series and the QoS/decision families must be present.
        wants = (f'umon_misses{{job="vsim-serve",core="{slot_a}"}}',
                 f'umon_misses{{job="vsim-serve",core="{slot_b}"}}',
                 "vantage_slo_violations_total",
                 "vantage_decision_records_total")
        scrape_until(mport,
                     lambda t: all(w in t for w in wants),
                     "both tenants' series + QoS families")
        print("metrics scrape: both tenants exported", flush=True)

        # beta leaves mid-run; gamma joins after (slot retire/reuse).
        beta.sendall(frame(BYE))
        read_frame(beta)
        beta.close()

        # With the slot retired, its guarded series must vanish from
        # the scrape instead of freezing at their last values.
        gone = f'umon_misses{{job="vsim-serve",core="{slot_b}"}}'
        scrape_until(mport, lambda t: gone not in t,
                     "retired slot dropped")
        print("metrics scrape: retired slot dropped", flush=True)

        gamma, slot_c = hello(port, "gamma")
        print(f"beta left, gamma joined at slot {slot_c}", flush=True)

        # Phase 2: alpha + gamma.
        for _ in range(opts.batches // 2):
            batch(alpha, [0x1000 + (j % 512) * 64
                          for j in range(200)])
            batch(gamma, [0x2000000 + (j % 1024) * 64
                          for j in range(200)])

        # The reused slot is exported again, counting from its own
        # fresh monitor, and the repartition epochs driven so far
        # must have left an audit trail.
        back = f'umon_misses{{job="vsim-serve",core="{slot_c}"}}'
        scrape_until(mport, lambda t: back in t,
                     "reused slot exported")
        s = stats(gamma)
        if s["decisions"] == 0:
            raise AssertionError(
                "no controller decisions audited for gamma's slot")
        print(f"gamma stats: {s}", flush=True)

        # A malformed frame must only cost that connection.
        bad = socket.create_connection(("127.0.0.1", port),
                                       timeout=30)
        bad.sendall(struct.pack("<I", 0))
        ftype, body = read_frame(bad)
        if ftype != ERR:
            raise AssertionError(
                f"malformed frame not rejected: {ftype:#x}")
        print(f"malformed frame rejected: {body.decode()}",
              flush=True)
        bad.close()

        # Clean shutdown; the daemon prints the session digest.
        alpha.sendall(frame(SHUTDOWN))
        read_frame(alpha)
        alpha.close()
        gamma.close()
        out, err = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise AssertionError(
                f"daemon exited {proc.returncode}:\n{err}")
        served = extract_digest(out, "serve")
        print(f"serve digest:  {served}", flush=True)

        # Replay the journal: must reproduce the digest bit for bit.
        # The replay runs without --slo/--metrics-port, proving the
        # QoS engine and exporter were read-only observers.
        replay = subprocess.run(
            [opts.vsim, "--replay", journal],
            capture_output=True, text=True, timeout=120)
        if replay.returncode != 0:
            raise AssertionError(
                f"replay exited {replay.returncode}:\n"
                f"{replay.stderr}")
        replayed = extract_digest(replay.stdout, "replay")
        print(f"replay digest: {replayed}", flush=True)
        if replayed != served:
            raise AssertionError("serve/replay digest mismatch")
        print("serve-smoke: serve and replay digests identical",
              flush=True)
        check_replay_memory(opts.vsim)
        print("serve-smoke: long replay within its memory bound",
              flush=True)
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        os.unlink(journal)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"serve-smoke: FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
