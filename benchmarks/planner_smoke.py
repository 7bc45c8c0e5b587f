#!/usr/bin/env python
"""CI smoke for the auto planner: a persisted plan serves shifted traffic.

Usage::

    PYTHONPATH=src python benchmarks/planner_smoke.py

One scenario, exit 0 only if every check holds:

1. **Calibrate once** — an ``AutoEngine(plan_path=...)`` runs the demo
   network, built exactly as ``repro.cli serve`` builds it, on one
   batch-1 frame: the one race of that plan key writes the plan file.
2. **Serve from the file** — ``python -m repro.cli serve --plan-path``
   on that file starts as a real process and receives amplitude-shifted
   frames (x0.125 to x8), which move every downstream spike density
   while the plan key stays the same.  Throughout, ``/metrics`` must
   report ``planner.calibration_runs == 0`` (the server replays the
   persisted plan and never races), every response must be a 200, and
   every served logit vector must be bitwise equal to a direct
   ``batched`` per-step run of the same frame.
3. **Drain** — SIGTERM must drain the server and exit 0.

The plan file lives in a fresh temporary directory.  Standalone on
purpose (plain script, not pytest): CI runs it as its own job so a
planner regression is visible as a named failing step.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.serve import build_demo_network  # noqa: E402
from repro.snn import SpikingNetwork  # noqa: E402
from repro.snn.engines import AutoEngine  # noqa: E402

SHAPE = (2, 8, 8)
TIMESTEPS = 6
SCALES = (0.125, 0.5, 1.0, 2.0, 8.0)


def check(condition, message):
    if not condition:
        print(f"SMOKE FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def http(port, method, path, payload=None, timeout=30.0):
    """One request on a fresh connection; returns (status, JSON body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(head + body)
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
    header, _, content = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), json.loads(content or b"null")


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def calibrations(port):
    """``planner.calibration_runs`` from ``/metrics`` (None if absent)."""
    status, metrics = http(port, "GET", "/metrics")
    return metrics.get("planner", {}).get("calibration_runs") if status == 200 else None


def main():
    with tempfile.TemporaryDirectory() as scratch:
        return run(os.path.join(scratch, "plans.json"))


def run(plan_path):
    model, _ = build_demo_network(input_shape=SHAPE)
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(len(SCALES),) + SHAPE).astype(np.float32)

    print("phase 1: calibrate once and persist the plan")
    engine = AutoEngine(plan_path=plan_path)
    SpikingNetwork(model, timesteps=TIMESTEPS, engine=engine).forward_per_step(
        frames[:1]
    )
    check(engine.calibration_runs == 1, "one race for the serve key")
    check(Path(plan_path).is_file(), f"plan written to {plan_path}")

    reference_net = SpikingNetwork(model, timesteps=TIMESTEPS, engine="batched")
    shifted = [
        (frame * scale).astype(np.float32)
        for frame in frames for scale in SCALES
    ]
    references = [
        reference_net.forward_per_step(x[np.newaxis])[-1][0] for x in shifted
    ]

    print("phase 2: serve amplitude-shifted traffic from the plan file")
    port = free_port()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--timesteps", str(TIMESTEPS),
            "--input-shape", ",".join(str(s) for s in SHAPE),
            "--max-batch", "1", "--plan-path", plan_path,
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        ready = False
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and process.poll() is None:
            try:
                ready = http(port, "GET", "/readyz", timeout=5.0)[0] == 200
            except OSError:
                pass
            if ready:
                break
            time.sleep(0.2)
        check(ready, "CLI server came up and reported ready")
        check(calibrations(port) == 0, "server loaded the plan without racing")

        statuses, bitwise, raced = [], 0, 0
        for x, reference in zip(shifted, references):
            status, body = http(
                port, "POST", "/v1/infer",
                {"input": x.tolist(), "deadline_ms": 60_000},
            )
            statuses.append(status)
            if status == 200:
                served = np.asarray(body["logits"], dtype=np.float64)
                bitwise += np.array_equal(served, reference.astype(np.float64))
            raced += calibrations(port) != 0
        check(all(s == 200 for s in statuses), f"every response 200 ({statuses})")
        check(raced == 0, "calibration_runs stayed 0 across the shifted traffic")
        check(
            bitwise == len(shifted),
            f"served logits bitwise equal to batched ({bitwise}/{len(shifted)})",
        )

        print("phase 3: SIGTERM drain")
        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30.0) == 0, "server drained and exited 0")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    print("planner smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
