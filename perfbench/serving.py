"""The ``serve-demo`` workload: the demo server under an open-loop load.

The server runs in its own process, built exactly as
``python -m repro.cli serve --input-shape 2,8,8 --timesteps 8`` builds
it (default ``ServeConfig``, in-process engine worker).  The load comes
from one asyncio thread of this process over ``CONNECTIONS`` keep-alive
connections.  Requests are due on a fixed schedule; a due request waits
in a client-side queue until a connection is free, and its latency is
measured from when it was due, so a stall also delays the requests
behind it.  With two connections a micro-batch holds at most two
requests.

An untraced run starts ``SETUP_REPEATS`` servers one after another; each
is set up (``setup_s`` is the median) and then takes the *light* load,
``LIGHT_RPS``, for its share of ``--seconds``.  ``latency_p50_ms`` is
the mean of the servers' light-phase p50s.

A traced run adds what is too sensitive to the machine's other tenants
to bound run to run: *heavy* load, ``HEAVY_RPS``, alternating with light
in one-second slices, and a ladder of ``LADDER`` rates, R/20 each,
stopping at the first rate whose p99 exceeds ``SLO_MS`` (a failed
request counts as a miss) or whose backlog grew.  The highest rate met
is ``load.max_rps_at_slo``.

Every response must be 200 with logits bitwise equal to a direct
per-step run of the same demo network on the ``batched`` engine.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from common import (
    HERE,
    SETUP_REPEATS,
    Tally,
    median,
    metric,
    percentiles_ms,
    process_peak_rss_mb,
    quantile,
)

SHAPE = (2, 8, 8)
TIMESTEPS = 8
#: Keep-alive connections of the load generator (this box's ``nproc``).
CONNECTIONS = 2
LIGHT_RPS = 50.0
#: About 2/3 of the ~225 req/s at which two connections saturate on a
#: busy 2-core x86 box (~400 req/s when the box is otherwise idle).
HEAVY_RPS = 150.0
#: 25 req/s steps: at the ~225 req/s the ladder usually ends near, a
#: 50 req/s step is 22% of the result, so one flip would exceed the
#: metric's bound.
LADDER = tuple(float(rate) for rate in range(100, 651, 25))
#: In traced runs light and heavy each get this share of the run, in
#: alternating one-second slices so both see the same stretch of
#: machine time.
PHASE_SHARE = 0.25
SLICE_S = 1.0
STEP_SHARE = 1 / 20
SLO_MS = 50.0
#: Distinct request inputs, cycled.
INPUT_POOL = 512
#: Warm-up rounds until the planner is steady.  Each round is a burst at
#: the light rate, where requests mostly run alone (batch 1), and one
#: past saturation, where two often share a batch (batch 2), so both
#: plan keys the timed phases use are calibrated before them.
WARMUP_RATES = (LIGHT_RPS, 400.0)
WARMUP_BURST_S = 0.25
MAX_WARMUP_ROUNDS = 10
HEALTHZ_PINGS = 50
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

SERVE_ARGS = ["serve", "--input-shape", "2,8,8", "--timesteps", str(TIMESTEPS),
              "--port", "0"]
_PORT_LINE = re.compile(r"serving on [^:]+:(\d+)")


# ----------------------------------------------------------------------
# HTTP over asyncio streams
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def get_json(self, path: str) -> dict:
        status, payload = await self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(payload)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


# ----------------------------------------------------------------------
# Requests and their scoring
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and its verdict."""

    request: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    ok: bool = False
    reason: str = ""
    server_ms: float = 0.0
    batch_size: int = 0

    @property
    def latency(self) -> float:
        """Seconds from due to answered."""
        return self.done - self.due


def score(outcome: Outcome, status: int, payload: bytes, reference: np.ndarray) -> None:
    """Fill the verdict: 200 and logits bitwise equal to the reference."""
    outcome.status = status
    if status != 200:
        outcome.reason = f"request {outcome.request}: HTTP {status}"
        return
    body = json.loads(payload)
    logits = np.asarray(body["logits"], dtype=np.float32)
    outcome.server_ms = float(body["latency_ms"])
    outcome.batch_size = int(body["batch_size"])
    if not np.array_equal(logits, reference):
        outcome.reason = f"request {outcome.request}: logits differ from the reference"
        return
    outcome.ok = True


def slo_p99_ms(outcomes: List[Outcome]) -> float:
    """p99 latency in ms, with every failed request counted as a miss."""
    values = [o.latency * 1e3 if o.ok else float("inf") for o in outcomes]
    return quantile(values, 0.99)


@dataclass
class Phase:
    """The outcome of one open-loop phase."""

    name: str
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    backlog_mid: int = 0
    backlog_end: int = 0

    @property
    def grew(self) -> bool:
        """Whether the backlog grew over the second half of the phase
        (by more than one request per connection)."""
        return self.backlog_end - self.backlog_mid > CONNECTIONS

    def met_slo(self) -> bool:
        return slo_p99_ms(self.outcomes) <= SLO_MS and not self.grew

    def latencies_ms(self) -> List[float]:
        return [o.latency * 1e3 for o in self.outcomes]

    @classmethod
    def merge(cls, slices: List["Phase"]) -> "Phase":
        """One phase from consecutive slices at the same rate."""
        merged = cls(slices[0].name, slices[0].rate)
        for part in slices:
            merged.outcomes += part.outcomes
            merged.lateness += part.lateness
        merged.backlog_mid = slices[len(slices) // 2].backlog_end
        merged.backlog_end = slices[-1].backlog_end
        return merged


class LoadGenerator:
    """Open-loop load over a few keep-alive connections from one thread."""

    def __init__(self, port: int, bodies: List[bytes], references: List[np.ndarray]):
        self.port = port
        self.bodies = bodies
        self.references = references
        self.next_id = 0
        self.conns: List[Connection] = []
        self.control: Optional[Connection] = None

    async def open(self) -> None:
        self.conns = [await Connection.open(self.port) for _ in range(CONNECTIONS)]
        self.control = await Connection.open(self.port)

    async def close(self) -> None:
        for conn in self.conns + [self.control]:
            if conn is not None:
                await conn.close()

    def body(self, request: int) -> bytes:
        # The id goes first so a traced server can read it cheaply.
        return b'{"id": %d, ' % request + self.bodies[request % len(self.bodies)]

    async def phase(self, name: str, rate: float, duration: float) -> Phase:
        result = Phase(name, rate)
        queue: asyncio.Queue = asyncio.Queue()

        async def sender(conn: Connection) -> None:
            while True:
                outcome = await queue.get()
                if outcome is None:
                    return
                outcome.sent = time.perf_counter()
                try:
                    status, payload = await conn.request(
                        "POST", "/v1/infer", self.body(outcome.request))
                except (ConnectionError, asyncio.IncompleteReadError) as error:
                    outcome.done = time.perf_counter()
                    outcome.reason = f"request {outcome.request}: {error!r}"
                    continue
                outcome.done = time.perf_counter()
                reference = self.references[outcome.request % len(self.references)]
                score(outcome, status, payload, reference)

        senders = [asyncio.ensure_future(sender(c)) for c in self.conns]
        count = max(int(duration * rate), 1)
        start = time.perf_counter() + 1e-3
        for i in range(count):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(time.perf_counter() - due)
            outcome = Outcome(request=self.next_id, due=due)
            self.next_id += 1
            result.outcomes.append(outcome)
            queue.put_nowait(outcome)
            if i == count // 2:
                result.backlog_mid = await self.backlog(queue)
        result.backlog_end = await self.backlog(queue)
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
        return result

    async def backlog(self, queue: asyncio.Queue) -> int:
        """Requests due but not yet answered past the connections' own:
        client-side waiters plus the server's ``queue_depth``."""
        snapshot = await self.control.get_json("/metrics")
        return queue.qsize() + int(snapshot.get("queue_depth", 0))

    async def healthz_rtt_ms(self) -> float:
        times = []
        for _ in range(HEALTHZ_PINGS):
            start = time.perf_counter()
            status, _ = await self.control.request("GET", "/healthz")
            times.append(time.perf_counter() - start)
            if status != 200:
                raise RuntimeError(f"/healthz returned {status}")
        return median(times) * 1e3


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.cli serve ...`` (or its traced launcher) as a child."""

    def __init__(self, root: Path, log_path: Path, spans_path: Optional[Path]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *SERVE_ARGS]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path), *SERVE_ARGS]
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=str(root), env=env,
                                     stdout=self._log, stderr=subprocess.STDOUT)
        self.port: Optional[int] = None

    async def wait_ready(self) -> None:
        """Until the port is logged and ``/readyz`` answers 200."""
        deadline = self.started + START_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            match = _PORT_LINE.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
            else:
                await asyncio.sleep(0.005)
        conn = await Connection.open(self.port)
        try:
            while (await conn.request("GET", "/readyz"))[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                await asyncio.sleep(0.005)
        finally:
            await conn.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then kill if it does not exit."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        finally:
            self._log.close()


def planner_signature(snapshot: dict) -> Tuple:
    planner = snapshot.get("planner", {})
    # Sorted: the snapshot lists plans in least-recently-used order.
    plans = tuple(sorted(
        (tuple(p["input_shape"]), p["density_bucket"], p["source"],
         p["event_layers"], p["sharded_layers"])
        for p in planner.get("plans", [])
    ))
    return planner.get("calibration_runs", 0), plans


async def warm_up(gen: LoadGenerator) -> Tuple[bool, List[str]]:
    """Rounds of warm-up traffic until one leaves the planner unchanged."""
    reasons: List[str] = []
    for rounds in range(1, MAX_WARMUP_ROUNDS + 1):
        before = planner_signature(await gen.control.get_json("/metrics"))
        for rate in WARMUP_RATES:
            phase = await gen.phase("warm-up", rate, WARMUP_BURST_S)
            reasons += [o.reason for o in phase.outcomes if not o.ok]
        after = planner_signature(await gen.control.get_json("/metrics"))
        if rounds > 1 and after == before:
            return True, reasons
    return False, reasons


# ----------------------------------------------------------------------
def make_inputs(seed: int):
    """Request bodies (without the id) and their reference logits."""
    from repro.serve import build_demo_network
    from repro.snn import SpikingNetwork

    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(INPUT_POOL,) + SHAPE).astype(np.float32)
    model, _ = build_demo_network(input_shape=SHAPE)
    network = SpikingNetwork(model, timesteps=TIMESTEPS, engine="batched")
    references = [network.forward_per_step(x[None])[-1][0] for x in inputs]
    bodies = [b'"input": ' + json.dumps(x.tolist()).encode() + b"}" for x in inputs]
    return bodies, references


async def launch(root, out_dir, tag, bodies, references, spans_path=None):
    """Start a server, wait until ready, warm it up; returns its handles."""
    server = ServerProcess(root, out_dir / f"serve-{tag}.log", spans_path)
    gen = None
    try:
        await server.wait_ready()
        gen = LoadGenerator(server.port, bodies, references)
        await gen.open()
        steady, reasons = await warm_up(gen)
        setup_s = time.perf_counter() - server.started
    except BaseException:
        if gen is not None:
            await gen.close()
        server.stop()
        raise
    return server, gen, setup_s, steady, reasons


async def shut(server: ServerProcess, gen: LoadGenerator) -> int:
    await gen.close()
    return server.stop()


async def drive(seed: int, seconds: float, trace: bool, out_dir: Path, root: Path) -> dict:
    bodies, references = make_inputs(seed)
    if trace:
        return await drive_traced(seed, seconds, out_dir, root, bodies, references)
    problems: List[str] = []
    setups, lights, rss = [], [], []
    # Three servers, one after another, each set up and then measured
    # for a third of the run: a server process settles at its own speed,
    # so one launch alone would make the run's figures a draw.
    for attempt in range(SETUP_REPEATS):
        server, gen, setup_s, steady, reasons = await launch(
            root, out_dir, f"setup{attempt}", bodies, references)
        setups.append(setup_s)
        if not steady:
            problems.append("server planner not steady after warm-up")
        problems += reasons[:3]
        try:
            before = await gen.control.get_json("/metrics")
            lights.append(await gen.phase("light", LIGHT_RPS, seconds / SETUP_REPEATS))
            after = await gen.control.get_json("/metrics")
            rss.append(server.peak_rss_mb())
        finally:
            code = await shut(server, gen)
        problems += server_problems(before, after, code)

    light = Phase.merge(lights)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "latency_p50_ms": metric(
            float(np.mean([quantile(p.latencies_ms(), 0.5) for p in lights])), "ms"),
        "peak_rss_mb": metric(median(rss), "MB"),
    }
    extra = {
        "phases": [phase_summary(p) for p in lights],
        "latency_ms": percentiles_ms([o.latency for o in light.outcomes]),
        "connections": CONNECTIONS,
        "setup_s_each": setups,
        "peak_rss_mb_each": rss,
    }
    return {"tally": tally_of([light]), "metrics": metrics, "extra": extra,
            "problems": problems}


async def drive_traced(seed, seconds, out_dir, root, bodies, references) -> dict:
    """The traced run: the light phase on an untraced server, for the
    tracing overhead; then light and heavy slices and the ladder on a
    traced one, whose spans give the per-layer numbers."""
    spans_path = out_dir / f"trace-serve-demo-seed{seed}.jsonl"
    server, gen, _, _, _ = await launch(root, out_dir, "plain", bodies, references)
    try:
        untraced = await gen.phase("light", LIGHT_RPS, seconds / SETUP_REPEATS)
    finally:
        await shut(server, gen)

    server, gen, _, steady, reasons = await launch(
        root, out_dir, "traced", bodies, references, spans_path)
    problems = [] if steady else ["server planner not steady after warm-up"]
    problems += reasons[:3]
    try:
        before = await gen.control.get_json("/metrics")
        light, heavy = await light_and_heavy(gen, seconds)
        ladder: List[Phase] = []
        for rate in LADDER:
            step = await gen.phase(f"ladder-{rate:g}", rate, STEP_SHARE * seconds)
            ladder.append(step)
            if not step.met_slo():
                break
        healthz_ms = await gen.healthz_rtt_ms()
        after = await gen.control.get_json("/metrics")
    finally:
        code = await shut(server, gen)
    problems += server_problems(before, after, code)
    # The ladder stops at its first missed step, so every earlier one met.
    max_rps = max((step.rate for step in ladder if step.met_slo()), default=0.0)

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    calibrations_timed = planner_calibrations(after) - planner_calibrations(before)
    metrics = traced_metrics(spans, light, heavy, after, calibrations_timed)
    metrics.update({
        "app.healthz_rtt_ms": metric(healthz_ms, "ms"),
        "loadgen.lateness_p99_ms": metric(
            quantile(light.lateness + heavy.lateness, 0.99) * 1e3, "ms"),
        "loadgen.backlog_end": metric(heavy.backlog_end, "count"),
        "load.heavy_p50_ms": metric(quantile(heavy.latencies_ms(), 0.5), "ms"),
        "load.heavy_p90_ms": metric(quantile(heavy.latencies_ms(), 0.9), "ms"),
        "load.max_rps_at_slo": metric(max_rps, "1/s"),
        "trace.overhead_frac": metric(
            quantile(light.latencies_ms(), 0.5)
            / quantile(untraced.latencies_ms(), 0.5) - 1.0, "ratio"),
        "trace.spans": metric(len(spans), "count"),
    })
    extra = {
        "phases": [phase_summary(p) for p in [untraced, light, heavy] + ladder],
        "max_rps_at_slo": max_rps,
        "slo_ms": SLO_MS,
        "connections": CONNECTIONS,
        "server_counters": after.get("counters", {}),
    }
    return {"tally": tally_of([untraced, light, heavy] + ladder), "metrics": metrics,
            "extra": extra, "problems": problems}


def planner_calibrations(snapshot: dict) -> int:
    return snapshot.get("planner", {}).get("calibration_runs", 0)


def server_problems(before: dict, after: dict, code: int) -> List[str]:
    """Calibrations inside a timed phase, and an unclean exit, fail a run."""
    problems = []
    calibrations = planner_calibrations(after) - planner_calibrations(before)
    if calibrations:
        problems.append(
            f"{calibrations} planner calibration(s) inside the timed phase "
            f"(planner after: calibration_runs {planner_calibrations(after)}, "
            f"replans_triggered {after.get('planner', {}).get('replans_triggered')})")
    if code != 0:
        problems.append(f"server exited with code {code} after SIGTERM")
    return problems


def tally_of(phases: List[Phase]) -> Tally:
    tally = Tally()
    for phase in phases:
        for outcome in phase.outcomes:
            tally.record(outcome.ok, outcome.reason)
    return tally


async def light_and_heavy(gen: LoadGenerator, seconds: float) -> Tuple[Phase, Phase]:
    """The light and heavy phases, in alternating one-second slices."""
    slices = max(int(PHASE_SHARE * seconds / SLICE_S), 1)
    light, heavy = [], []
    for _ in range(slices):
        light.append(await gen.phase("light", LIGHT_RPS, SLICE_S))
        heavy.append(await gen.phase("heavy", HEAVY_RPS, SLICE_S))
    return Phase.merge(light), Phase.merge(heavy)


def phase_summary(phase: Phase) -> dict:
    return {
        "name": phase.name, "rate": phase.rate,
        "latency_ms": percentiles_ms([o.latency for o in phase.outcomes]),
        "slo_p99_ms": slo_p99_ms(phase.outcomes),
        "failed": sum(not o.ok for o in phase.outcomes),
        "backlog_mid": phase.backlog_mid, "backlog_end": phase.backlog_end,
        "lateness_p99_ms": quantile(phase.lateness, 0.99) * 1e3,
        "met_slo": phase.met_slo(),
    }


def traced_metrics(spans: List[dict], light: Phase, heavy: Phase,
                   snapshot: dict, calibrations_timed: int) -> dict:
    """Per-layer numbers of a traced server run, from its spans."""
    from engines import engine_layer_metrics

    def by_name(name):
        return [s for s in spans if s["name"] == name]

    light_ids = {o.request for o in light.outcomes}
    heavy_ids = {o.request for o in heavy.outcomes}
    done = {d["attrs"]["request"]: d["attrs"]["batch"] for d in by_name("request.done")}
    light_batches = {done[r] for r in light_ids if r in done}
    timed_batches = light_batches | {done[r] for r in heavy_ids if r in done}
    runs = by_name("engine.run")
    engine_by_batch = {s["attrs"]["batch"]: s for s in runs}
    light_runs = [engine_by_batch[b] for b in light_batches if b in engine_by_batch]
    timed_runs = [engine_by_batch[b] for b in timed_batches if b in engine_by_batch]
    batches = {s["attrs"]["batch"]: s for s in by_name("worker.run_async")}
    handoff = [
        (batches[b]["end"] - batches[b]["start"])
        - (engine_by_batch[b]["end"] - engine_by_batch[b]["start"])
        for b in light_batches if b in batches and b in engine_by_batch
    ]
    submits = {s["attrs"]["request"]: s for s in by_name("batcher.submit")}
    queue_ms = [
        batches[done[r]]["start"] - submits[r]["end"]
        for r in heavy_ids if r in done and done[r] in batches and r in submits
    ]
    decode = [s["end"] - s["start"] for s in by_name("middleware.decode")
              if s["attrs"]["request"] in light_ids]
    http = [o.done - o.sent - o.server_ms / 1e3 for o in light.outcomes if o.ok]
    calibration = [s["end"] - s["start"] for s in runs if s["attrs"]["calibrated"]]
    counters = snapshot.get("counters", {})
    metrics = engine_layer_metrics(light_runs)
    metrics.update({
        "planner.replans_per_run": metric(
            sum(s["attrs"]["replanned"] for s in timed_runs) / max(len(timed_runs), 1),
            "ratio"),
        "planner.calibrations_timed": metric(calibrations_timed, "count"),
        "planner.calibration_ms": metric(sum(calibration) * 1e3, "ms"),
        "planner.event_layers": metric(
            median([s["attrs"]["event_layers"] for s in timed_runs]), "count"),
        "middleware.decode_ms": metric(median(decode) * 1e3, "ms"),
        "worker.handoff_ms": metric(median(handoff) * 1e3, "ms"),
        "app.http_ms": metric(median(http) * 1e3, "ms"),
        "batcher.queue_ms": metric(median(queue_ms) * 1e3, "ms"),
        "batcher.batch_size_mean": metric(
            float(np.mean([o.batch_size for o in heavy.outcomes if o.ok])), "count"),
        "batcher.shed": metric(
            counters.get("shed_queue", 0) + counters.get("shed_bytes", 0), "count"),
        "batcher.deadline_rejected": metric(counters.get("rejected_deadline", 0), "count"),
        "breaker.trips": metric(snapshot.get("breaker", {}).get("trips", 0), "count"),
        "worker.restarts": metric(snapshot.get("worker", {}).get("restarts", 0), "count"),
    })
    return metrics


def run(seed: int, seconds: float, trace: bool, out_dir: Path, root: Path) -> dict:
    return asyncio.run(drive(seed, seconds, trace, out_dir, root))
