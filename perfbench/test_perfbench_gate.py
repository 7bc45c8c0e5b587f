"""Self-test of the benchmark's correctness gate and SLO accounting.

A flipped logit, a 429 and a 504 must each count as a failed
operation, and a request answered late must count against the SLO.
The load generator is driven against a stub HTTP server that answers
from a script, so no part of the program is needed.

    python3 -m pytest perfbench/test_perfbench_gate.py -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import serving  # noqa: E402
from tracing import request_id  # noqa: E402

REFERENCE = np.array([0.5, -1.25, 3.0], dtype=np.float32)


def ok_payload(logits=REFERENCE) -> bytes:
    return json.dumps({
        "logits": [float(v) for v in logits],
        "latency_ms": 1.0,
        "batch_size": 1,
    }).encode()


def flipped(logits: np.ndarray) -> np.ndarray:
    """The logits with the lowest bit of one value flipped."""
    out = logits.copy()
    out.view(np.uint32)[1] ^= 1
    return out


def scored(status: int, payload: bytes) -> serving.Outcome:
    outcome = serving.Outcome(request=0, due=0.0, done=0.001)
    serving.score(outcome, status, payload, REFERENCE)
    return outcome


def test_exact_logits_pass():
    assert scored(200, ok_payload()).ok


@pytest.mark.parametrize(
    "status, payload",
    [
        (200, ok_payload(flipped(REFERENCE))),
        (429, b'{"error": "overloaded"}'),
        (504, b'{"error": "deadline unmeetable"}'),
    ],
    ids=["flipped-logit", "http-429", "http-504"],
)
def test_each_failure_raises_error_rate(status, payload):
    tally = common.Tally()
    for _ in range(9):
        tally.record(scored(200, ok_payload()).ok)
    outcome = scored(status, payload)
    assert not outcome.ok and outcome.reason
    tally.record(outcome.ok, outcome.reason)
    assert tally.failed == 1
    assert tally.error_rate == pytest.approx(0.1)


def test_late_request_counts_against_slo():
    """Latency runs from when a request was due, not when it was sent:
    requests that waited behind a stall miss the SLO though the server
    answered each of them in a millisecond."""
    phase = serving.Phase("step", rate=100.0)
    for i in range(98):
        phase.outcomes.append(serving.Outcome(request=i, due=0.0, sent=0.0,
                                              done=0.005, ok=True))
    assert phase.met_slo()
    late = serving.SLO_MS * 2 / 1e3
    for i in (98, 99):
        phase.outcomes.append(serving.Outcome(request=i, due=0.0, sent=late,
                                              done=late + 0.001, ok=True))
    assert serving.slo_p99_ms(phase.outcomes) > serving.SLO_MS
    assert not phase.met_slo()


def test_failed_request_is_a_miss_and_growing_backlog_fails_a_step():
    phase = serving.Phase("step", rate=100.0)
    phase.outcomes = [serving.Outcome(request=i, due=0.0, done=0.001, ok=True)
                      for i in range(99)]
    phase.outcomes.append(serving.Outcome(request=99, due=0.0, done=0.001, ok=False))
    assert serving.slo_p99_ms(phase.outcomes) == float("inf")
    phase.outcomes[-1].ok = True
    assert phase.met_slo()
    phase.backlog_mid, phase.backlog_end = 0, serving.CONNECTIONS + 1
    assert not phase.met_slo()


def test_result_line_reports_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(common, "OUT_DIR", tmp_path)
    tally = common.Tally()
    tally.record(True)
    tally.record(False, "HTTP 429")
    correct = common.emit("w", 1, False, tally,
                          {"setup_s": common.metric(0.5, "s")})
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not correct
    assert last == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}


# ----------------------------------------------------------------------
class StubServer:
    """Answers ``POST /v1/infer`` from a script of (delay, status, body)
    keyed by request id, and ``GET /metrics`` with an empty queue."""

    def __init__(self, script):
        self.script = script
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        assert self._ready.wait(10)

    def _main(self):
        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                path = line.split()[1].decode()
                length = 0
                while (header := await reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length) if length else b""
                status, payload = 200, b'{"queue_depth": 0}'
                if path == "/v1/infer":
                    delay, status, payload = self.script[request_id(body)]
                    await asyncio.sleep(delay)
                writer.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n"
                             % (status, len(payload)) + payload)
                await writer.drain()
            writer.close()

        async def serve():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            server.close()

        asyncio.run(serve())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)
        assert not self._thread.is_alive()


def test_load_generator_scores_a_scripted_server():
    script = {i: (0.0, 200, ok_payload()) for i in range(20)}
    script[3] = (0.0, 200, ok_payload(flipped(REFERENCE)))
    script[7] = (0.0, 429, b'{"error": "overloaded"}')
    script[11] = (0.0, 504, b'{"error": "deadline unmeetable"}')
    script[15] = (0.2, 200, ok_payload())  # answered after the SLO
    stub = StubServer(script)

    async def drive():
        gen = serving.LoadGenerator(stub.port, [b'"input": []}'], [REFERENCE])
        await gen.open()
        try:
            return await gen.phase("step", rate=200.0, duration=0.1)
        finally:
            await gen.close()

    try:
        phase = asyncio.run(drive())
    finally:
        stub.close()
    failed = {o.request for o in phase.outcomes if not o.ok}
    assert failed == {3, 7, 11}
    assert len(phase.outcomes) == 20
    late = phase.outcomes[15]
    assert late.ok and late.latency * 1e3 > serving.SLO_MS
    assert not phase.met_slo()
