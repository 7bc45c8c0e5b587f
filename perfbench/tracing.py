"""In-memory spans around the program's public entry points.

A traced run patches a few functions of the program from outside (the
program itself is not changed), records one span per call and writes
all spans as JSON lines when the run ends.  A span is
``{"name", "id", "start", "end", "attrs"}``; times are
``time.perf_counter()`` seconds of the process that recorded them.
Spans of one served request share ``attrs["request"]``; the spans of
one engine batch share ``attrs["batch"]``, which is how a span finds
the span that caused it.

Layers patched:

* engine workloads: ``SimulationEngine.run`` (span ``engine.run``,
  whose attributes carry the run's ``RunStats`` summary);
* the server: ``repro.serve.app.decode_infer_request``
  (``middleware.decode``), ``MicroBatcher.submit`` (``batcher.submit``,
  plus a ``request.done`` mark when the request's future resolves),
  ``EngineWorker.run_async`` (``worker.run_async``) and
  ``SimulationEngine.run`` (``engine.run``, tagged with the batch).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Collects spans in memory; ``dump`` writes them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: The batch currently inside ``EngineWorker.run_async`` (the
        #: in-process worker runs one batch at a time).
        self.current_batch: Optional[int] = None
        #: The request whose body was decoded last; ``_infer`` calls
        #: ``submit`` right after ``decode`` with no ``await`` between.
        self.current_request: Optional[int] = None

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        with self._lock:
            self.spans.append({
                "name": name, "id": next(self._ids),
                "start": start, "end": end, "attrs": attrs,
            })

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def install_engine(self) -> None:
        """Span every ``SimulationEngine.run`` with its ``RunStats``."""
        from repro.snn.engines.base import SimulationEngine

        original = SimulationEngine.run
        recorder = self

        @functools.wraps(original)
        def run(engine, x, timesteps, *args, **kwargs):
            calibrations = getattr(engine, "calibration_runs", 0)
            start = time.perf_counter()
            result = original(engine, x, timesteps, *args, **kwargs)
            end = time.perf_counter()
            recorder.add("engine.run", start, end,
                         batch=recorder.current_batch,
                         calibrated=getattr(engine, "calibration_runs", 0) != calibrations,
                         **run_stats_summary(result.stats))
            return result

        self._patch(SimulationEngine, "run", run)

    def install_serving(self) -> None:
        """Span the request path of an in-process ``InferenceServer``."""
        import repro.serve.app as app
        from repro.serve.batcher import MicroBatcher
        from repro.snn.engines.service import EngineWorker

        recorder = self
        decode = app.decode_infer_request

        @functools.wraps(decode)
        def traced_decode(body, *args, **kwargs):
            request = request_id(body)
            recorder.current_request = request
            start = time.perf_counter()
            try:
                return decode(body, *args, **kwargs)
            finally:
                recorder.add("middleware.decode", start, time.perf_counter(),
                             request=request)

        submit = MicroBatcher.submit

        @functools.wraps(submit)
        def traced_submit(batcher, *args, **kwargs):
            request = recorder.current_request
            start = time.perf_counter()
            future = submit(batcher, *args, **kwargs)
            end = time.perf_counter()
            recorder.add("batcher.submit", start, end, request=request)

            def done(_future, request=request):
                recorder.add("request.done", time.perf_counter(),
                             time.perf_counter(), request=request,
                             batch=recorder.current_batch)

            future.add_done_callback(done)
            return future

        run_async = EngineWorker.run_async
        batches = itertools.count(1)

        @functools.wraps(run_async)
        async def traced_run_async(worker, x, *args, **kwargs):
            batch = next(batches)
            recorder.current_batch = batch
            start = time.perf_counter()
            try:
                return await run_async(worker, x, *args, **kwargs)
            finally:
                recorder.add("worker.run_async", start, time.perf_counter(),
                             batch=batch, size=int(x.shape[0]))

        self._patch(app, "decode_infer_request", traced_decode)
        self._patch(MicroBatcher, "submit", traced_submit)
        self._patch(EngineWorker, "run_async", traced_run_async)
        self.install_engine()


def request_id(body: bytes) -> Optional[int]:
    """The ``"id"`` the load generator puts first in every request body."""
    prefix = b'{"id": '
    if not body.startswith(prefix):
        return None
    end = body.find(b",", len(prefix))
    try:
        return int(body[len(prefix):end])
    except ValueError:
        return None


def run_stats_summary(stats) -> Dict[str, object]:
    """The per-layer numbers of one run, from the ``RunStats`` it returned."""
    layer_s = {"conv": 0.0, "linear": 0.0, "neuron": 0.0}
    spikes = steps = event_layers = 0
    for layer in stats.layers:
        if layer.kind in layer_s:
            layer_s[layer.kind] += layer.wall_clock_seconds
        spikes += layer.spike_count
        steps += layer.neuron_steps
        event_layers += layer.backend.startswith("event")
    return {
        "batch_size": int(stats.batch_size),
        "wall_s": float(stats.wall_clock_seconds),
        "conv_s": layer_s["conv"],
        "linear_s": layer_s["linear"],
        "neuron_s": layer_s["neuron"],
        "synaptic_ops": int(stats.total_synaptic_ops),
        "spikes": int(spikes),
        "neuron_steps": int(steps),
        "event_layers": event_layers,
        "plan_source": stats.plan_source,
        "replanned": bool(stats.replan_triggered or stats.replanned_at),
    }
