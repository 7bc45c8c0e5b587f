"""An async-friendly, replaceable execution slot over a bound engine.

The serving layer (:mod:`repro.serve`) needs three things the raw
:class:`~repro.snn.engines.base.SimulationEngine` interface does not
give it:

* **Serialised submission.**  An engine instance is not reentrant — a
  run installs forward interceptors on the bound model for its
  duration — so concurrent requests must queue behind one another.
  :class:`EngineWorker` owns a single-thread executor per engine: the
  thread *is* the engine's execution slot, and the queue in front of it
  is the natural backpressure the micro-batcher measures.
* **An awaitable API.**  :meth:`EngineWorker.run_async` wraps the
  worker future for ``asyncio`` callers with an optional wall-clock
  timeout, so the event loop never blocks on a GEMM.
* **A health probe and a poison recovery path.**  A worker thread stuck
  inside a wedged run cannot be killed; what *can* be done — the same
  move the shard supervisor makes when a thread shard hangs — is to
  abandon the wedged thread together with the model whose interceptors
  it still holds, and rebuild the slot on a sibling engine bound to a
  weight-sharing clone (:func:`clone_for_inference`).  Weights are
  never copied, warm cross-run caches (effective weights, compiled
  execution plans) are shared with the replacement, and the stuck
  thread dies with the process.  :meth:`EngineWorker.health_probe`
  runs a tiny canary inference through the same slot so liveness means
  "the engine actually completes work", not "the process exists".

Runs inside the worker still ride PR 7's supervised sharding: a
``ShardPolicy`` passed at construction travels into every
``engine.run``, so per-shard crashes and hangs retry and degrade
fork→thread→serial *inside* the slot before the worker-level timeout
ever fires.  The worker-level timeout is the outer net for what the
supervisor cannot catch — a hang in serial execution itself.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.snn.engines.auto import PLAN_CACHE_CAPACITY
from repro.snn.engines.base import EngineRun, SimulationEngine
from repro.snn.engines.sharding import ShardPolicy, clone_for_inference

logger = logging.getLogger(__name__)

_WORKER_IDS = itertools.count(1)


class WorkerTimeout(RuntimeError):
    """A submitted run outlived its wall-clock budget; the worker's
    execution slot was abandoned and rebuilt on a model clone."""


def warm_batch_plans(
    engine: SimulationEngine,
    sample_shape: Sequence[int],
    timesteps: int,
    max_batch_size: int,
    **run_options,
) -> None:
    """Run ``engine`` once per batch size ``1..max_batch_size`` at T.

    Keeps an adaptive engine's plan races out of steady full-T
    traffic.  The probe is all ones: plan keys carry the input's
    density bucket, and direct-coded frames land in the densest one.
    Sizes stop at ``PLAN_CACHE_CAPACITY``, so the warmed keys can fill
    the LRU plan cache: any other key (a degraded or per-request T, a
    sparser input, a plan loaded for another shape) evicts the least
    recently used warmed size, which then races again when it recurs.
    """
    probe = np.ones((1,) + tuple(int(s) for s in sample_shape), dtype=np.float32)
    for size in range(1, min(int(max_batch_size), PLAN_CACHE_CAPACITY) + 1):
        engine.run(
            np.repeat(probe, size, axis=0), int(timesteps), per_step=True,
            **run_options,
        )


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one health-probe canary inference."""

    ok: bool
    latency_seconds: float
    error: str = ""


class EngineWorker:
    """One serialised, replaceable execution slot over a bound engine.

    Parameters
    ----------
    engine:
        A bound :class:`SimulationEngine` (``engine.model`` set).  The
        worker takes over execution scheduling; callers must not run
        the engine directly while the worker owns it.
    policy:
        Shard-level failure policy threaded into every run (retries,
        per-attempt deadlines, the degradation chain).
    workers / shard_mode:
        Batch-shard fan-out applied to every dispatched batch.
    probe_shape:
        Single-sample input shape ``(C, H, W)`` for health-probe
        canaries; defaults to the shape of the first submitted batch.
    probe_timesteps:
        T for canary runs.  A probe asserts liveness, not accuracy; the
        server passes its serving T so the all-ones canary replays a
        plan :func:`warm_batch_plans` compiled instead of racing a key.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        policy: Optional[ShardPolicy] = None,
        workers: int = 1,
        shard_mode: str = "auto",
        probe_shape: Optional[Sequence[int]] = None,
        probe_timesteps: int = 2,
    ) -> None:
        if engine.model is None:
            raise ValueError("engine must be bound to a model (call bind() first)")
        self._engine = engine
        self._source_model = engine.model
        self.policy = policy
        self.workers = int(workers)
        self.shard_mode = shard_mode
        self.probe_shape: Optional[Tuple[int, ...]] = (
            tuple(int(s) for s in probe_shape) if probe_shape is not None else None
        )
        self.probe_timesteps = int(probe_timesteps)
        self._lock = threading.Lock()
        self._executor = self._fresh_executor()
        self.restarts = 0          # wedged slots abandoned and rebuilt
        self.runs_completed = 0
        self.shard_failures = 0    # supervised failures absorbed inside runs
        self.last_degraded_mode = ""

    # ------------------------------------------------------------------
    def _fresh_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"engine-worker-{next(_WORKER_IDS)}",
        )

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def pending(self) -> int:
        """Queued-but-unfinished runs (approximate; for metrics only)."""
        return getattr(self._executor, "_work_queue").qsize()

    # ------------------------------------------------------------------
    def _run(self, x, timesteps: int, per_step: bool) -> EngineRun:
        if self.probe_shape is None and hasattr(x, "shape"):
            self.probe_shape = tuple(int(s) for s in x.shape[1:])
        run = self._engine.run(
            x,
            timesteps,
            per_step=per_step,
            workers=self.workers,
            shard_mode=self.shard_mode,
            shard_policy=self.policy,
        )
        with self._lock:
            self.runs_completed += 1
            self.shard_failures += len(run.stats.shard_failures)
            if run.stats.degraded_shard_mode:
                self.last_degraded_mode = run.stats.degraded_shard_mode
        return run

    def submit(self, x, timesteps: int, per_step: bool = False) -> Future:
        """Queue one batch on the execution slot; returns its future."""
        with self._lock:
            executor = self._executor
        return executor.submit(self._run, x, int(timesteps), per_step)

    async def run_async(
        self,
        x,
        timesteps: int,
        per_step: bool = False,
        timeout: Optional[float] = None,
    ) -> EngineRun:
        """Await one batch through the slot, with a hang deadline.

        On timeout the wedged slot is replaced (:meth:`restart`) and
        :class:`WorkerTimeout` raised — the circuit breaker's signal.
        The abandoned thread may still be executing; it holds only the
        abandoned model clone, so the replacement slot is unaffected.
        """
        future = self.submit(x, timesteps, per_step)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self.restart()
            raise WorkerTimeout(
                f"engine run exceeded its {timeout:.3f}s budget; the worker "
                f"slot was abandoned and rebuilt"
            ) from None

    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Abandon the (possibly wedged) slot and rebuild it.

        The old executor is shut down without waiting — its thread, if
        stuck, keeps the *old* model's interceptors and dies with the
        process.  The replacement engine is a sibling (same
        configuration, shared thread-safe cross-run caches, so compiled
        plans and effective weights stay warm) bound to a fresh
        structural clone that shares every weight array with the
        original model.
        """
        with self._lock:
            self._executor.shutdown(wait=False)
            self._executor = self._fresh_executor()
            replacement = self._engine._sibling()
            replacement.bind(clone_for_inference(self._source_model))
            self._engine = replacement
            self.restarts += 1
        logger.warning(
            "engine worker restarted (%d restart(s) total): wedged slot "
            "abandoned, engine rebuilt on a weight-sharing model clone",
            self.restarts,
        )

    # ------------------------------------------------------------------
    def planner_snapshot(self) -> Optional[dict]:
        """The engine's planner state, when the engine has a planner.

        ``AutoEngine.planner_snapshot()`` passed through (cached plans,
        calibration count); ``None`` for fixed-backend engines.  Slot
        restarts preserve it: sibling engines share the plan cache.
        """
        snapshot = getattr(self._engine, "planner_snapshot", None)
        if snapshot is None:
            return None
        return snapshot()

    # ------------------------------------------------------------------
    def health_probe(self, timeout: Optional[float] = 5.0) -> ProbeResult:
        """Run a canary inference through the slot, bounded by ``timeout``.

        A probe that times out reports unhealthy *and* restarts the
        slot, so the next probe exercises the replacement — the
        half-open handshake the circuit breaker builds on.
        """
        if self.probe_shape is None:
            return ProbeResult(
                ok=False, latency_seconds=0.0,
                error="no probe shape known yet (no batch seen, none configured)",
            )
        canary = np.ones((1,) + self.probe_shape, dtype=np.float32)
        started = time.perf_counter()
        future = self.submit(canary, self.probe_timesteps)
        try:
            future.result(timeout)
        except Exception as error:  # noqa: BLE001 - probes report, never raise
            elapsed = time.perf_counter() - started
            if not future.done():
                self.restart()
                return ProbeResult(
                    ok=False, latency_seconds=elapsed,
                    error=f"probe timed out after {elapsed:.3f}s",
                )
            return ProbeResult(
                ok=False, latency_seconds=elapsed,
                error=f"{type(error).__name__}: {error}",
            )
        return ProbeResult(ok=True, latency_seconds=time.perf_counter() - started)

    async def health_probe_async(
        self, timeout: Optional[float] = 5.0
    ) -> ProbeResult:
        """:meth:`health_probe` off the event loop thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.health_probe, timeout)

    def shutdown(self) -> None:
        """Release the slot's thread (idempotent)."""
        self._executor.shutdown(wait=False)
