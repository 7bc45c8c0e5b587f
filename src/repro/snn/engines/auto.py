"""The adaptive backend: race once per plan key, then replay the plan.

The paper's accelerator wins by exploiting *per-layer* sparsity — the
mapper measures each layer's activity once and lays the network onto
the aggregation core accordingly.  A single global backend choice
(dense / event / batched) throws that structure away: measured
densities vary widely across layers, so the best kernel is a per-layer
property.

:class:`AutoEngine` (``engine="auto"``) closes the same
measure-then-specialise loop in software.  The first run of each plan
key executes the time-batched GEMM schedule while the per-layer
profiler records wall clock and input density; for every genuinely
sparse layer both sparse kernels — the per-plane event gather and the
bit-exact batched COO row-subset path
(:mod:`repro.snn.engines.event_batched`) — are timed on the very
activations that run produced.  A layer leaves the GEMM only when a
measured challenger beats its measured GEMM by a safety margin.  The
winning per-layer plan is cached and replayed unchanged on every later
run of the key.

Plans are keyed by (input kind, full input shape, T, input-density
bucket), held in a bounded LRU and persisted as JSON
(``AutoEngine(plan_path=...)``).  The density bucket is the only
input-level guard: traffic whose activity moves to another bucket gets
its own race, while jitter inside a bucket replays the cached plan.

Op accounting follows the chosen backend per layer: GEMM layers bill
full dense MACs, event layers bill performed (per-spike) ops, and every
layer's :class:`repro.snn.stats.LayerStats` records which backend ran
(``profile_table`` / ``BENCH_engines.json`` show the plan).
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d
from repro.snn.engines.base import LRUCache, _dense_op_count, _effective_weight
from repro.snn.engines.batched import TimeBatchedEngine
from repro.snn.engines.dense import dense_conv2d
from repro.snn.engines.event import sparse_conv2d, sparse_linear
from repro.snn.engines.event_batched import EventBatchedEngine
from repro.snn.spikes import SpikeStream, StepSpikes
from repro.tensor import Tensor
from repro.utils.io import atomic_write_json

logger = logging.getLogger(__name__)

#: Distinct (input shape, T) execution plans kept per engine.
PLAN_CACHE_CAPACITY = 8

#: On-disk format tag for persisted execution plans.
PLAN_FILE_FORMAT = "repro-execution-plans/v1"

#: Upper edges of the coarse input-density buckets baked into plan keys.
#: The GEMM/gather crossover moves with input density just like it moves
#: with the stack size, so a plan calibrated on a 1%-dense stream must
#: not be replayed on a 40%-dense one of the same shape.  Buckets are
#: deliberately coarse (log-spaced around the observed crossovers) so
#: ordinary batch-to-batch density jitter still hits the cached plan.
DENSITY_BUCKET_EDGES = (0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5)

#: Timing samples per kernel in the calibration race (best-of-N).  All
#: raced kernels — GEMM, event gather, COO row-subset — get the same
#: sample count: racing a min-of-N candidate against a single-shot
#: incumbent systematically favours the candidate (one noisy-high GEMM
#: sample near the crossover flips the layer to a slower sparse
#: kernel), which is exactly the miscalibration that pushes
#: ``auto_vs_best_fixed`` past its 1.1 acceptance bound.
CALIBRATION_REPEATS = 3


def density_bucket(density: float) -> int:
    """The coarse plan-key bucket an input density falls into.

    Bucket ``i`` covers densities in ``(EDGES[i-1], EDGES[i]]``; the
    last bucket (``len(DENSITY_BUCKET_EDGES)``) is everything denser
    than the last edge, which is where direct-coded analog frames land.
    """
    return int(
        np.searchsorted(DENSITY_BUCKET_EDGES, float(density), side="left")
    )


@dataclass
class LayerDecision:
    """One synapse layer's raced backend choice and the race's timings."""

    name: str
    backend: str                 # "gemm" | "event" | "event-batched"
    density: float               # observed input density during calibration
    gemm_seconds: float          # measured batched-GEMM wall clock
    event_seconds: Optional[float] = None  # measured gather wall clock (if raced)
    coo_seconds: Optional[float] = None    # measured COO row-subset wall clock


@dataclass
class ExecutionPlan:
    """A compiled per-layer schedule for one (kind, shape, T, bucket) key.

    ``key`` is ``(input_kind, input_shape, timesteps, density_bucket)``
    where ``input_kind`` is ``"dense"`` for direct-coded frames and
    ``"stream"`` for COO spike-stream input — the two present very
    different densities to the layers, so they never share a plan — and
    ``density_bucket`` is the coarse :func:`density_bucket` of the
    input's own nonzero fraction, so same-shaped workloads at genuinely
    different activity levels calibrate separately.
    Plans serialise to JSON (:meth:`to_json` / :meth:`from_json`) so a
    compiled plan can persist beside a model checkpoint and be reloaded
    by another process (``AutoEngine(plan_path=...)``).
    """

    key: Tuple
    decisions: Dict[str, LayerDecision] = field(default_factory=dict)

    def backend_of(self, name: str) -> str:
        decision = self.decisions.get(name)
        return decision.backend if decision is not None else "gemm"

    @property
    def event_layers(self) -> int:
        """Synapse layers planned onto either sparse kernel."""
        return sum(1 for d in self.decisions.values() if d.backend != "gemm")

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """This plan as a JSON-serialisable dict."""
        kind, shape, timesteps, bucket = self.key
        return {
            "format": PLAN_FILE_FORMAT,
            "key": {
                "input_kind": kind,
                "input_shape": list(shape),
                "timesteps": timesteps,
                "density_bucket": bucket,
            },
            "decisions": [
                {
                    "name": d.name,
                    "backend": d.backend,
                    "density": d.density,
                    "gemm_seconds": d.gemm_seconds,
                    "event_seconds": d.event_seconds,
                    "coo_seconds": d.coo_seconds,
                }
                for d in self.decisions.values()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionPlan":
        """Rebuild a plan from a :meth:`to_payload` dict.

        Fields this format no longer writes (provenance, predicted wall
        clock, row-shard fan-out) are ignored, so older plan files
        replay their backend choices with every layer run in-line.
        """
        if payload.get("format") != PLAN_FILE_FORMAT:
            raise ValueError(
                f"not an execution plan document (format "
                f"{payload.get('format')!r}, expected {PLAN_FILE_FORMAT!r})"
            )
        key_info = payload["key"]
        plan = cls(
            key=(
                str(key_info["input_kind"]),
                tuple(int(s) for s in key_info["input_shape"]),
                int(key_info["timesteps"]),
                # Plans persisted before density bucketing default to the
                # densest bucket — where a frame-calibrated plan belongs.
                int(key_info.get("density_bucket", len(DENSITY_BUCKET_EDGES))),
            )
        )
        for entry in payload["decisions"]:
            plan.decisions[entry["name"]] = LayerDecision(
                name=entry["name"],
                backend=entry["backend"],
                density=float(entry["density"]),
                gemm_seconds=float(entry["gemm_seconds"]),
                event_seconds=(
                    None
                    if entry["event_seconds"] is None
                    else float(entry["event_seconds"])
                ),
                coo_seconds=(
                    None
                    if entry.get("coo_seconds") is None
                    else float(entry.get("coo_seconds"))
                ),
            )
        return plan

    def to_json(self) -> str:
        """This plan as a standalone JSON document."""
        return json.dumps(self.to_payload(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        """Rebuild a plan serialised by :meth:`to_json`."""
        return cls.from_payload(json.loads(text))


class AutoEngine(EventBatchedEngine):
    """Adaptive backend: a measured per-layer plan, raced once per key.

    Parameters
    ----------
    density_threshold:
        Input densities at or above this never try the sparse kernels
        (there is no sparsity to exploit; the gather would only copy).
    margin:
        A challenger kernel must beat the GEMM by this factor to be
        chosen (< 1.0 adds hysteresis against timing noise, so a
        borderline layer stays on the safe GEMM path).
    plan_path:
        Optional JSON file persisting compiled plans across processes
        (kept beside model checkpoints).  Existing plans are loaded at
        construction; every fresh calibration rewrites the file.
    """

    name = "auto"

    def __init__(
        self,
        density_threshold: float = 0.5,
        margin: float = 0.9,
        plan_path: Optional[str] = None,
        profile_layers: bool = True,
    ) -> None:
        # Calibration *is* the per-layer profile, so profiling stays on
        # regardless of the flag an explicit False would suggest.
        super().__init__(
            density_threshold=density_threshold, profile_layers=True
        )
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must be in (0, 1]")
        self.margin = margin
        self.plan_path = plan_path
        self.calibration_runs = 0
        self._plans = LRUCache(PLAN_CACHE_CAPACITY)
        self._active_plan: Optional[ExecutionPlan] = None
        self._calibration: Optional[Dict[str, LayerDecision]] = None
        # Single-writer guard for the plan file: fork-pool children
        # inherit this engine (and plan_path) copy-on-write, but only
        # the owning process persists — children ship fresh plans back
        # on the EngineRun for the parent to absorb and write.
        self._owner_pid = os.getpid()
        if plan_path is not None:
            self.load_plans(plan_path, missing_ok=True)

    def _config(self) -> dict:
        # plan_path is deliberately not inherited by thread-shard
        # siblings: they share this engine's plan cache already, and
        # the parent is the single writer of the persistence file.
        config = super()._config()
        config["margin"] = self.margin
        return config

    def _share_caches(self, peer: "AutoEngine") -> None:
        super()._share_caches(peer)
        peer._plans = self._plans

    # ------------------------------------------------------------------
    # Plan persistence
    # ------------------------------------------------------------------
    def save_plans(self, path: Optional[str] = None) -> None:
        """Write every cached plan to ``path`` (default: ``plan_path``).

        The write is atomic (temp file + rename) so a concurrent
        ``AutoEngine(plan_path=...)`` in another process never reads a
        torn document.
        """
        path = path if path is not None else self.plan_path
        if path is None:
            raise ValueError("no path given and no plan_path configured")
        payload = {
            "format": PLAN_FILE_FORMAT,
            "plans": [plan.to_payload() for _, plan in self._plans.items()],
        }
        atomic_write_json(path, payload)

    def load_plans(self, path: Optional[str] = None, missing_ok: bool = False) -> int:
        """Load persisted plans into the cache; returns how many.

        A plan file is a cache, never ground truth: if it is corrupt,
        truncated (a crash on a filesystem without atomic rename) or
        written by an incompatible format version, loading logs one
        warning and returns 0 — the engine simply recalibrates, and the
        next persist atomically replaces the bad file.  Only a missing
        file with ``missing_ok=False`` (an explicit load of a path the
        caller asserted exists) still raises.
        """
        path = path if path is not None else self.plan_path
        if path is None:
            raise ValueError("no path given and no plan_path configured")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            if missing_ok:
                return 0
            raise
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            logger.warning(
                "ignoring unreadable plan file %s (%s); the engine will "
                "recalibrate and rewrite it", path, error
            )
            return 0
        if not isinstance(payload, dict) or payload.get("format") != PLAN_FILE_FORMAT:
            found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
            logger.warning(
                "ignoring plan file %s: format %r does not match %r; the "
                "engine will recalibrate and rewrite it",
                path, found, PLAN_FILE_FORMAT,
            )
            return 0
        try:
            plans = [
                ExecutionPlan.from_payload(dict(entry, format=PLAN_FILE_FORMAT))
                for entry in payload.get("plans", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "ignoring plan file %s with malformed plan entries (%s); "
                "the engine will recalibrate and rewrite it", path, error
            )
            return 0
        for plan in plans:
            self._plans.put(plan.key, plan)
        return len(plans)

    def _persist_plans(self) -> None:
        # Fork children inherit plan_path but must not write: their
        # copy-on-write cache is partial, and concurrent writers would
        # race on the file.  The parent persists on absorb.
        if self.plan_path is not None and os.getpid() == self._owner_pid:
            self.save_plans(self.plan_path)

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(x, timesteps: int) -> Tuple:
        if isinstance(x, SpikeStream):
            # O(1) from the stream's own metadata — no plane scan.
            kind, density = "stream", x.density
        else:
            data = np.asarray(x)
            kind = "dense"
            density = np.count_nonzero(data) / max(data.size, 1)
        return (kind, tuple(x.shape), int(timesteps), density_bucket(density))

    def plan_for(
        self,
        input_shape,
        timesteps: int,
        kind: str = "dense",
        density_bucket: Optional[int] = None,
    ) -> Optional[ExecutionPlan]:
        """The cached plan for a full input shape (batch included) and T.

        With ``density_bucket=None`` the most recently cached plan for
        the (kind, shape, T) prefix is returned regardless of its
        bucket; pass a :func:`density_bucket` value to pin one.
        """
        prefix = (str(kind), tuple(int(s) for s in input_shape), int(timesteps))
        if density_bucket is not None:
            return self._plans.get(prefix + (int(density_bucket),))
        match = None
        for key, plan in self._plans.items():
            if key[:3] == prefix:
                match = plan
        return match

    def _run_single(self, x, timesteps, per_step):
        key = self._plan_key(x, timesteps)
        plan = self._plans.get(key)
        self._active_plan = plan
        self._calibration = {} if plan is None else None
        try:
            run = super()._run_single(x, timesteps, per_step)
            if self._calibration is not None:
                plan = ExecutionPlan(key=key, decisions=self._calibration)
                self._plans.put(key, plan)
                self.calibration_runs += 1
                self._persist_plans()
                # Ship the fresh plan back on the run: a fork-pool shard
                # compiles in a throwaway child process, and only this
                # payload (absorbed by the parent's _absorb_shard_runs)
                # gets it into the surviving cache.
                run.plan = plan
            run.stats.plan_source = "raced"
            for layer in run.stats.layers:
                layer.backend = (
                    "stepped" if layer.kind == "neuron" else plan.backend_of(layer.name)
                )
            return run
        finally:
            self._active_plan = None
            self._calibration = None

    def _absorb_shard_runs(self, runs) -> None:
        fresh = [run.plan for run in runs if run is not None and run.plan is not None]
        for plan in fresh:
            self._plans.put(plan.key, plan)
        if fresh:
            self._persist_plans()

    # ------------------------------------------------------------------
    def planner_snapshot(self) -> dict:
        """JSON-ready planner state for ``/metrics`` and ``--profile``:
        the cached plans (key, specialised layer count) and how many
        calibration races ran.

        Every plan reports ``source: "raced"`` and ``sharded_layers: 0``;
        both keys stay because existing readers of the snapshot
        (``perfbench/``) still compare them.
        """
        plans = []
        for key, plan in self._plans.items():
            kind, shape, timesteps, bucket = key
            plans.append(
                {
                    "input_kind": kind,
                    "input_shape": list(shape),
                    "timesteps": int(timesteps),
                    "density_bucket": int(bucket),
                    "source": "raced",
                    "layers": len(plan.decisions),
                    "event_layers": plan.event_layers,
                    "sharded_layers": 0,
                }
            )
        return {"plans": plans, "calibration_runs": self.calibration_runs}

    # ------------------------------------------------------------------
    def _decide(
        self,
        name: str,
        density: float,
        gemm_seconds: float,
        event_seconds: Optional[float],
        coo_seconds: Optional[float],
    ) -> LayerDecision:
        """A measured challenger must beat the measured GEMM by the
        ``margin`` hysteresis to take the layer."""
        backend = "gemm"
        best = gemm_seconds * self.margin
        for candidate, seconds in (
            ("event", event_seconds),
            ("event-batched", coo_seconds),
        ):
            if seconds is not None and seconds < best:
                backend, best = candidate, seconds
        return LayerDecision(
            name=name,
            backend=backend,
            density=density,
            gemm_seconds=gemm_seconds,
            event_seconds=event_seconds,
            coo_seconds=coo_seconds,
        )

    # ------------------------------------------------------------------
    def _make_interceptor(self, module, stat, orig):
        # The pure GEMM closure, bypassing EventBatchedEngine's COO
        # dispatch: the plan, not a per-layer density check, decides
        # which kernel runs here.
        gemm = TimeBatchedEngine._make_interceptor(self, module, stat, orig)
        is_conv = isinstance(module, Conv2d)
        name = stat.name

        def coords_of(data) -> StepSpikes:
            carried = self._carried_coords(data)
            if carried is not None:
                return carried
            return StepSpikes(
                coords=np.stack(np.nonzero(data), axis=1), shape=data.shape
            )

        def calibrate(x: Tensor, data) -> Tensor:
            # Calibration: time the GEMM path, then race the challengers
            # right here while the input is naturally live — recording
            # numbers, never activations, keeps the calibration run's
            # memory profile identical to a plain batched run.
            constant = id(data) in self._constant_arrays
            counted = self._carried_count(data)
            if counted is not None and counted[1]:
                density = counted[0] / max(data.size, 1)
            else:
                density = np.count_nonzero(data) / max(data.size, 1)
            started = time.perf_counter()
            out = gemm(x)
            gemm_seconds = time.perf_counter() - started
            event_seconds: Optional[float] = None
            coo_seconds: Optional[float] = None
            if not constant and density < self.density_threshold:
                weight = _effective_weight(module, self._weight_cache)
                bias = module.bias.data if module.bias is not None else None
                # Every raced kernel gets the same best-of-N sampling,
                # the GEMM included: its real forward above is one
                # sample, and the raw kernel is re-timed to fill the
                # rest.  An asymmetric race (min-of-N candidates vs a
                # one-shot incumbent) flips crossover layers onto slower
                # sparse kernels whenever the single GEMM sample lands
                # high.
                for _ in range(CALIBRATION_REPEATS - 1):
                    trial = time.perf_counter()
                    if is_conv:
                        dense_conv2d(
                            data, weight, bias, module.stride, module.padding
                        )
                    else:
                        redo = data @ weight.T
                        if bias is not None:
                            redo += bias
                    gemm_seconds = min(
                        gemm_seconds, time.perf_counter() - trial
                    )
                event_seconds = float("inf")
                for _ in range(CALIBRATION_REPEATS):
                    trial = time.perf_counter()
                    if is_conv:
                        sparse_conv2d(
                            data, weight, bias, module.stride, module.padding
                        )
                    else:
                        sparse_linear(data, weight, bias)
                    event_seconds = min(
                        event_seconds, time.perf_counter() - trial
                    )
                coo_seconds = float("inf")
                for _ in range(CALIBRATION_REPEATS):
                    # The coordinate scan stays inside the timed region
                    # when no coordinates are carried — the planned path
                    # pays it too.
                    trial = time.perf_counter()
                    self._coo_synapse(
                        module, data, coords_of(data), weight, bias,
                        register=False,
                    )
                    coo_seconds = min(
                        coo_seconds, time.perf_counter() - trial
                    )
            self._calibration[name] = self._decide(
                name, density, gemm_seconds, event_seconds, coo_seconds
            )
            return out

        def forward(x: Tensor) -> Tensor:
            data = x.data
            plan = self._active_plan
            if plan is None:
                return calibrate(x, data)
            backend = plan.backend_of(name)
            if backend == "gemm" or id(data) in self._constant_arrays:
                return gemm(x)
            # Planned sparse layer: one gather over the whole (T*N, ...)
            # stack; bills performed (per-spike) ops like the event
            # engine, with the dense MAC count as the baseline.
            stat.dense_synaptic_ops += _dense_op_count(module, data.shape)
            weight = _effective_weight(module, self._weight_cache)
            bias = module.bias.data if module.bias is not None else None
            if backend == "event-batched":
                out, billed, _ = self._coo_synapse(
                    module, data, coords_of(data), weight, bias
                )
            elif is_conv:
                out, billed = sparse_conv2d(
                    data, weight, bias, module.stride, module.padding
                )
            else:
                out, billed = sparse_linear(data, weight, bias)
            stat.synaptic_ops += billed
            return Tensor(out)

        return forward
