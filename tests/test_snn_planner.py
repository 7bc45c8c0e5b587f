"""Planner plumbing around the auto engine's race-once plans.

The contracts under test:

* ``split_bounds`` partitions rows into the contiguous near-equal
  blocks every sharded path uses;
* plan files written by earlier versions of the planner — whose
  decisions carry cost-model/re-plan provenance, predicted wall clock
  and per-layer row-shard fan-out — still load, replay without
  calibrating, run every layer in-line and stay bit-identical to the
  batched engine, while a stale sibling ``plans.cost.json`` is left
  untouched;
* ``planner_snapshot()`` has one stable shape, passed through by the
  engine worker and absent for fixed-backend engines.
"""

import builtins
import json

import numpy as np

from repro.snn import AutoEngine, SpikingNetwork
from repro.snn.engines import EngineWorker, ExecutionPlan, make_engine
from repro.snn.engines import sharding
from repro.snn.engines.auto import LayerDecision
from repro.snn.engines.sharding import split_bounds

from test_snn_engine import converted_pooled_toy, converted_toy


class TestSplitBounds:
    def test_partition_covers_range(self):
        bounds = split_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_near_equal_blocks(self):
        sizes = [hi - lo for lo, hi in split_bounds(11, 4)]
        assert sorted(sizes) == [2, 3, 3, 3]

    def test_more_shards_than_rows(self):
        bounds = split_bounds(2, 5)
        assert len(bounds) == 2
        assert bounds == [(0, 1), (1, 2)]

    def test_degenerate_inputs(self):
        assert split_bounds(0, 4) == []
        assert split_bounds(4, 0) == []


def _legacy_decision(name, backend, density, source, shard_mode, workers):
    return {
        "name": name,
        "backend": backend,
        "density": density,
        "gemm_seconds": 0.0002,
        "event_seconds": None if backend == "gemm" else 0.0004,
        "coo_seconds": None if backend == "gemm" else 0.0001,
        "source": source,
        "predicted_ms": 0.2,
        "dense_ops": 16384,
        "shard_mode": shard_mode,
        "workers": workers,
    }


def legacy_plan_file():
    """A plan file as the cost-model/re-planning planner wrote it for
    ``converted_pooled_toy`` on a ``(4, 2, 8, 8)`` frame batch at T=4:
    both convs planned as 2-way thread row shards, the linear layer
    swapped onto the COO kernel by a mid-run re-plan."""
    return {
        "format": "repro-execution-plans/v1",
        "plans": [
            {
                "format": "repro-execution-plans/v1",
                "key": {
                    "input_kind": "dense",
                    "input_shape": [4, 2, 8, 8],
                    "timesteps": 4,
                    "density_bucket": 7,
                },
                "decisions": [
                    _legacy_decision("0", "gemm", 1.0, "cost-model", "thread", 2),
                    _legacy_decision("4", "gemm", 0.57, "re-planned", "thread", 2),
                    _legacy_decision("8", "event-batched", 0.32, "re-planned", "", 1),
                ],
            }
        ],
    }


class TestPlanPayloadCompat:
    def test_legacy_payload_defaults_new_fields(self):
        # Plans persisted before COO racing and density bucketing lack
        # coo_seconds and the key's density_bucket.
        plan = ExecutionPlan(
            key=("dense", (2, 2, 4, 4), 4, 7),
            decisions={
                "0": LayerDecision(
                    name="0", backend="gemm", density=1.0, gemm_seconds=0.01
                )
            },
        )
        payload = plan.to_payload()
        del payload["key"]["density_bucket"]
        for entry in payload["decisions"]:
            entry.pop("coo_seconds")
        loaded = ExecutionPlan.from_payload(payload)
        assert loaded.key == plan.key  # densest bucket by default
        decision = loaded.decisions["0"]
        assert decision.backend == "gemm"
        assert decision.coo_seconds is None

    def test_legacy_plan_file_decisions_load(self):
        (payload,) = legacy_plan_file()["plans"]
        plan = ExecutionPlan.from_payload(payload)
        assert plan.key == ("dense", (4, 2, 8, 8), 4, 7)
        assert plan.backend_of("4") == "gemm"
        assert plan.backend_of("8") == "event-batched"
        assert plan.event_layers == 1
        # Re-serialised, the plan carries only the race-once fields.
        assert set(plan.to_payload()["decisions"][0]) == {
            "name", "backend", "density", "gemm_seconds", "event_seconds",
            "coo_seconds",
        }

    def test_legacy_plan_file_replays_in_line_and_bitwise(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps(legacy_plan_file()))
        engine = AutoEngine(plan_path=str(path))
        assert engine.plan_for((4, 2, 8, 8), 4) is not None

        def no_shards(*args, **kwargs):
            raise AssertionError("a legacy workers=2 decision was sharded")

        monkeypatch.setattr(sharding, "run_supervised", no_shards)
        model = converted_pooled_toy()
        x = np.random.default_rng(5).normal(size=(4, 2, 8, 8)).astype(np.float32)
        auto = SpikingNetwork(model, timesteps=4, engine=engine)
        replayed = auto.forward(x)
        stats = auto.last_run_stats
        assert engine.calibration_runs == 0
        assert stats.plan_source == "raced"
        assert stats.workers == 1 and not stats.shard_failures
        backends = {l.name: l.backend for l in stats.layers if l.kind != "neuron"}
        assert backends == {"0": "gemm", "4": "gemm", "8": "event-batched"}
        batched = SpikingNetwork(model, timesteps=4, engine="batched")
        assert np.array_equal(replayed, batched.forward(x))

    def test_stale_cost_model_file_is_neither_read_nor_deleted(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps(legacy_plan_file()))
        cost_path = tmp_path / "plans.cost.json"
        stale = '{"format": "repro-cost-model/v1", "observations": {}}'
        cost_path.write_text(stale)

        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        engine = AutoEngine(plan_path=str(path))
        net = SpikingNetwork(converted_pooled_toy(), timesteps=4, engine=engine)
        rng = np.random.default_rng(6)
        net.forward(rng.normal(size=(4, 2, 8, 8)).astype(np.float32))
        # A new key calibrates and rewrites the plan file.
        net.forward(rng.normal(size=(2, 2, 8, 8)).astype(np.float32))
        monkeypatch.undo()

        assert engine.calibration_runs == 1
        assert str(cost_path) not in opened
        assert cost_path.read_text() == stale
        rewritten = json.loads(path.read_text())
        assert len(rewritten["plans"]) == 2


class TestPlannerSnapshot:
    def test_snapshot_shape(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(60).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        net.forward(x)
        snapshot = engine.planner_snapshot()
        assert set(snapshot) == {"plans", "calibration_runs"}
        assert snapshot["calibration_runs"] == 1
        (entry,) = snapshot["plans"]
        assert entry["source"] == "raced"
        assert entry["input_kind"] == "dense"
        assert entry["input_shape"] == [2, 2, 4, 4]
        assert entry["timesteps"] == 4
        assert entry["layers"] == 2
        assert entry["sharded_layers"] == 0
        assert 0 <= entry["event_layers"] <= entry["layers"]

    def test_worker_passthrough_and_fixed_engine_none(self):
        engine = AutoEngine()
        engine.bind(converted_toy())
        worker = EngineWorker(engine, probe_shape=(2, 4, 4))
        try:
            assert worker.planner_snapshot() is not None
        finally:
            worker.shutdown()
        fixed = make_engine("batched")
        fixed.bind(converted_toy())
        worker = EngineWorker(fixed, probe_shape=(2, 4, 4))
        try:
            assert worker.planner_snapshot() is None
        finally:
            worker.shutdown()
