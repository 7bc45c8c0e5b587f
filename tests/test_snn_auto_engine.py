"""Adaptive (auto) engine tests: calibration, plan caching, equivalence.

The auto engine runs the time-batched GEMM schedule while racing the
sparse kernels on the first run of each plan key (input kind, shape, T,
density bucket), then replays the cached per-layer plan unchanged.
Logits must match the dense reference within float summation-order
tolerance on every model family, calibration must happen exactly once
per key, and the per-layer profile (wall clock, density, chosen
backend) must be populated for downstream consumers (``profile_table``
/ BENCH_engines.json).
"""

import numpy as np
import pytest

from repro.snn import AutoEngine, SpikingNetwork, make_engine
from repro.snn.engines import ExecutionPlan, LayerDecision

from test_snn_engine import converted_pooled_toy, converted_resnet, converted_toy


def _dense_vs_auto(model_factory, x, timesteps, atol):
    dense = SpikingNetwork(model_factory(), timesteps=timesteps, engine="dense")
    auto = SpikingNetwork(model_factory(), timesteps=timesteps, engine="auto")
    ld = dense.forward(x)
    la_calibration = auto.forward(x)   # first run calibrates
    la_planned = auto.forward(x)       # second run executes the plan
    for la in (la_calibration, la_planned):
        assert np.allclose(ld, la, atol=atol)
        assert np.array_equal(ld.argmax(1), la.argmax(1))
    return dense, auto


class TestMakeAutoEngine:
    def test_names(self):
        assert isinstance(make_engine("auto"), AutoEngine)
        with pytest.raises(ValueError, match="auto"):
            make_engine("adaptive")  # the old alias is gone

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AutoEngine(density_threshold=0.0)
        with pytest.raises(ValueError):
            AutoEngine(margin=0.0)

    def test_profiling_cannot_be_disabled(self):
        # Calibration is the profile; the flag is forced on.
        assert AutoEngine(profile_layers=False).profile_layers is True


class TestEquivalence:
    """Auto logits match dense on every model family, both on the
    calibration run and on the planned runs that may reroute sparse
    layers through the event gather."""

    def test_if_toy(self):
        x = np.random.default_rng(50).normal(size=(6, 2, 4, 4)).astype(np.float32)
        _dense_vs_auto(lambda: converted_toy(), x, timesteps=6, atol=1e-4)

    def test_lif_toy(self):
        x = np.random.default_rng(51).normal(size=(5, 2, 4, 4)).astype(np.float32)
        _dense_vs_auto(
            lambda: converted_toy(neuron="lif"), x, timesteps=5, atol=1e-4
        )

    def test_pooled_chain(self):
        x = np.random.default_rng(52).normal(size=(4, 2, 8, 8)).astype(np.float32)
        _dense_vs_auto(lambda: converted_pooled_toy(), x, timesteps=4, atol=1e-4)

    def test_resnet_residual_graph(self):
        model = converted_resnet()
        x = np.random.default_rng(53).normal(size=(4, 3, 32, 32)).astype(np.float32)
        dense = SpikingNetwork(model, timesteps=4, engine="dense")
        ld = dense.forward(x)
        auto = SpikingNetwork(model, timesteps=4, engine="auto")
        for _ in range(2):  # calibration run, then planned run
            la = auto.forward(x)
            assert np.allclose(ld, la, atol=1e-3)
            assert np.array_equal(ld.argmax(1), la.argmax(1))
        assert auto.last_run_stats.spike_rates() == pytest.approx(
            dense.last_run_stats.spike_rates(), abs=1e-3
        )

    def test_per_step_matches_dense(self):
        x = np.random.default_rng(54).normal(size=(4, 2, 4, 4)).astype(np.float32)
        dense = SpikingNetwork(converted_toy(), timesteps=4, engine="dense")
        auto = SpikingNetwork(converted_toy(), timesteps=4, engine="auto")
        auto.forward_per_step(x, 5)  # calibrate the (shape, T=5) key
        steps_d = dense.forward_per_step(x, 5)
        steps_a = auto.forward_per_step(x, 5)
        assert len(steps_a) == 5
        for a, b in zip(steps_d, steps_a):
            assert np.allclose(a, b, atol=1e-4)


class TestPlanCache:
    def test_calibration_runs_once_per_key(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(60).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert engine.calibration_runs == 1
        net.forward(x)
        net.forward(x)  # same full input shape and T: same plan key
        assert engine.calibration_runs == 1

    def test_new_key_recalibrates(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(61).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        net.forward(x, timesteps=7)  # different T: a different plan
        # A different batch size moves the (T*N, ...) GEMM/gather
        # crossover, so it calibrates its own plan too.
        net.forward(x[:2])
        assert engine.calibration_runs == 3
        assert engine.plan_for(x.shape, 4) is not None
        assert engine.plan_for(x.shape, 7) is not None
        assert engine.plan_for(x[:2].shape, 4) is not None

    def test_plan_contents(self):
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(62).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        plan = engine.plan_for(x.shape, 4)
        assert isinstance(plan, ExecutionPlan)
        assert set(plan.decisions) == {"0", "4"}  # the conv and the linear
        for decision in plan.decisions.values():
            assert decision.backend in ("gemm", "event", "event-batched")
            assert 0.0 <= decision.density <= 1.0
            assert decision.gemm_seconds > 0.0
        # The frame conv sees the dense constant input: never event.
        assert plan.decisions["0"].backend == "gemm"

    def test_stats_record_chosen_backends(self):
        model = converted_pooled_toy()
        net = SpikingNetwork(model, timesteps=4, engine="auto")
        x = np.random.default_rng(63).normal(size=(4, 2, 8, 8)).astype(np.float32)
        net.forward(x)
        net.forward(x)
        stats = net.last_run_stats
        assert stats.engine == "auto"
        for layer in stats.layers:
            if layer.kind == "neuron":
                assert layer.backend == "stepped"
            else:
                assert layer.backend in ("gemm", "event", "event-batched")
        table = stats.profile_table()
        assert "backend" in table
        assert "gemm" in table


class TestProfile:
    def test_layer_wall_clock_and_density_populated(self):
        net = SpikingNetwork(converted_toy(), timesteps=4, engine="auto")
        x = np.random.default_rng(70).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stats = net.last_run_stats
        assert sum(l.wall_clock_seconds for l in stats.layers) > 0.0
        for layer in stats.layers:
            assert layer.wall_clock_seconds >= 0.0
            assert 0.0 <= layer.density <= 1.0
        # The first conv reads the dense analog frame.
        assert stats.layers[0].input_density > 0.9

    def test_profile_records_shape(self):
        net = SpikingNetwork(converted_toy(), timesteps=3, engine="auto")
        x = np.random.default_rng(71).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        records = net.last_run_stats.profile_records()
        assert [r["name"] for r in records] == ["0", "2", "4"]
        for row in records:
            assert set(row) == {
                "name", "kind", "backend", "wall_clock_ms", "density",
                "synaptic_ops",
            }

    def test_batched_engine_profile_can_be_disabled(self):
        from repro.snn import TimeBatchedEngine

        net = SpikingNetwork(
            converted_toy(), timesteps=3, engine=TimeBatchedEngine(profile_layers=False)
        )
        x = np.random.default_rng(72).normal(size=(2, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stats = net.last_run_stats
        assert all(l.wall_clock_seconds == 0.0 for l in stats.layers)
        assert all(l.input_size == 0 for l in stats.layers)
        # Op and spike accounting is unaffected by the profiler switch.
        assert stats.total_synaptic_ops > 0
        assert stats.spike_rates()


class TestSharding:
    def test_auto_with_thread_workers(self):
        model = converted_toy()
        net = SpikingNetwork(model, timesteps=4, engine="auto")
        x = np.random.default_rng(80).normal(size=(6, 2, 4, 4)).astype(np.float32)
        single = net.forward(x)
        threaded = net.forward(x, workers=2, shard_mode="thread")
        assert np.allclose(single, threaded, atol=1e-5)
        assert net.last_run_stats.shard_mode == "thread"

    def test_auto_with_fork_workers(self):
        model = converted_toy()
        net = SpikingNetwork(model, timesteps=4, engine="auto")
        x = np.random.default_rng(81).normal(size=(6, 2, 4, 4)).astype(np.float32)
        single = net.forward(x)
        forked = net.forward(x, workers=2, shard_mode="auto")
        assert np.allclose(single, forked, atol=1e-5)

    def test_sharded_calibration_populates_parent_plan_cache(self):
        """Plans compiled inside shard workers must survive into the
        parent engine's cache (fork children are throwaway processes),
        so the next sharded inference skips calibration."""
        model = converted_toy()
        engine = AutoEngine()
        net = SpikingNetwork(model, timesteps=4, engine=engine)
        x = np.random.default_rng(82).normal(size=(6, 2, 4, 4)).astype(np.float32)
        net.forward(x, workers=2)  # two (3, 2, 4, 4) shards
        assert engine.plan_for((3, 2, 4, 4), 4) is not None


class TestPlanPersistence:
    """ExecutionPlan JSON round-trips and AutoEngine(plan_path=...)
    persists compiled plans beside model checkpoints."""

    def test_plan_json_round_trip(self):
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(92).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        plan = engine.plan_for(x.shape, 4)
        back = ExecutionPlan.from_json(plan.to_json())
        assert back.key == plan.key
        assert set(back.decisions) == set(plan.decisions)
        for name, decision in plan.decisions.items():
            restored = back.decisions[name]
            assert restored.backend == decision.backend
            assert restored.density == pytest.approx(decision.density)
            assert restored.gemm_seconds == pytest.approx(decision.gemm_seconds)

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ExecutionPlan.from_json('{"format": "something-else"}')

    def test_plan_path_round_trip_across_engines(self, tmp_path):
        path = str(tmp_path / "plans.json")
        first = AutoEngine(plan_path=path)
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=first)
        x = np.random.default_rng(93).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert first.calibration_runs == 1

        # A fresh process (modelled by a fresh engine) loads the plan
        # and skips calibration entirely.
        second = AutoEngine(plan_path=path)
        assert second.plan_for(x.shape, 4) is not None
        net2 = SpikingNetwork(converted_toy(), timesteps=4, engine=second)
        net2.forward(x)
        assert second.calibration_runs == 0

    def test_missing_plan_file_is_fine(self, tmp_path):
        engine = AutoEngine(plan_path=str(tmp_path / "absent.json"))
        assert len(engine._plans) == 0

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            AutoEngine().save_plans()

    def test_corrupt_plan_file_falls_back_to_recalibration(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write('{"format": "repro-execution-plans/v1", "plans": [{"tru')
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("unreadable plan file" in r.getMessage() for r in caplog.records)
        # The engine still works: it calibrates and atomically rewrites
        # the bad file with a valid document.
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(94).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        assert engine.calibration_runs == 1
        import json as _json
        rewritten = _json.loads(open(path).read())
        assert rewritten["format"] == "repro-execution-plans/v1"
        assert rewritten["plans"]

    def test_schema_mismatched_plan_file_is_ignored(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write('{"format": "repro-execution-plans/v99", "plans": []}')
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("does not match" in r.getMessage() for r in caplog.records)

    def test_malformed_plan_entries_are_ignored(self, tmp_path, caplog):
        path = str(tmp_path / "plans.json")
        with open(path, "w") as handle:
            handle.write(
                '{"format": "repro-execution-plans/v1", "plans": [{"bogus": 1}]}'
            )
        with caplog.at_level("WARNING", logger="repro.snn.engines.auto"):
            engine = AutoEngine(plan_path=path)
        assert len(engine._plans) == 0
        assert any("malformed plan entries" in r.getMessage() for r in caplog.records)

    def test_explicit_load_of_missing_file_still_raises(self, tmp_path):
        engine = AutoEngine()
        with pytest.raises(FileNotFoundError):
            engine.load_plans(str(tmp_path / "absent.json"))


class TestDensityBucketPlanKeys:
    """Plan keys carry a coarse input-density bucket: a plan calibrated
    on mid-density frames must not be silently reused for a very sparse
    stream of the same shape — the kernel crossover moves with density."""

    @staticmethod
    def _stream(shape, timesteps, p, seed):
        from repro.snn.spikes import SpikeStream

        rng = np.random.default_rng(seed)
        dense = (rng.random((timesteps,) + shape) < p).astype(np.float32)
        return SpikeStream.from_dense(dense, binary=True)

    def test_bucket_function_edges(self):
        from repro.snn.engines import DENSITY_BUCKET_EDGES, density_bucket

        assert density_bucket(0.0) == 0
        assert density_bucket(1.0) == len(DENSITY_BUCKET_EDGES)
        previous = -1
        for edge in DENSITY_BUCKET_EDGES:
            below, at = density_bucket(edge * 0.99), density_bucket(edge)
            assert below == at  # the edge closes its bucket...
            assert density_bucket(edge * 1.01) == at + 1  # ...not the next
            assert at > previous
            previous = at

    def test_same_shape_different_density_get_separate_plans(self):
        from repro.snn.engines import density_bucket

        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        shape = (4, 2, 4, 4)
        sparse = self._stream(shape, 4, p=0.02, seed=70)
        dense_stream = self._stream(shape, 4, p=0.9, seed=71)
        assert density_bucket(sparse.density) != density_bucket(
            dense_stream.density
        )
        net.forward(sparse)
        net.forward(dense_stream)
        # Same (kind, shape, T) prefix, different buckets: two plans.
        assert engine.calibration_runs == 2
        for stream in (sparse, dense_stream):
            plan = engine.plan_for(
                shape, 4, kind="stream",
                density_bucket=density_bucket(stream.density),
            )
            assert plan is not None

    def test_calibration_races_coo_backend(self):
        """Calibration on a sparse stream times the COO row-subset path
        alongside gemm/event, recording coo_seconds in the decision."""
        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        stream = self._stream((4, 2, 4, 4), 4, p=0.02, seed=74)
        net.forward(stream)
        plan = engine.plan_for((4, 2, 4, 4), 4, kind="stream")
        raced = [
            d for d in plan.decisions.values() if d.coo_seconds is not None
        ]
        assert raced, "no synapse decision raced the COO backend"


class TestStreamPlanKeys:
    def test_stream_and_dense_inputs_calibrate_separate_plans(self):
        from repro.data import rate_encode_stream

        engine = AutoEngine()
        net = SpikingNetwork(converted_toy(), timesteps=4, engine=engine)
        x = np.random.default_rng(94).normal(size=(4, 2, 4, 4)).astype(np.float32)
        net.forward(x)
        stream = rate_encode_stream(x, 4, rng=np.random.default_rng(95))
        net.forward(stream)
        # Same plane shape and T, but frame and event inputs present
        # very different densities: two separate plans.
        assert engine.calibration_runs == 2
        assert engine.plan_for(x.shape, 4, kind="dense") is not None
        assert engine.plan_for(x.shape, 4, kind="stream") is not None


@pytest.fixture(scope="module")
def trained_toy_vgg():
    """VGG-11 at width 0.125, trained one epoch on synthetic CIFAR and
    converted, plus 64 distinct test frames — the frame-at-a-time
    workload whose deeper layers' spike densities vary frame to frame."""
    from repro.data import SyntheticCIFAR
    from repro.pipeline import build_quantized_twin
    from repro.pipeline.trainer import TrainConfig, Trainer
    from repro.snn import convert_to_snn

    data = SyntheticCIFAR(num_train=128, num_test=64, noise=0.8, seed=3)
    model = build_quantized_twin(
        "vgg11", width=0.125, num_classes=10, levels=2, seed=0
    )
    Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(data.train_x, data.train_y)
    return convert_to_snn(model), data.test_x


class TestOneRacePerKey:
    def test_varied_frames_replay_the_one_raced_plan(self, trained_toy_vgg):
        """Frames whose per-layer densities wander never re-plan, evict
        or recalibrate: one race, one cached plan, replayed unchanged,
        with logits bitwise equal to the batched engine on every run."""
        model, frames = trained_toy_vgg
        assert len({frame.tobytes() for frame in frames}) == len(frames) >= 64
        engine = AutoEngine()
        auto = SpikingNetwork(model, timesteps=8, engine=engine)
        batched = SpikingNetwork(model, timesteps=8, engine="batched")
        raced = None
        for frame in frames:
            x = frame[np.newaxis]
            logits = auto.forward(x)
            assert auto.last_run_stats.plan_source == "raced"
            snapshot = engine.planner_snapshot()
            assert snapshot["calibration_runs"] == 1
            assert len(snapshot["plans"]) == 1
            plan = engine.plan_for(x.shape, 8).to_json()
            raced = plan if raced is None else raced
            assert plan == raced
            assert np.array_equal(logits, batched.forward(x))


@pytest.fixture(scope="module")
def converted_dvs():
    """A BN-warmed two-conv front end on 32x32x2 synthetic DVS events,
    and a batch-4 COO test stream at well under 1% density."""
    from repro import nn
    from repro.data.events import SyntheticDVS
    from repro.snn import convert_to_snn
    from repro.tensor import Tensor, no_grad

    side = 32
    rng = np.random.default_rng(7)
    model = nn.Sequential(
        nn.Conv2d(2, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.AvgPool2d(4),
        nn.Flatten(),
        nn.Linear(16 * (side // 8) ** 2, 4, rng=rng),
    )
    dvs = SyntheticDVS(num_train=8, num_test=4, height=side, width=side,
                       timesteps=8, noise_rate=0.002, seed=3)
    frames = dvs.spike_stream("train")[0].to_dense(np.float32)
    warm = frames.reshape((-1,) + frames.shape[2:])
    model.train()
    with no_grad():
        for start in range(0, len(warm), 32):
            model(Tensor(warm[start : start + 32]))
    model.eval()
    return convert_to_snn(model), dvs.spike_stream("test")[0]


class TestEventLayers:
    def test_event_layers_counts_every_sparse_backend(self):
        plan = ExecutionPlan(key=("stream", (4, 2, 8, 8), 8, 1))
        for name, backend in (("a", "gemm"), ("b", "event"), ("c", "event-batched")):
            plan.decisions[name] = LayerDecision(
                name=name, backend=backend, density=0.01, gemm_seconds=1.0
            )
        assert plan.event_layers == 2

    def test_dvs_snapshot_reports_event_batched_layers(self, converted_dvs):
        model, stream = converted_dvs
        assert stream.density < 0.01
        engine = AutoEngine()
        auto = SpikingNetwork(model, timesteps=8, engine=engine)
        auto.forward(stream)  # races
        logits = auto.forward(stream)  # replays
        backends = [
            layer.backend for layer in auto.last_run_stats.layers
            if layer.kind != "neuron"
        ]
        (entry,) = engine.planner_snapshot()["plans"]
        assert entry["input_kind"] == "stream"
        assert entry["event_layers"] == sum(b != "gemm" for b in backends)
        if "event-batched" in backends:
            assert entry["event_layers"] >= 1
        if "event" not in backends:
            # The per-plane gather is only summation-order equal; every
            # other kernel is bitwise the batched GEMM.
            batched = SpikingNetwork(model, timesteps=8, engine="batched")
            assert np.array_equal(logits, batched.forward(stream))
