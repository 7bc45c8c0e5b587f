"""Engine workloads: ``frame-b1``, ``frame-b32`` and ``dvs-b8``.

A run measures in fresh processes (``EngineWorkload.processes``), one
after another.  Each is driven from its one thread and runs the program
itself:

1. set-up (timed; ``setup_s`` is the median over the processes): build,
   train and convert the model, then warm the ``auto`` engine up until
   its planner is steady (see :func:`warm_up`);
2. reference outputs from the ``batched`` engine on the same inputs
   (outside every timed region);
3. a closed loop for its share of ``--seconds``: one caller, back-to-back
   calls cycling through the inputs.  ``latency_p50_ms`` is the mean of
   the processes' p50s.

Every output is compared bitwise with the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from common import (
    SETUP_REPEATS,
    Tally,
    median,
    metric,
    peak_rss_mb,
    percentiles_ms,
)
from tracing import SpanRecorder

SRC = Path(__file__).resolve().parent.parent / "src"
TIMESTEPS = 8
#: Time a measuring process may take beyond its share of ``--seconds``
#: (set-up, warm-up and reference outputs).
CHILD_TIMEOUT_S = 120.0
#: Calls per alternating untraced/traced block of a traced closed loop.
TRACE_BLOCK = 16
#: A warm-up is cut short (and the run fails) past this many passes.
MAX_WARMUP_PASSES = 8


# ----------------------------------------------------------------------
# Models (weights have fixed seeds; --seed only draws the inputs)
# ----------------------------------------------------------------------
def build_vgg():
    """VGG-11 w0.125, briefly trained on synthetic CIFAR, converted."""
    from repro.data import SyntheticCIFAR
    from repro.pipeline import build_quantized_twin
    from repro.pipeline.trainer import TrainConfig, Trainer
    from repro.snn import convert_to_snn

    data = SyntheticCIFAR(num_train=128, num_test=0, noise=0.8, seed=3)
    model = build_quantized_twin(
        "vgg11", width=0.125, num_classes=10, levels=2, seed=0
    )
    Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(data.train_x, data.train_y)
    return convert_to_snn(model)


DVS_SHAPE = (64, 64)
DVS_BATCH = 8


def build_dvs():
    """The 64x64x2 DVS front end, BN-warmed on a fixed stream, converted."""
    from repro import nn
    from repro.data.events import SyntheticDVS
    from repro.snn import convert_to_snn
    from repro.tensor import Tensor, no_grad

    height, width = DVS_SHAPE
    rng = np.random.default_rng(7)
    model = nn.Sequential(
        nn.Conv2d(2, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(32),
        nn.QuantReLU(levels=2, init_step=2.0),
        nn.AvgPool2d(4),
        nn.Flatten(),
        nn.Linear(32 * (height // 16) * (width // 16), 4, rng=rng),
    )
    dvs = SyntheticDVS(num_train=16, num_test=0, height=height, width=width,
                       timesteps=TIMESTEPS, noise_rate=0.002, seed=3)
    frames = dvs.spike_stream("train")[0].to_dense(np.float32)
    warm = frames.reshape((-1,) + frames.shape[2:])
    model.train()
    with no_grad():
        for start in range(0, len(warm), 32):
            model(Tensor(warm[start : start + 32]))
    model.eval()
    return convert_to_snn(model)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def cifar_frames(seed: int, count: int) -> np.ndarray:
    from repro.data import SyntheticCIFAR

    return SyntheticCIFAR(num_train=0, num_test=count, noise=0.8, seed=seed).test_x


def frame_inputs(seed: int) -> list:
    frames = cifar_frames(seed, 192)
    return [frames[i : i + 1] for i in range(len(frames))]


def batch_inputs(seed: int) -> list:
    frames = cifar_frames(seed, 256)
    return [frames[i : i + 32] for i in range(0, len(frames), 32)]


def dvs_inputs(seed: int) -> list:
    from repro.data.events import SyntheticDVS

    batches = 8
    dvs = SyntheticDVS(num_train=0, num_test=DVS_BATCH * batches,
                       height=DVS_SHAPE[0], width=DVS_SHAPE[1],
                       timesteps=TIMESTEPS, noise_rate=0.002, seed=seed)
    stream = dvs.spike_stream("test")[0]
    return [stream[i * DVS_BATCH : (i + 1) * DVS_BATCH] for i in range(batches)]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineWorkload:
    build: Callable[[], object]
    inputs: Callable[[int], list]
    per_step: bool           # forward_per_step (True) or forward (False)
    samples_per_call: int
    #: Fresh processes a run measures in, one after another.
    processes: int = SETUP_REPEATS


WORKLOADS: Dict[str, EngineWorkload] = {
    "frame-b1": EngineWorkload(build_vgg, frame_inputs,
                               per_step=False, samples_per_call=1),
    "frame-b32": EngineWorkload(build_vgg, batch_inputs,
                                per_step=True, samples_per_call=32),
    # On dvs-b8 the planner's race picks one of two plans per process, at
    # ~35 and ~50 ms per batch on a busy box (21 and 28 on a quiet one):
    # nine processes keep a run's median from following a few draws.
    "dvs-b8": EngineWorkload(build_dvs, dvs_inputs,
                             per_step=False, samples_per_call=DVS_BATCH,
                             processes=9),
}


def call(network, spec: EngineWorkload, x):
    """One operation of the workload; returns its output as one array."""
    if spec.per_step:
        return np.stack(network.forward_per_step(x, workers=1))
    return network.forward(x, workers=1)


def planner_signature(engine) -> Tuple:
    """What changes while the planner is still learning: calibrations and
    the plan cache.  (Mid-run re-plans rewrite a cached plan's schedule
    on almost every varied frame without changing what is cached, so
    they are counted per run instead.)"""
    snap = engine.planner_snapshot()
    # Sorted: the snapshot lists plans in least-recently-used order.
    plans = tuple(sorted(
        (tuple(p["input_shape"]), p["density_bucket"], p["source"],
         p["event_layers"], p["sharded_layers"])
        for p in snap["plans"]
    ))
    return snap["calibration_runs"], plans


def warm_up(network, spec: EngineWorkload, inputs: list) -> dict:
    """Run passes over the inputs until a whole pass leaves the planner
    unchanged: no calibration, no new or changed plan.

    Returns the pass count, whether it became steady, and the wall clock
    of the calls during which a calibration happened.
    """
    engine = network.engine
    calibration_s = 0.0
    for passes in range(1, MAX_WARMUP_PASSES + 1):
        before = planner_signature(engine)
        for x in inputs:
            runs = engine.calibration_runs
            start = time.perf_counter()
            call(network, spec, x)
            if engine.calibration_runs != runs:
                calibration_s += time.perf_counter() - start
        if passes > 1 and planner_signature(engine) == before:
            return {"passes": passes, "steady": True,
                    "calibration_s": calibration_s}
    return {"passes": MAX_WARMUP_PASSES, "steady": False,
            "calibration_s": calibration_s}


def set_up(spec: EngineWorkload, inputs: list):
    """Build, train, convert and warm up once; returns (network, seconds, info)."""
    from repro.snn import SpikingNetwork

    start = time.perf_counter()
    model = spec.build()
    network = SpikingNetwork(model, timesteps=TIMESTEPS, engine="auto")
    info = warm_up(network, spec, inputs)
    return network, time.perf_counter() - start, info


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Set up and measure in fresh processes, one after another, each
    timing its share of ``seconds``; pool what they saw.

    Separate processes because the speed a process settles at is a draw:
    on dvs-b8, two processes of the same seed on an idle box measured
    38 and 58 ms per batch, while the networks inside one process agreed
    within 10%.  Pooling several draws keeps a few unlucky processes
    from deciding a run's figures.
    """
    processes = WORKLOADS[workload].processes
    parts = [
        measure_in_child(workload, seed, seconds / processes, trace, part, out_dir)
        for part in range(processes)
    ]

    tally = Tally()
    for part in parts:
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        tally.reasons += part["reasons"][: 10 - len(tally.reasons)]
    problems = [p for part in parts for p in part["problems"]]
    latencies = [t for part in parts for t in part["latencies"]]
    if not trace:
        metrics = {
            "setup_s": metric(median([p["setup_s"] for p in parts]), "s"),
            # A mean of the processes' p50s, not the p50 of their pooled
            # calls: on dvs-b8 each process's planner settles on one of
            # two plans, and a pooled p50 jumps to whichever plan most of
            # the processes drew.
            "latency_p50_ms": metric(
                float(np.mean([p["latency_ms"]["p50"] for p in parts])), "ms"),
            "peak_rss_mb": metric(median([p["peak_rss_mb"] for p in parts]), "MB"),
        }
    else:
        runs = [s for part in parts for s in part["spans"] if s["name"] == "engine.run"]
        traced = [t for part in parts for t in part["traced_latencies"]]
        calls = sum(p["calls"] for p in parts)
        metrics = engine_layer_metrics(runs)
        metrics.update({
            "planner.replans_per_run": metric(
                sum(p["replans"] for p in parts) / calls, "ratio"),
            "planner.calibrations_timed": metric(
                sum(p["calibrations_timed"] for p in parts), "count"),
            "planner.calibration_ms": metric(
                median([p["calibration_s"] for p in parts]) * 1e3, "ms"),
            "planner.event_layers": metric(
                median([r["attrs"]["event_layers"] for r in runs]), "count"),
            **not_served_metrics(),
            "trace.overhead_frac": metric(
                median(traced) / median(latencies) - 1.0, "ratio"),
            "trace.spans": metric(sum(len(p["spans"]) for p in parts), "count"),
        })
        with open(out_dir / f"trace-{workload}-seed{seed}.jsonl", "w") as handle:
            for part in parts:
                for span in part["spans"]:
                    handle.write(json.dumps({**span, "process": part["part"]}) + "\n")

    extra = {
        "latency_ms": percentiles_ms(latencies),
        "samples_per_call": WORKLOADS[workload].samples_per_call,
        "processes": [
            {k: v for k, v in part.items()
             if k not in ("latencies", "traced_latencies", "spans", "reasons")}
            for part in parts
        ],
    }
    return {"tally": tally, "metrics": metrics, "extra": extra,
            "problems": problems}


def measure_in_child(workload: str, seed: int, seconds: float, trace: bool,
                     part: int, out_dir: Path) -> dict:
    """Run :func:`measure` in a fresh Python process and wait for it to end.

    A plain child process rather than a ``multiprocessing`` pool: a
    spawn pool starts a resource tracker that outlives the run.
    """
    result_path = Path(out_dir) / f"part-{workload}-seed{seed}-{part}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # ``subprocess.run`` kills and reaps the child if this process is
    # interrupted or the child overruns its time.
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
         "--part", str(part), "--result", str(result_path)],
        env=env, stdout=sys.stderr, check=False,
        timeout=CHILD_TIMEOUT_S + seconds,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(
            f"{workload} measuring process {part} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            part: int) -> dict:
    """One process's share of a run: set up, compute references, then a
    closed loop of back-to-back calls for ``seconds``."""
    from repro.snn import SpikingNetwork

    spec = WORKLOADS[workload]
    inputs = spec.inputs(seed)
    network, setup_s, info = set_up(spec, inputs)
    engine = network.engine
    reference_net = SpikingNetwork(network.model, timesteps=TIMESTEPS,
                                   engine="batched")
    references = [call(reference_net, spec, x) for x in inputs]

    tally = Tally()
    recorder = SpanRecorder()
    latencies: List[float] = []
    traced_latencies: List[float] = []
    replans = calls = 0
    calibrations_before = engine.calibration_runs
    # Traced runs alternate untraced and traced blocks of calls so the
    # tracing overhead is measured under the same conditions.
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        traced = trace and (calls // TRACE_BLOCK) % 2 == 1
        if traced:
            recorder.install_engine()
        try:
            for _ in range(TRACE_BLOCK):
                index = calls % len(inputs)
                recorder.current_batch = calls
                start = time.perf_counter()
                out = call(network, spec, inputs[index])
                end = time.perf_counter()
                if traced:
                    recorder.add("network.forward", start, end, batch=calls)
                    traced_latencies.append(end - start)
                else:
                    latencies.append(end - start)
                tally.record(np.array_equal(out, references[index]),
                             f"call {calls}: output differs from the batched reference")
                replans += network.last_run_stats.plan_source == "re-planned"
                calls += 1
        finally:
            if traced:
                recorder.uninstall()
    calibrations_timed = engine.calibration_runs - calibrations_before

    problems = []
    if not info["steady"]:
        problems.append(f"planner not steady after {MAX_WARMUP_PASSES} warm-up passes")
    if calibrations_timed:
        problems.append(
            f"{calibrations_timed} planner calibration(s) inside the timed phase")
    return {
        "part": part,
        "setup_s": setup_s,
        "warm_up_passes": info["passes"],
        "calibration_s": info["calibration_s"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "problems": problems,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "spans": recorder.spans,
        "calls": calls,
        "replans": replans,
        "calibrations_timed": calibrations_timed,
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms": percentiles_ms(latencies),
        "backends": [layer.backend for layer in network.last_run_stats.layers
                     if layer.kind != "neuron"],
    }


def engine_layer_metrics(runs: List[dict]) -> dict:
    """Per-layer engine numbers from ``engine.run`` spans (medians per run)."""
    def per_run_ms(key):
        return median([r["attrs"][key] for r in runs]) * 1e3

    attributed = [
        (r["attrs"]["conv_s"] + r["attrs"]["linear_s"] + r["attrs"]["neuron_s"])
        / r["attrs"]["wall_s"]
        for r in runs
    ]
    spikes = sum(r["attrs"]["spikes"] for r in runs)
    steps = sum(r["attrs"]["neuron_steps"] for r in runs)
    ops = sum(r["attrs"]["synaptic_ops"] for r in runs)
    batch = sum(r["attrs"]["batch_size"] for r in runs)
    return {
        "engine.run_ms": metric(median([r["end"] - r["start"] for r in runs]) * 1e3, "ms"),
        "engine.layer_ms.conv": metric(per_run_ms("conv_s"), "ms"),
        "engine.layer_ms.neuron": metric(per_run_ms("neuron_s"), "ms"),
        "engine.layer_ms.linear": metric(per_run_ms("linear_s"), "ms"),
        "engine.unattributed_frac": metric(1.0 - median(attributed), "ratio"),
        "engine.synaptic_ops_per_sample": metric(ops / max(batch, 1), "count"),
        "engine.spike_rate": metric(spikes / max(steps, 1), "ratio"),
    }


def not_served_metrics() -> dict:
    """Serving-layer and load-generator metrics of a workload that never
    reaches the server: no time is spent and nothing is counted there."""
    return {
        name: metric(0.0, unit)
        for name, unit in (
            ("middleware.decode_ms", "ms"),
            ("worker.handoff_ms", "ms"),
            ("app.http_ms", "ms"),
            ("app.healthz_rtt_ms", "ms"),
            ("batcher.queue_ms", "ms"),
            ("batcher.batch_size_mean", "count"),
            ("batcher.shed", "count"),
            ("batcher.deadline_rejected", "count"),
            ("breaker.trips", "count"),
            ("worker.restarts", "count"),
            ("loadgen.lateness_p99_ms", "ms"),
            ("loadgen.backlog_end", "count"),
            ("load.heavy_p50_ms", "ms"),
            ("load.heavy_p90_ms", "ms"),
            ("load.max_rps_at_slo", "1/s"),
        )
    }


def main(argv=None) -> int:
    """Entry point of one measuring process (see :func:`measure_in_child`)."""
    parser = argparse.ArgumentParser(description=measure.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.part)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
