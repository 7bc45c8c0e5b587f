"""Process-parallel pool: bit-identity, failure recovery, shutdown.

Covers the pool-specific serving guarantees the single-worker suite
cannot: replica responses are bit-identical to an in-process engine run
(pickling is lossless and fork inherits the same plans), a replica's
death or hang re-queues work onto survivors while the pool keeps
answering, a replica rebuilt under a live server holds none of its
client connections, and shutdown closes the pool.  Also pins the
queue-proportional 429 ``Retry-After`` estimate the pool's ``capacity``
feeds into.
"""

import asyncio
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import nn
from repro.serve import (
    BatcherConfig,
    CircuitBreaker,
    DegradePolicy,
    EngineWorkerPool,
    MicroBatcher,
    ServeConfig,
    ServerHandle,
    ServiceEstimator,
    ServingMetrics,
    ShedError,
    build_demo_network,
    pool_start_method,
)
from repro.snn.engines import density_bucket, make_engine
from repro.snn.engines.service import WorkerTimeout

SHAPE = (2, 4, 4)
CLASSES = 5


def tiny_model(seed=0, shape=SHAPE):
    model, _ = build_demo_network(input_shape=shape, classes=CLASSES, seed=seed)
    return model


class FileStallLayer(nn.Module):
    """Pass-through that sleeps while a sentinel file exists.

    Both the switch *and the duration* live in the filesystem (the file
    holds the seconds), not process memory, so the parent can arm and
    re-tune stalls in replicas that forked long ago.
    """

    stall_file = ""

    def forward(self, x):
        path = type(self).stall_file
        if path and os.path.exists(path):
            try:
                with open(path) as handle:
                    seconds = float(handle.read().strip() or 0)
            except (OSError, ValueError):
                seconds = 0.0
            time.sleep(seconds)
        return x


@pytest.fixture
def stall(tmp_path):
    path = str(tmp_path / "stall")
    FileStallLayer.stall_file = path

    class Switch:
        def arm(self, seconds):
            with open(path, "w") as handle:
                handle.write(str(seconds))

        def disarm(self):
            if os.path.exists(path):
                os.remove(path)

    switch = Switch()
    yield switch
    switch.disarm()
    FileStallLayer.stall_file = ""


def make_pool(
    replicas=2, model=None, serve_timesteps=4, max_batch_size=4, shape=SHAPE
):
    engine = make_engine("dense").bind(model if model is not None else tiny_model())
    return EngineWorkerPool(
        engine,
        replicas=replicas,
        probe_shape=shape,
        serve_timesteps=serve_timesteps,
        max_batch_size=max_batch_size,
        spawn_spec="dense",
    )


# ----------------------------------------------------------------------
# Correctness: the pool is invisible in the numbers
# ----------------------------------------------------------------------
class TestPoolBitIdentity:
    @pytest.mark.parametrize(
        "batch, shape",
        # The second batch (786 KB) is larger than a pipe's buffer.
        [(3, SHAPE), (64, (3, 32, 32))],
        ids=["3x2x4x4", "64x3x32x32"],
    )
    def test_pool_results_bit_identical_to_inprocess_run(self, batch, shape):
        model = tiny_model(shape=shape)
        pool = make_pool(replicas=2, model=model, shape=shape)
        try:
            control_engine = make_engine("dense").bind(tiny_model(shape=shape))
            rng = np.random.default_rng(11)
            x = rng.normal(size=(batch,) + shape).astype(np.float32)
            control = control_engine.run(x, 4, per_step=True)

            run = pool.submit(x, 4, per_step=True).result(timeout=60)
            assert run.logits.dtype == control.logits.dtype
            np.testing.assert_array_equal(run.logits, control.logits)
            assert len(run.per_step) == 4
            for step, expect in zip(run.per_step, control.per_step):
                np.testing.assert_array_equal(step, expect)
        finally:
            pool.shutdown()

    def test_submissions_fan_out_and_all_complete(self):
        pool = make_pool(replicas=2)
        try:
            rng = np.random.default_rng(3)
            batches = [
                rng.normal(size=(2,) + SHAPE).astype(np.float32) for _ in range(8)
            ]
            futures = [pool.submit(x, 4) for x in batches]
            runs = [f.result(timeout=60) for f in futures]
            assert pool.runs_completed == 8
            assert all(r.logits.shape == (2, CLASSES) for r in runs)
            snap = pool.snapshot()
            assert snap["start_method"] == pool_start_method()
            assert sum(r["completed"] for r in snap["per_replica"]) == 8
            assert all(r["depth"] == 0 for r in snap["per_replica"])
        finally:
            pool.shutdown()


class TestPoolWarmUp:
    def test_parent_warms_every_batch_size_in_the_frame_bucket(self):
        engine = make_engine("auto").bind(tiny_model())
        pool = EngineWorkerPool(
            engine, replicas=1, probe_shape=SHAPE, serve_timesteps=4,
            max_batch_size=4, spawn_spec="auto",
        )
        try:
            plans = pool.planner_snapshot()["plans"]
        finally:
            pool.shutdown()
        frame = np.random.default_rng(0).normal(size=SHAPE)
        bucket = density_bucket(np.count_nonzero(frame) / frame.size)
        warmed = sorted(
            p["input_shape"][0] for p in plans
            if p["density_bucket"] == bucket and p["timesteps"] == 4
        )
        assert warmed == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Failure recovery: death and hang
# ----------------------------------------------------------------------
class TestPoolFailureRecovery:
    def test_replica_death_requeues_and_request_still_answers(self, stall):
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            # Long enough that the victim is still mid-run when killed,
            # even on a loaded box (the re-queued attempt re-reads the
            # stall file, so the total wait stays ~2x the stall).
            stall.arm(1.0)
            x = np.random.default_rng(5).normal(size=(2,) + SHAPE)
            future = pool.submit(x.astype(np.float32), 4)
            victim = next(r for r in pool._replicas if r.outstanding)
            os.kill(victim.process.pid, signal.SIGKILL)

            run = future.result(timeout=60)  # re-queued onto the survivor
            assert run.logits.shape == (2, CLASSES)
            deadline = time.monotonic() + 30
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.restarts == 1
            # The rebuilt replica serves again.
            stall.disarm()
            ok = pool.submit(x.astype(np.float32), 4).result(timeout=60)
            assert ok.logits.shape == (2, CLASSES)
            assert all(r.alive() for r in pool._replicas)
        finally:
            pool.shutdown()

    def test_late_answer_from_superseded_attempt_is_dropped(self, stall):
        """A replica that answered just before dying must not have its
        late message taken for the re-queued attempt's answer — the
        dispatch still belongs to the survivor's in-flight run."""
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            stall.arm(2.0)
            x = np.ones((2,) + SHAPE, dtype=np.float32)
            future = pool.submit(x, 4)
            victim = next(r for r in pool._replicas if r.outstanding)
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            with pool._lock:
                dispatch = next(iter(pool._dispatches.values()))
                assert dispatch.attempts == 2  # re-queued exactly once
                stale = {
                    "req": dispatch.rid,
                    "replica": victim.index,
                    "attempt": 1,
                    "ok": True,
                    "stats": {},
                }
            pool._handle_response(stale)
            assert not future.done()  # the stale answer resolved nothing
            run = future.result(timeout=60)  # the live attempt answers
            assert run.logits.shape == (2, CLASSES)
        finally:
            stall.disarm()
            pool.shutdown()

    def test_hang_timeout_rebuilds_only_the_wedged_replica(self, stall):
        pool = make_pool(replicas=2, model=nn.Sequential(FileStallLayer(), tiny_model()))
        try:
            x = np.zeros((1,) + SHAPE, dtype=np.float32)

            async def scenario():
                stall.arm(30.0)
                with pytest.raises(WorkerTimeout):
                    await pool.run_async(x, 2, timeout=0.5)
                stall.disarm()
                return await pool.run_async(x, 2, timeout=30.0)

            run = asyncio.run(scenario())
            assert run.logits.shape == (1, CLASSES)
            assert pool.restarts == 1
            snap = pool.snapshot()
            assert sum(r["restarts"] for r in snap["per_replica"]) == 1
        finally:
            pool.shutdown()


    def test_process_exits_after_a_replica_dies_with_a_batch_queued(
        self, tmp_path
    ):
        """A batch larger than a pipe's buffer, queued behind a running
        one when the replica dies, leaves that queue's feeder thread
        blocked for good; the parent must still exit rather than join
        it."""
        script = textwrap.dedent(
            """
            import os, signal, sys, time
            import numpy as np
            from repro import nn
            from repro.serve import EngineWorkerPool, build_demo_network
            from repro.snn.engines import make_engine

            STALL = sys.argv[1]

            class Stall(nn.Module):
                def forward(self, x):
                    if os.path.exists(STALL):
                        time.sleep(0.5)
                    return x

            core, shape = build_demo_network(input_shape=(3, 32, 32), classes=5)
            engine = make_engine("dense").bind(nn.Sequential(Stall(), core))
            pool = EngineWorkerPool(
                engine, replicas=1, probe_shape=shape, serve_timesteps=2,
                max_batch_size=1, spawn_spec="dense",
            )
            open(STALL, "w").close()
            x = np.zeros((64,) + shape, dtype=np.float32)  # 786 KB
            running, queued = pool.submit(x, 2), pool.submit(x, 2)
            time.sleep(0.3)
            os.kill(pool._replicas[0].pid, signal.SIGKILL)
            os.remove(STALL)
            running.result(60)
            queued.result(60)
            pool.shutdown()
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "stall")],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            timeout=90,
        )
        assert result.returncode == 0, result.stderr.decode()


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
class TestPoolShutdown:
    def test_shutdown_stops_every_replica_and_closes_the_pool(self):
        pool = make_pool(replicas=2)
        x = np.ones((2,) + SHAPE, dtype=np.float32)
        pool.submit(x, 4).result(timeout=60)
        processes = [r.process for r in pool._replicas]
        pool.shutdown()
        assert not any(p.is_alive() for p in processes)
        pool.shutdown()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(x, 4)


# ----------------------------------------------------------------------
# Retry-After scales with load (satellite: no more constant 429 hint)
# ----------------------------------------------------------------------
class StubCapacityWorker:
    def __init__(self, capacity=1):
        self.capacity = capacity
        self.restarts = 0
        self.shard_failures = 0
        self.last_degraded_mode = ""

    async def run_async(self, x, timesteps, per_step=False, timeout=None):
        await asyncio.sleep(3600)  # never completes: queue stays full


def retry_after_when_full(depth, capacity):
    async def scenario():
        worker = StubCapacityWorker(capacity=capacity)
        batcher = MicroBatcher(
            worker,
            CircuitBreaker(failure_threshold=100, reset_timeout=0.2),
            ServingMetrics(),
            DegradePolicy(full_timesteps=4, p99_budget_ms=None,
                          cooldown_seconds=0.0),
            config=BatcherConfig(
                max_batch_size=8,
                max_queue_depth=depth,
                hang_timeout_seconds=5.0,
                idle_tick_seconds=0.01,
            ),
            estimator=ServiceEstimator(initial_unit=1e-3, overhead=1e-2),
        )
        x = np.zeros((1, 2, 2, 2), dtype=np.float32)
        fillers = [
            asyncio.ensure_future(
                batcher.submit(x, timesteps=4, deadline_ms=3_600_000.0)
            )
            for _ in range(depth)
        ]
        await asyncio.sleep(0)  # let the fillers enqueue
        with pytest.raises(ShedError) as err:
            await batcher.submit(x, timesteps=4, deadline_ms=3_600_000.0)
        for task in fillers:
            task.cancel()
        await asyncio.gather(*fillers, return_exceptions=True)
        return err.value.retry_after

    return asyncio.run(scenario())


class TestRetryAfterScalesWithLoad:
    def test_deeper_queue_means_longer_retry_after(self):
        shallow = retry_after_when_full(depth=4, capacity=1)
        deep = retry_after_when_full(depth=16, capacity=1)
        assert shallow is not None and deep is not None
        assert deep > shallow

    def test_more_worker_capacity_means_shorter_retry_after(self):
        solo = retry_after_when_full(depth=16, capacity=1)
        pooled = retry_after_when_full(depth=16, capacity=4)
        assert pooled < solo


# ----------------------------------------------------------------------
# A rebuilt replica must not hold the server's sockets
# ----------------------------------------------------------------------
def _read_response(conn):
    """One HTTP response off a keep-alive connection, by Content-Length."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = conn.recv(65536)
        assert chunk, "connection closed before the response head"
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        body += conn.recv(65536)
    return head


class TestRebuiltReplicaInheritsNoSockets:
    def test_close_reaches_the_client_after_a_replica_rebuild(self):
        """A replica forked while the server is live inherits its open
        client connections; unless it drops them, closing a
        ``Connection: close`` response sends no FIN and a client that
        reads to EOF hangs."""
        core, shape = build_demo_network(input_shape=SHAPE, classes=CLASSES)
        handle = ServerHandle(
            core, shape,
            ServeConfig(port=0, engine="dense", timesteps=4, serve_workers=2),
        )
        pool = handle.server.worker
        try:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=5.0
            ) as conn:
                # A keep-alive round trip: the server has accepted the
                # connection before the replacement replica forks.
                conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert b" 200 " in _read_response(conn)

                os.kill(pool._replicas[0].pid, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and not (
                    pool.restarts == 1 and all(r.alive() for r in pool._replicas)
                ):
                    time.sleep(0.05)
                assert pool.restarts == 1
                assert all(r.alive() for r in pool._replicas)

                conn.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n\r\n"
                )
                raw = b""
                while True:  # EOF within the 5 s socket timeout
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
                assert b" 200 " in raw
        finally:
            handle.stop(timeout=60.0)
