"""Shared pieces of the benchmark: statistics, the result line, the fingerprint.

Nothing here imports the program under test, so the correctness gate
and the statistics can be exercised without ``src/`` on the path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: Where runs leave their records and traces (ignored by git).
OUT_DIR = HERE / "out"

#: Repeated set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def percentiles_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p95/p99 of a sample of durations, in ms, with its size."""
    out = {f"p{q}": quantile(seconds, q / 100) * 1e3 for q in (50, 90, 95, 99)}
    out["n"] = len(seconds)
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def blas_threads() -> str:
    """The BLAS thread limit the environment sets ("unset" when none)."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name):
            return f"{name}={os.environ[name]}"
    return "unset"


def cpu_steal_and_total() -> List[int]:
    """Machine-wide CPU time stolen by the hypervisor, and all CPU time,
    in clock ticks since boot (from ``/proc/stat``)."""
    with open("/proc/stat") as handle:
        ticks = [int(v) for v in handle.readline().split()[1:]]
    return [ticks[7] if len(ticks) > 7 else 0, sum(ticks)]


def fingerprint() -> Dict[str, object]:
    """What a result must be compared alongside: the machine it ran on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_steal_and_total_ticks": cpu_steal_and_total(),
    }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    tally: Tally,
    metrics: Dict[str, Dict[str, object]],
    extra: Optional[dict] = None,
    problems: Iterable[str] = (),
) -> bool:
    """Write the run record and print the result as the last stdout line.

    ``problems`` are benchmark-level failures (an unsteady warm-up, a
    calibration inside the timed phase); any of them, or any failed
    operation, makes the result incorrect.  Returns ``correct``.
    """
    problems = list(problems)
    correct = tally.failed == 0 and tally.attempted > 0 and not problems
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "failure_reasons": tally.reasons,
        "problems": problems,
        "metrics": metrics,
        **(extra or {}),
    }
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, item in metrics.items():
        print(f"  {name:32s} {item['value']:>14.6g} {item['unit']}")
    print(f"  {'error_rate':32s} {tally.error_rate:>14.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  record: {path}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return correct
