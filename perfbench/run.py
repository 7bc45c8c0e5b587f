"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload frame-b1 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run it from the root of the repository.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The full record, with the
machine fingerprint, lands in ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

WORKLOADS = ("frame-b1", "frame-b32", "dvs-b8", "serve-demo")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names) + 2
    print("metric".ljust(width) + "".join(w.rjust(14) for w in WORKLOADS) + "  unit")
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join(
            f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS
        )
        print(name.ljust(width) + row + f"  {unit}")
    print("error_rate".ljust(width) + "".join(
        f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()
    ) + "  ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": item
            for w, r in results.items()
            for name, item in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _terminate(signum, frame):
    # Unwind through every ``finally`` so the processes this run started
    # are stopped and reaped before it exits.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the program's sources are missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    from common import OUT_DIR, emit, fingerprint

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    before = fingerprint()
    started = time.perf_counter()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; nproc {before['nproc']} "
          f"loadavg {before['loadavg'][0]:.2f} blas {before['blas_threads']}")
    if args.workload == "serve-demo":
        import serving

        result = serving.run(args.seed, args.seconds, bool(args.trace), OUT_DIR,
                             root=ROOT)
    else:
        import engines

        result = engines.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), OUT_DIR)
    after = fingerprint()
    extra = dict(result["extra"])
    (steal0, total0), (steal1, total1) = (before["cpu_steal_and_total_ticks"],
                                          after["cpu_steal_and_total_ticks"])
    extra["fingerprint"] = {
        **before,
        "loadavg_after": after["loadavg"],
        # Share of the machine's CPU time the hypervisor took during the run.
        "cpu_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
    }
    extra["run_wall_s"] = time.perf_counter() - started
    correct = emit(args.workload, args.seed, bool(args.trace), result["tally"],
                   result["metrics"], extra, result["problems"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
