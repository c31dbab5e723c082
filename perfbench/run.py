"""Run the SOR benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

From the repository root. The program is imported from ``src/``. The run
prints report lines, then one JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload
all`` runs every workload, each in a fresh interpreter. Exits 1 when an
output check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve", "fieldtest", "rank", "fleet")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if child.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {child.returncode} without a result", file=sys.stderr)
            return 1
        outcome = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and outcome["correct"]
        combined["attempted"] += outcome["attempted"]
        combined["failed"] += outcome["failed"]
        for metric, value in outcome["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload (or all), print the result."""
    args = _arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import engine, layers
    from perfbench.workloads import WORKLOADS

    scratch = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print(f"workload {workload.name}, seed {args.seed}, digest {workload.digest()}")
        started = time.perf_counter()
        warm = engine.warm_up(workload)
        print(f"warm-up {time.perf_counter() - started:.3f} s")
        if args.trace:
            trace_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
            metrics, measurement, lines = engine.traced(workload, args.seconds, trace_path)
            units = layers.PER_LAYER_UNITS
        else:
            measurement = engine.measure(workload, args.seconds)
            metrics, lines = engine.end_to_end(measurement)
            units = engine.E2E_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measurement.problems[:0] = [f"warm-up: {problem}" for problem in warm.problems]
    for line in lines:
        print(line)
    attempted, failed = measurement.attempted, measurement.failed
    print(f"failed_ratio {failed / max(attempted, 1):g} ({failed} of {attempted} requests)")
    for problem in dict.fromkeys(measurement.problems):
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(engine.result(measurement, metrics, units)))
    return 0 if not measurement.problems else 1


if __name__ == "__main__":
    sys.exit(main())
