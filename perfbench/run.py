"""Run one workload of the ctrlgap benchmark and print its metrics.

    python3 perfbench/run.py --workload fine_grid --seed 1 --seconds 25 --trace 0

Run from the repository root; ctrlgap is imported from ``src/``.  Each
operation is a ``ctrlgap.cli.run(argv)`` call inside one worker process,
with BLAS pinned to one thread.  With ``--trace 0`` the benchmark first
times set-up in fresh processes, then runs the workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics.
The last line of standard output is the result object; the line before it
records the seed and the environment.  Operation outputs and spans go to
``.perfbench_out/``.  Exits 1 if the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh processes whose set-up time is measured; the median is reported.
# One more runs first and is not counted: in a fresh checkout it compiles
# the bytecode, which a user pays once, not per invocation.
SETUP_SAMPLES = 5
# Every run must end within this many seconds.
RUN_LIMIT_S = 175.0
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        nodes: int | None = None) -> tuple[dict, dict]:
    """Returns (result object, record of the run)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    sizing = ["--workload", workload] + ([] if nodes is None else ["--nodes", str(nodes)])
    setup_samples = [] if trace else [
        _worker(["setup", *sizing], deadline - time.monotonic())
        for _ in range(1 + SETUP_SAMPLES)][1:]
    out = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    measured = _worker(["measure", *sizing, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(int(trace)), "--out", str(out)],
                       deadline - time.monotonic())
    metrics = measured["metrics"]
    if setup_samples:
        metrics["setup_s"] = statistics.median(sample["setup_s"] for sample in setup_samples)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json's {sorted(units)}")
    result = {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
              "failed": measured["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "nodes": nodes, "passes": measured["passes"],
              "environment": measured["environment"]}
    (out / "result.json").write_text(json.dumps(
        {**record, "setup_s": setup_samples, "operations": measured["operations"],
         "sequence": measured["sequence"], "kernel_s": measured["kernel_s"],
         "result": result}, indent=1) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctrlgap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctrlgap" / "__init__.py").is_file():
        print(f"error: no ctrlgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
