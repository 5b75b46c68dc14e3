"""One benchmark worker process: set-up timing or a closed-loop run.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1 --out DIR

Both print one JSON object as their last line.  ctrlgap is imported inside
the functions, so that ``setup`` times the import itself.  ``perfbench/run.py``
starts these processes with BLAS pinned to one thread; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-layer totals that only serve as denominators.
_COORD_ITERS = ("gapsolve.coord_iters", "project.coord_iters")


def setup(ops) -> dict:
    """Reference seconds to import ctrlgap and transcribe every grid of the
    workload; the calibration kernel runs after the timed part."""
    start = time.perf_counter()
    from ctrlgap import build_affine, builtin_instance

    for system, nodes in workloads.grids(ops):
        inst = builtin_instance(system)
        build_affine(inst.system, inst.system.grid(nodes), inst.boundary)
    wall = time.perf_counter() - start
    cal = Calibrator()
    kernel = statistics.median(cal.kernel() for _ in range(3))
    return {"setup_s": wall * cal.factor(kernel), "wall_s": wall, "kernel_s": kernel}


def _run_op(cli, op, argv, tracer: Optional[Tracer]):
    """Run one CLI invocation with its console output captured; returns
    (exit code or None if it raised, wall seconds, per-layer totals or None,
    console output)."""
    sink = io.StringIO()
    layers = None
    wrapped = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with wrapped, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.operation(op.name) as root:
                    code = cli.run(argv)
        except Exception:  # the benchmark keeps running and reports the failure
            code = None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    if tracer is not None:
        layers = tracer.layers(root)
    return code, seconds, layers, sink.getvalue()


def _verdict(op, code, seconds: float, budget: float, summary: Optional[dict],
             gap_summary: Optional[dict], refs: dict, console: str) -> Optional[str]:
    """Why the operation failed, or None if it passed."""
    if code != 0 or summary is None:
        return f"exit code {code}: {console.strip()[-500:]}"
    if seconds > budget:
        return f"took {seconds:.1f} s, over the run's {budget:g} s budget"
    if op.source is not None and gap_summary is None:
        return "the gap run it reads failed"
    return workloads.check(op, summary, refs, gap_summary)


def measure(ops, seconds: float, seed: int, trace: bool, out_root: Path,
            refs: dict, budget: float) -> dict:
    """Run the workload's operations back to back for ``seconds``.

    One client, no concurrency.  Each pass runs every operation once, in an
    order drawn from ``seed``; the first pass (the first two when tracing)
    always completes.  With ``trace`` the passes alternate between untraced
    and traced, so the two can be compared within one run.  An operation
    fails if it exits non-zero, takes longer than ``budget`` wall seconds or
    misses its reference.  Timings are kept in reference seconds
    (calibrate.py).
    """
    from ctrlgap import cli

    rng = random.Random(seed)
    groups = workloads.units(ops)
    tracer = Tracer() if trace else None
    runs = {op.name: {"seconds": [], "traced": [], "passed": 0, "layers": []} for op in ops}
    sequence = []  # (operation, wall seconds) in the order run; kernels[i + 1] follows step i
    cal = Calibrator()
    attempted = failed = 0
    read_later = {op.source for op in ops}
    # gap operation -> (its output directory, its summary if it passed)
    latest: dict[str, tuple[Path, Optional[dict]]] = {}
    min_passes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    passes = 0
    out_root.mkdir(parents=True, exist_ok=True)
    kernels = [cal.kernel()]
    while passes < min_passes or time.perf_counter() < deadline:
        traced = trace and passes % 2 == 1
        rng.shuffle(groups)
        for op in (op for group in groups for op in group for _ in range(op.repeat)):
            if passes >= min_passes and time.perf_counter() >= deadline:
                break
            out_dir = out_root / f"{attempted:05d}"
            traj = None
            gap_summary = None
            if op.source is not None:
                source_dir, gap_summary = latest[op.source]
                traj = str(source_dir / "trajectory.csv")
            code, dt, layers, console = _run_op(
                cli, op, op.argv(str(out_dir), traj), tracer if traced else None)
            kernels.append(cal.kernel())
            scale = cal.factor(0.5 * (kernels[-2] + kernels[-1]))
            attempted += 1
            summary_path = out_dir / "summary.json"
            summary = json.loads(summary_path.read_text()) if summary_path.is_file() else None
            reason = _verdict(op, code, dt, budget, summary, gap_summary, refs, console)
            record = runs[op.name]
            (record["traced"] if traced else record["seconds"]).append(dt * scale)
            sequence.append((op.name, dt))
            if layers is not None:
                layers = {name: value * scale if name.endswith("_s") else value
                          for name, value in layers.items()}
                layers["cli.bytes_written"] = sum(
                    f.stat().st_size for f in out_dir.iterdir()) if out_dir.is_dir() else 0
                record["layers"].append(layers)
            if reason is None:
                record["passed"] += 1
            else:
                failed += 1
                print(f"{op.name} failed: {reason}", file=sys.stderr)
            if op.name in read_later:
                if op.name in latest:
                    shutil.rmtree(latest[op.name][0], ignore_errors=True)
                latest[op.name] = (out_dir, summary if reason is None else None)
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
        passes += 1
    for out_dir, _ in latest.values():
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        with open(out_root / "spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    metrics = _layer_metrics(runs) if trace else _end_to_end_metrics(ops, runs)
    operations = {name: {key: record[key] for key in ("seconds", "traced", "passed")}
                  for name, record in runs.items()}
    return {"attempted": attempted, "failed": failed, "passes": passes, "metrics": metrics,
            "operations": operations, "sequence": sequence, "kernel_s": kernels,
            "environment": _environment()}


def _environment() -> dict:
    """What the timings depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _end_to_end_metrics(ops, runs) -> dict:
    """Seconds of one pass per kind of operation (each operation's median,
    summed over the workload's operations of that kind), answers per second
    of a pass, and the worker's peak resident memory."""
    kind_s = {kind: 0.0 for kind in workloads.KINDS}
    answers = 0.0
    for op in ops:
        durations = runs[op.name]["seconds"]
        kind_s[op.kind] += statistics.median(durations)
        answers += runs[op.name]["passed"] / len(durations)
    metrics = {f"{kind.replace('-', '_')}_s": value for kind, value in kind_s.items()}
    metrics["answers_per_s"] = answers / sum(kind_s.values())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _layer_metrics(runs) -> dict:
    """Per-layer totals of one traced pass (each operation's median, summed
    over operations), the derived rates, and the tracing overhead."""
    totals: dict[str, float] = {}
    overhead = 0.0
    critical_ops = 0
    for record in runs.values():
        names = {name for layers in record["layers"] for name in layers}
        for name in names:
            totals[name] = totals.get(name, 0.0) + statistics.median(
                [layers.get(name, 0.0) for layers in record["layers"]])
        critical_ops += any(layers.get("critical.probes") for layers in record["layers"])
        overhead += statistics.median(record["traced"]) - statistics.median(record["seconds"])
    metrics = {name: value for name, value in totals.items() if name not in _COORD_ITERS}
    metrics["critical.bracket_rel_width"] /= critical_ops
    metrics["gapsolve.ns_per_coord_iter"] = (
        1e9 * totals["gapsolve.solve_s"] / totals["gapsolve.coord_iters"])
    metrics["project.ns_per_coord_iter"] = (
        1e9 * totals["project.dykstra_s"] / totals["project.coord_iters"])
    metrics["trace.overhead_s"] = overhead
    return metrics


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--nodes", type=int, help="run every operation on this grid size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out/worker")
    args = parser.parse_args(argv)
    ops = workloads.WORKLOADS[args.workload]
    if args.nodes is not None:
        ops = workloads.at_nodes(ops, args.nodes)
    if args.mode == "setup":
        result = setup(ops)
    else:
        result = measure(ops, args.seconds, args.seed, bool(args.trace), Path(args.out),
                         workloads.load_references(), budget=args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
