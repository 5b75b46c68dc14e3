"""Fast checks of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {m["name"] for m in DECLARED[section]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_at_tiny_nodes(name, trace, tmp_path):
    ops = workloads.at_nodes(workloads.WORKLOADS[name], workloads.TINY_NODES)
    result = worker.measure(ops, 0.0, 1, trace, tmp_path, workloads.load_references(),
                            budget=60.0)
    assert result["failed"] == 0
    assert result["attempted"] == sum(op.repeat for op in ops) * (2 if trace else 1)
    expected = _names("per_layer") if trace else _names("end_to_end") - {"setup_s"}
    assert set(result["metrics"]) == expected
    assert all(v > 0 for k, v in result["metrics"].items() if k != "trace.overhead_s")
    if trace:
        # only the traced pass records spans, each under its operation's root
        spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").open()]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == sum(op.repeat for op in ops)
        assert all(s["name"].startswith("op.") for s in roots)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    result, record = run.run("fine_grid", 1, 3.0, trace, nodes=workloads.TINY_NODES)
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert record["environment"]["blas_threads"] == "1"


def test_perturbed_answer_is_counted_as_failed(tmp_path):
    refs = workloads.load_references()
    ops = workloads.at_nodes(workloads.WORKLOADS["fine_grid"], workloads.TINY_NODES)
    gap = next(op for op in ops if op.kind == "gap")
    analyze = next(op for op in ops if op.source == gap.name)
    key = workloads.reference_key("gap", gap.system, gap.nodes, gap.bound)
    perturbed = dict(refs, **{key: dict(refs[key], gap_norm=refs[key]["gap_norm"] * 1.001)})
    result = worker.measure(ops, 0.0, 1, False, tmp_path, perturbed, budget=60.0)
    # the gap misses its reference, and the analyses reading its output fail too
    assert result["failed"] == 1 + analyze.repeat
    assert result["metrics"]["answers_per_s"] > 0


@pytest.mark.parametrize("kind,field", [("gap", "gap_norm"), ("min-energy", "norm")])
def test_check_applies_the_relative_tolerance(kind, field):
    refs = workloads.load_references()
    op = next(op for op in workloads.WORKLOADS["near_critical"] if op.kind == kind)
    ref = refs[workloads.reference_key(kind, op.system, op.nodes, op.bound)][field]
    for factor, ok in ((1.0, True), (1.0 + 0.5 * workloads.ANSWER_RTOL, True),
                       (1.0 + 2.0 * workloads.ANSWER_RTOL, False)):
        summary = {field: ref * factor, "terminal_error": 0.0}
        assert (workloads.check(op, summary, refs) is None) == ok
    assert workloads.check(op, {field: ref, "terminal_error": 1e-3}, refs) is not None


def test_default_map_gap_on_machine_tool_fails_its_check():
    # gap_norm that `ctrlgap gap --system machine_tool --nodes 2000 --bound 1770`
    # (default map solver) prints at the commit that introduced the benchmark.
    op = workloads.Op("gap:machine_tool", "gap", "machine_tool", 2000, 1770.0)
    reason = workloads.check(op, {"gap_norm": 0.820722264, "terminal_error": 0.0},
                             workloads.load_references())
    assert reason is not None and "2.38e-03" in reason


def test_critical_bracket_must_contain_the_exact_bound():
    refs = workloads.load_references()
    op = next(op for op in workloads.WORKLOADS["near_critical"] if op.kind == "critical")
    a_c = refs[workloads.reference_key("critical", op.system, op.nodes, None)]["a_c"]
    assert workloads.check(op, {"bracket_lo": a_c * 0.9999, "bracket_hi": a_c * 1.0001},
                           refs) is None
    assert workloads.check(op, {"bracket_lo": a_c * 1.00001, "bracket_hi": a_c * 1.0001},
                           refs) is not None


def test_analyze_must_reproduce_the_gap_switch_times():
    op = workloads.WORKLOADS["fine_grid"][1]
    assert workloads.check(op, {"switch_times": [0.5]}, {}, {"switch_times": [0.5]}) is None
    assert workloads.check(op, {"switch_times": [0.5]}, {},
                           {"switch_times": [0.5000001]}) is not None


def test_references_cover_every_operation_at_both_sizes():
    refs = workloads.load_references()
    for ops in workloads.WORKLOADS.values():
        for op in ops + workloads.at_nodes(ops, workloads.TINY_NODES):
            if op.kind != "analyze":
                assert workloads.reference_key(op.kind, op.system, op.nodes, op.bound) in refs


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fine_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_analyze_follows_the_gap_it_reads(name):
    for group in workloads.units(workloads.WORKLOADS[name]):
        for op in group[1:]:
            assert op.source == group[0].name and group[0].kind == "gap"
