import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrlgap

# Names that once were public and have no caller on any answer path.
DELETED = ("project_box", "project_affine", "ltv_rank", "discrete_gramian",
           "check_bang_bang", "BangBangReport", "make_ltv_system", "make_lti_system")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(ctrlgap.__file__).resolve().parent

# The public names, by the submodule that defines each.
API = {
    "analyze": ("SwitchingProfile", "extract_switchings"),
    "controllability": ("CtrbReport", "gramian_report", "kalman_rank"),
    "critical": ("CriticalResult", "DICriticalSolution", "critical_bound",
                 "di_critical_analytic"),
    "discretize": ("AffineData", "ControlTrajectory", "StateTrajectory", "build_affine",
                   "l2_norm", "simulate", "weighted_norm"),
    "errors": ("AnalyticCaseError", "BracketError", "ConfigError", "ConsistencyError",
               "CtrlGapError", "InfeasibleIntersectionError", "OracleSizeError",
               "SimulationOverflowError", "UncontrollableGridError"),
    "gapsolve": ("GapResult", "SolveOptions", "solve_gap"),
    "model": ("BUILTIN_NAMES", "BoundarySpec", "Bounds", "Grid", "LinearSystem",
              "ProblemInstance", "builtin_instance", "instance_from_config"),
    "oracle": ("brute_force_gap",),
    "project": ("ProjectionStats", "dykstra_min_energy"),
}


def run_fresh(code):
    """stdout of ``code`` in a new interpreter that compiles every module it
    imports, as a process without bytecode caches does"""
    path = [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120).stdout


def test_public_names_resolve_and_the_wrapped_layer_names_stay_importable(monkeypatch):
    for name in ctrlgap.__all__:
        assert hasattr(ctrlgap, name), name
    for name in DELETED:
        assert not hasattr(ctrlgap, name), name
        assert name not in ctrlgap.__all__
    # the benchmark harness replaces these functions by name to time each layer
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, names in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_all_17_records_are_named_tuples():
    # NamedTuple classes cost far less to build at import than frozen
    # dataclasses; AffineData, a subclass without __slots__, keeps its cached
    # QR in an instance __dict__
    from ctrlgap import analyze, critical
    records = [obj for obj in (getattr(ctrlgap, name) for name in ctrlgap.__all__)
               if isinstance(obj, type) and not issubclass(obj, Exception)]
    records += [analyze.ChannelSwitching, critical.Probe]
    assert len(records) == 17
    for record in records:
        assert issubclass(record, tuple) and hasattr(record, "_fields"), record
        assert not hasattr(record, "__dataclass_fields__"), record


def test_the_set_up_imports_do_not_load_dataclasses():
    out = run_fresh("import sys, numpy; before = 'dataclasses' in sys.modules; "
                    "from ctrlgap import build_affine, builtin_instance; "
                    "print(before, 'dataclasses' in sys.modules)")
    before, after = out.split()
    assert after == before


@pytest.mark.parametrize("statement, loaded", [
    ("import ctrlgap", set()),
    ("from ctrlgap import build_affine, builtin_instance",
     {"model", "errors", "controllability", "discretize"}),
    ("import ctrlgap; ctrlgap.exchange",  # a submodule that exports no public name
     {"exchange"}),
    ("import ctrlgap.cli", {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}),
])
def test_an_import_loads_only_the_submodules_its_names_need(statement, loaded):
    out = run_fresh(f"{statement}; import sys; "
                    "print(*sorted(m for m in sys.modules if m.startswith('ctrlgap.')))")
    assert set(out.split()) == {f"ctrlgap.{name}" for name in loaded}


def test_public_names_are_the_snapshot_and_are_their_submodules_objects():
    assert sorted(ctrlgap.__all__) == sorted(name for names in API.values() for name in names)
    for module_name, names in API.items():
        module = importlib.import_module(f"ctrlgap.{module_name}")
        assert getattr(ctrlgap, module_name) is module
        for name in names:
            assert getattr(ctrlgap, name) is getattr(module, name), name
    assert {"__all__", *ctrlgap.__all__} <= set(dir(ctrlgap))
    star = {}
    exec("from ctrlgap import *", star)
    for name in ctrlgap.__all__:
        assert star[name] is getattr(ctrlgap, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        ctrlgap.no_such_name
    for name in DELETED:
        assert name not in dir(ctrlgap)
        with pytest.raises(AttributeError):
            getattr(ctrlgap, name)


def test_first_access_from_four_threads_returns_the_submodules_objects():
    code = f"""
import importlib, sys, threading
import ctrlgap
API = {API!r}
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
seen = [None] * 4

def touch(k):
    barrier.wait()
    names = ctrlgap.__all__[10 * k:] + ctrlgap.__all__[:10 * k]  # each starts elsewhere
    seen[k] = {{name: getattr(ctrlgap, name) for name in names}}

threads = [threading.Thread(target=touch, args=(k,)) for k in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads) and all(seen)
for module_name, names in API.items():
    module = importlib.import_module("ctrlgap." + module_name)
    for name in names:
        assert all(objects[name] is getattr(module, name) for objects in seen), name
print("same")
"""
    assert run_fresh(code).split() == ["same"]
