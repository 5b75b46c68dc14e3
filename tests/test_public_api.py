import importlib
import importlib.util
import sys
from pathlib import Path

import ctrlgap

# Names that once were public and have no caller on any answer path.
DELETED = ("project_box", "project_affine", "ltv_rank", "discrete_gramian")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
