import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import ctrlgap

# Names that once were public and have no caller on any answer path.
DELETED = ("project_box", "project_affine", "ltv_rank", "discrete_gramian",
           "check_bang_bang", "BangBangReport")

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


def test_every_record_but_affine_data_is_a_named_tuple():
    # AffineData keeps its cached QR in an instance __dict__; the other
    # records are NamedTuples, whose classes cost far less to build at import
    # than frozen dataclasses
    records = [obj for obj in map(ctrlgap.__dict__.get, ctrlgap.__all__)
               if isinstance(obj, type) and not issubclass(obj, Exception)]
    records += [ctrlgap.analyze.ChannelSwitching, ctrlgap.critical.Probe]
    assert len(records) == 17
    for record in records:
        assert dataclasses.is_dataclass(record) == (record is ctrlgap.AffineData), record
        assert issubclass(record, tuple) != (record is ctrlgap.AffineData), record
