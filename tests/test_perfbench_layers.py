"""The benchmark's traced run wraps library names it looks up by string."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict:
    # read the LAYERS literal without importing the benchmark package
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_name_resolves():
    layers = _layers()
    assert {"fit_nullspace", "numerical_rank", "whitening_map",
            "fit_vanishing_form"} <= set(layers["polycore"])
    for module, names in layers.items():
        mod = importlib.import_module(f"curvemvg.{module}")
        for name in names:
            obj = mod
            for part in name.split("."):
                assert hasattr(obj, part), f"curvemvg.{module}.{name} is gone"
                obj = getattr(obj, part)
            assert callable(obj)
