"""The benchmark's traced run wraps library names it looks up by string."""
import ast
import importlib
import importlib.util
import json
import shlex
import types
from pathlib import Path

from curvemvg import scene_cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


# the files the benchmark loads, and the planted-fault check that runs its checks
BENCH_FILES = ("run.py", "workloads.py", "checks.py", "cli_child.py", "tracer.py",
               "planted.py")


def _curvemvg_uses(path: Path) -> set[str]:
    # every dotted curvemvg name the file imports or reads through an import
    # alias, e.g. "curvemvg.kruppa.build_instance" for kp.build_instance
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "curvemvg":
                    bound[a.asname or "curvemvg"] = a.name if a.asname else "curvemvg"
                    uses.add(a.name)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "curvemvg"):
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                uses.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, cur = [], node
            while isinstance(cur, ast.Attribute):
                chain.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name) and cur.id in bound:
                uses.add(".".join([bound[cur.id], *reversed(chain)]))
    return uses


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            try:
                importlib.import_module(".".join(parts[:k]))
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_curvemvg_name_the_benchmark_reads_resolves():
    # a workload that calls a deleted name fails its operations instead of
    # failing an import, so each name is looked up here
    uses = set().union(*(_curvemvg_uses(TRACER.parent / f) for f in BENCH_FILES))
    assert {"curvemvg.kruppa.build_instance", "curvemvg.scene_cli.main",
            "curvemvg.curve_models.image_tangent"} <= uses
    assert sorted(u for u in uses if not _resolves(u)) == []


def _readme_command_lines() -> list[list[str]]:
    # the curvemvg lines of the README's command-line block, configs made absolute
    lines = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("curvemvg "):
            argv = shlex.split(line)[1:]
            if "--config" in argv:
                k = argv.index("--config") + 1
                argv[k] = str(ROOT / argv[k])
            lines.append(argv)
    return lines


def test_a_traced_run_of_every_readme_command_reads_its_results(tmp_path):
    # the benchmark's traced CLI child: each hook reads attributes of the
    # result it wraps, so a renamed attribute fails every traced operation
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    lines = _readme_command_lines()
    assert len(lines) == 8
    rec = tracer.SpanRecorder(keep_spans=0)
    try:
        rec.install()
        rec.enabled = True
        codes = [scene_cli.main([*argv, "--out", str(tmp_path / f"report{i}.json")])
                 for i, argv in enumerate(lines)]
    finally:
        rec.enabled = False
        rec.uninstall()
    assert codes == [0] * len(lines)
    metrics = [json.loads((tmp_path / f"report{i}.json").read_text(encoding="utf-8"))["metrics"]
               for i in range(len(lines))]
    kept = sum(m.get("planes_kept", 0) for m in metrics)
    skipped = sum(m.get("planes_skipped", 0) for m in metrics)
    assert kept > 0
    assert rec.counts["reconstruct.epipolar_sweep.kept"] == kept
    assert rec.counts["reconstruct.epipolar_sweep.planes"] == kept + skipped
    # every per-layer figure the benchmark reports is read off the totals
    assert set(rec.layer_metrics(len(lines))) == {
        name for name, _ in tracer.PER_LAYER if not name.startswith(("curvemvg.", "trace."))}
