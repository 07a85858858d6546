"""Scene workbench commands: configs, reports, determinism, exit codes."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvemvg import CurvemvgError
from curvemvg import kruppa as kp
from curvemvg import scene_cli as sc
from curvemvg.curve_models import CurveModelError
from curvemvg.dynamics import DynamicsError
from curvemvg.polycore import PolynomialError
from curvemvg.projective_cameras import GeometryError
from curvemvg.reconstruct import InsufficientViews, ReconstructionError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("payload,fragment", [
    ([], "root"),
    ({"seed": "x"}, "seed"),
    ({"seed": True}, "seed"),
    ({"noise_sigma": -0.1}, "noise_sigma"),
    ({"bogus": 1}, "unknown"),
    ({"cameras": 3}, "cameras"),
    ({"cameras": {"ring": -1}}, "ring"),
    ({"cameras": [{"matrix": [[1, 2], [3, 4]]}]}, "camera"),
    ({"curves": [{"preset": "lemniscate"}]}, "preset"),
    ({"curves": [{"coefficients": [[0] * 3] * 4}]}, "curve"),
    ({"dynamic_points": [{"preset": "conic", "n_cameras": 1}]}, "counts"),
    ({"dynamic_points": [{"preset": "helix"}]}, "preset"),
    ({"seed": -3}, "seed"),
    *[({"dynamic_points": [{"preset": "conic", key: bad}]}, f"dynamic_points[0].{key}")
      for key in ("n_cameras", "frames_per_camera") for bad in ("x", [1], None, 2.5)],
    ({"curves": [{"preset": "conic", "seed": [1]}]}, "curves[0].seed"),
    ({"curves": [{"preset": "conic", "seed": 2.7}]}, "curves[0].seed"),
    ({"cameras": {"ring": 2.0}}, "ring"),
    ({"curves": [{"coefficients": {"a": 1}}]}, "curves[0].coefficients"),
    ({"cameras": [{"matrix": [[float("nan")] * 4] * 3}]}, "non-finite"),
    ({"curves": [{"coefficients": [[1.0, float("inf")]] * 4}]}, "non-finite"),
])
def test_parse_config_rejects(payload, fragment):
    with pytest.raises(sc.ConfigError) as err:
        sc.parse_config(payload)
    assert fragment in str(err.value)


def test_parse_config_overrides():
    cfg = sc.parse_config({"seed": 3, "noise_sigma": 0.5},
                          seed_override=9, noise_override=0.0)
    assert cfg.seed == 9
    assert cfg.noise_sigma == 0.0


def test_load_config_errors(tmp_path):
    with pytest.raises(sc.ConfigError):
        sc.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(sc.ConfigError):
        sc.load_config(str(bad))


def test_parse_config_camera_forms():
    M = np.hstack([np.eye(3), np.array([[1.0], [0.5], [2.0]])])
    cfg = sc.parse_config({
        "seed": 1,
        "cameras": [
            {"matrix": M.tolist()},
            {"internal": np.diag([2.0, 2.0, 1.0]).tolist(),
             "external": M.tolist()},
            "random",
        ]})
    assert len(cfg.cameras) == 3
    # camera matrices are stored normalized; compare up to scale
    def same(A, B):
        a, b = A.ravel(), B.ravel()
        return abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)) > 1 - 1e-12
    assert same(cfg.cameras[0].M, M)
    assert same(cfg.cameras[1].M, np.diag([2.0, 2.0, 1.0]) @ M)


@pytest.mark.parametrize("command,config", [
    ("simulate", "simulate_demo.json"),
    ("kruppa-check", "kruppa_trio.json"),
    ("kruppa-dim", "conic_pair.json"),
    ("reconstruct-points", "cubic_pair.json"),
    ("reconstruct-dual", "dual_quartic.json"),
    ("reconstruct-chow", "chow_conic.json"),
    ("reconstruct-chow", "chow_cubic.json"),
    ("classify-motion", "dynamics_mixed.json"),
])
def test_commands_pass_on_bundled_configs(command, config):
    cfg = sc.load_config(str(CONFIGS / config))
    args = argparse.Namespace(planes=40) if command == "reconstruct-points" else None
    rep = sc.run(command, cfg, args)
    assert rep.failed_keys() == []
    assert rep.verdicts
    body = rep.body()
    assert body["command"] == command
    # every artifact row matches its declared columns
    for art in body["artifacts"].values():
        for row in art["rows"]:
            assert len(row) == len(art["columns"])


def test_consistency_tables_command():
    cfg = sc.parse_config({"seed": 0})
    args = argparse.Namespace(d="2..3", m="2..4")
    rep = sc.run("consistency-tables", cfg, args)
    assert rep.failed_keys() == []
    assert rep.metrics["rows"] == 6
    cols = rep.artifacts["consistency"]["columns"]
    row = rep.artifacts["consistency"]["rows"][0]
    named = dict(zip(cols, row))
    assert named["d"] == 2 and named["m"] == 2
    assert named["views_to_identify_dual"] == 3
    assert named["views_to_identify_chow"] == 5


def test_run_rejects_unknown_command():
    cfg = sc.parse_config({"seed": 0})
    with pytest.raises(sc.ConfigError):
        sc.run("frobnicate", cfg)


def test_report_determinism():
    path = str(CONFIGS / "conic_pair.json")
    reps = [sc.run("kruppa-dim", sc.load_config(path)) for _ in range(2)]
    assert reps[0].to_json() == reps[1].to_json()
    assert reps[0].digest == reps[1].digest
    # a different seed reseeds the scene and must change the digest
    other = sc.run("kruppa-dim", sc.load_config(path, seed_override=99))
    assert other.digest != reps[0].digest


def test_report_rejects_non_finite():
    rep = sc.Report(command="x", inputs_digest="0" * 64)
    rep.metrics["bad"] = float("nan")
    with pytest.raises(ValueError):
        rep.body()


def test_export_samples(tmp_path):
    cfg = sc.load_config(str(CONFIGS / "simulate_demo.json"))
    rep = sc.run("simulate", cfg)
    out = tmp_path / "csv"
    written = sc.export_samples(rep, str(out))
    assert sorted(Path(p).name for p in written) == [
        "cameras.csv", "curve_samples.csv", "detections.csv"]
    text = (out / "cameras.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "camera_index,row,c0,c1,c2,c3"
    # deterministic bytes across reruns
    rep2 = sc.run("simulate", sc.load_config(str(CONFIGS / "simulate_demo.json")))
    out2 = tmp_path / "csv2"
    sc.export_samples(rep2, str(out2))
    assert (out2 / "curve_samples.csv").read_bytes() == \
        (out / "curve_samples.csv").read_bytes()


def test_parse_range():
    assert sc._parse_range("2..4", "--d") == range(2, 5)
    assert sc._parse_range("3", "--d") == range(3, 4)
    for bad in ("4..2", "0..2", "1..2", "a..b", "1..2..3"):
        with pytest.raises(sc.ConfigError):
            sc._parse_range(bad, "--d")


def test_main_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = sc.main(["kruppa-dim", "--config", str(CONFIGS / "conic_pair.json"),
                  "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.startswith("ok: kruppa-dim digest ")
    body = json.loads(out.read_text(encoding="utf-8"))
    assert body["command"] == "kruppa-dim"
    assert body["digest"] == sc.run(
        "kruppa-dim", sc.load_config(str(CONFIGS / "conic_pair.json"))).digest


def test_main_builds_the_report_body_once(monkeypatch, capsys):
    # the printed report and the "ok" line's digest come from one body
    calls = []
    body = sc.Report.body
    monkeypatch.setattr(sc.Report, "body", lambda rep: calls.append(1) or body(rep))
    assert sc.main(["kruppa-dim", "--config", str(CONFIGS / "conic_pair.json")]) == 0
    out, err = capsys.readouterr()
    assert len(calls) == 1
    assert err == f"ok: kruppa-dim digest {json.loads(out)['digest'][:16]}\n"


def test_kruppa_check_builds_each_instance_once(monkeypatch):
    # the perturbed-F probes reuse the instances the residuals were read from
    built = []
    build = kp.build_instance
    monkeypatch.setattr(kp, "build_instance", lambda *a: built.append(1) or build(*a))
    cfg = sc.load_config(str(CONFIGS / "kruppa_trio.json"), noise_override=1e-3)
    rep = sc.run("kruppa-check", cfg)
    assert len(built) == len(cfg.curves) == 3
    assert "perturbation_detected" in rep.verdicts


@pytest.mark.parametrize("seed", [1045, 1077, 1094])
def test_kruppa_check_passes_at_zero_noise_on_the_epipolar_pencil(seed):
    # random probe lines read 1.4e-9 to 2.2e-9 at these seeds, over the 1e-9
    # gate; the pencil reads at most 6.9e-10 over seeds 1000..1099
    cfg = sc.load_config(str(CONFIGS / "kruppa_trio.json"), seed, 0.0)
    rep = sc.run("kruppa-check", cfg)
    assert rep.verdicts["constraints_vanish"], rep.metrics["constraint_norm_max"]


def test_kruppa_check_fails_detection_when_every_perturbed_probe_raises(monkeypatch):
    # the responses at the truth are read; every one away from it raises, so
    # no curve has a perturbed figure and nothing was detected (a clamp used
    # to record 1e6 and pass the verdict)
    truth = []
    build, respond = kp.build_instance, kp.detection_response
    monkeypatch.setattr(kp, "build_instance", lambda *a: truth.append(build(*a)) or truth[-1])

    def refuse_off_truth(inst):
        if any(inst is t for t in truth):
            return respond(inst)
        raise kp.KruppaError("no usable probe line found")

    monkeypatch.setattr(kp, "detection_response", refuse_off_truth)
    cfg = sc.load_config(str(CONFIGS / "kruppa_trio.json"), noise_override=1e-3)
    rep = sc.run("kruppa-check", cfg)
    assert rep.verdicts["constraints_vanish"]
    assert rep.verdicts["perturbation_detected"] is False
    assert not [k for k in rep.metrics if k.endswith("_perturbed_min")]
    assert len(rep.notes) == 3 * len(cfg.curves)
    assert all("perturbed probe: no usable probe line found" in n for n in rep.notes)


def test_main_exit_two_on_config_errors(tmp_path, capsys):
    assert sc.main(["simulate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}', encoding="utf-8")
    assert sc.main(["simulate", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_main_exit_one_on_failed_verdict(tmp_path, capsys):
    cfgp = tmp_path / "noisy.json"
    cfgp.write_text(json.dumps({"seed": 5, "noise_sigma": 0.3,
                                "dynamic_points": [{"preset": "cubic"}]}),
                    encoding="utf-8")
    rc = sc.main(["classify-motion", "--config", str(cfgp),
                  "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verdict failed: point0_classified_correctly" in captured.err


def _shared_center_config(tmp_path) -> Path:
    # two cameras with one center: no epipolar geometry
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    cfgp = tmp_path / "shared.json"
    cfgp.write_text(json.dumps({
        "cameras": [{"matrix": np.eye(3, 4).tolist()},
                    {"matrix": np.hstack([R, np.zeros((3, 1))]).tolist()}],
        "curves": ["conic"]}), encoding="utf-8")
    return cfgp


def test_main_exit_one_on_shared_camera_center(tmp_path, capsys):
    rc = sc.main(["kruppa-dim", "--config", str(_shared_center_config(tmp_path))])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: kruppa-dim: coincident camera centers admit "
                            "no epipolar geometry\n")


def test_main_exit_one_on_too_few_rays(tmp_path, capsys):
    cfgp = tmp_path / "few.json"
    cfgp.write_text(json.dumps({"dynamic_points": [
        {"preset": "static", "n_cameras": 2, "frames_per_camera": 3}]}),
        encoding="utf-8")
    rc = sc.main(["classify-motion", "--config", str(cfgp)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: classify-motion: need at least eight rays "
                            "to classify\n")


# the library's documented errors, all under the package's one root
LIBRARY_ERRORS = [PolynomialError, GeometryError, CurveModelError, kp.KruppaError,
                  ReconstructionError, InsufficientViews, DynamicsError]


def test_every_library_error_has_the_one_root():
    assert all(issubclass(err, CurvemvgError) for err in LIBRARY_ERRORS)
    assert not issubclass(sc.ConfigError, CurvemvgError)


@pytest.mark.parametrize("error", [*LIBRARY_ERRORS, sc.ConfigError])
def test_main_maps_the_error_root_to_one_and_a_config_error_to_two(error, monkeypatch,
                                                                   capsys):
    def unreachable(cfg, rng, rep, args):
        raise error("no such geometry")

    monkeypatch.setitem(sc._HANDLERS, "simulate", unreachable)
    code = sc.main(["simulate", "--config", str(CONFIGS / "simulate_demo.json")])
    out, err = capsys.readouterr()
    assert out == ""
    if error is sc.ConfigError:
        assert (code, err) == (2, "config error: no such geometry\n")
    else:
        assert (code, err) == (1, "error: simulate: no such geometry\n")


def test_cold_runs_exit_one_or_two_with_one_line(tmp_path):
    # a GeometryError and a ConfigError, each in a fresh interpreter: one
    # stderr line, no traceback
    shared = _shared_center_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}', encoding="utf-8")
    for config, code, line in [
            (shared, 1, "error: kruppa-dim: coincident camera centers admit no epipolar "
                        "geometry\n"),
            (bad, 2, "config error: unknown config keys: ['bogus']\n")]:
        proc = subprocess.run(
            [sys.executable, "-m", "curvemvg.scene_cli", "kruppa-dim", "--config", str(config)],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line)


def test_single_camera_dynamic_point_names_the_minimum():
    with pytest.raises(sc.ConfigError, match="n_cameras must be at least 2, got 1"):
        sc.parse_config({"dynamic_points": [{"preset": "line", "n_cameras": 1}]})
    with pytest.raises(sc.ConfigError, match="frames_per_camera must be positive, got 0"):
        sc.parse_config({"dynamic_points": [{"preset": "line", "frames_per_camera": 0}]})


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "curvemvg.scene_cli", "consistency-tables",
         "--d", "2..3", "--m", "2..3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["verdicts"]["table_consistent"] is True


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_main_exit_two_on_bad_noise(value, capsys):
    rc = sc.main(["kruppa-dim", "--config", str(CONFIGS / "conic_pair.json"),
                  "--noise", value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "noise" in captured.err


def test_main_exit_two_on_negative_seed(tmp_path, capsys):
    rc = sc.main(["kruppa-dim", "--config", str(CONFIGS / "conic_pair.json"),
                  "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "config error: seed must be a non-negative integer, got -1\n"
    cfgp = tmp_path / "neg.json"
    cfgp.write_text('{"seed": -3}', encoding="utf-8")
    assert sc.main(["simulate", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: seed must be a non-negative integer, got -3\n"


@pytest.mark.parametrize("flag,value", [("--d", "1..2"), ("--m", "1..3"), ("--m", "0..1")])
def test_main_exit_two_on_a_range_below_two(flag, value, capsys):
    # degrees and classes start at 2: a range reaching below is a bad flag
    rc = sc.main(["consistency-tables", flag, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"config error: {flag} range {value!r} must start at 2 or above\n"


@pytest.mark.parametrize("planes", ["0", "-3"])
def test_main_exit_two_on_planes_below_one(planes, capsys):
    rc = sc.main(["reconstruct-points", "--config", str(CONFIGS / "cubic_pair.json"),
                  "--planes", planes])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"config error: --planes must be at least 1, got {planes}\n"


def test_main_exit_two_on_nan_noise_in_config(tmp_path, capsys):
    cfgp = tmp_path / "nan.json"
    cfgp.write_text('{"seed": 1, "noise_sigma": NaN}', encoding="utf-8")
    assert sc.main(["simulate", "--config", str(cfgp)]) == 2
    assert "noise_sigma" in capsys.readouterr().err


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, curvemvg.scene_cli; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Run in a fresh interpreter: argv[1] is the command and argv[2] its config.
# Prints which library modules are loaded after the import and after the
# run, and whether numpy.ma and csv are loaded.
_LOADED = """
import json, os, sys
import numpy, numpy.random
ma_at_start = "numpy.ma" in sys.modules
from curvemvg import scene_cli

def lib():
    return sorted(m for m in sys.modules if m.startswith("curvemvg."))

after_import = lib()
code = scene_cli.main([sys.argv[1], "--config", sys.argv[2], "--out", os.devnull])
print(json.dumps({"code": code, "after_import": after_import, "after_run": lib(),
                  "ma_at_start": ma_at_start, "ma": "numpy.ma" in sys.modules,
                  "csv": "csv" in sys.modules}))
"""


def _loaded(command: str, config: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", _LOADED, command, str(CONFIGS / config)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_cold_command_loads_only_the_modules_it_uses():
    got = _loaded("kruppa-dim", "conic_pair.json")
    assert got["code"] == 0
    assert not {"curvemvg.kruppa", "curvemvg.reconstruct",
                "curvemvg.dynamics"} & set(got["after_import"])
    assert set(got["after_run"]) - set(got["after_import"]) == {"curvemvg.kruppa"}
    assert not got["csv"]


def test_classify_motion_leaves_numpy_ma_unloaded():
    got = _loaded("classify-motion", "dynamics_mixed.json")
    assert got["code"] == 0
    if got["ma_at_start"]:
        pytest.skip("importing numpy and numpy.random already loads numpy.ma here")
    assert not got["ma"]


# The eight README command lines and their report digests; a change that
# moves any of them must say which and why.
README_DIGESTS = {
    "simulate --config simulate_demo.json":
        "40c76a2dc831b5d43c0b20744e6e3a730643b1261cf78a5eab30a2a375949ab0",
    "kruppa-check --config kruppa_trio.json --noise 1e-3":
        "13d4d3e02634dabdaf9f102517a796973e98bcbafa69dc6d1f0b321583824587",
    "kruppa-dim --config conic_pair.json":
        "0afff9257d2fd2247c2d81be07e125069ca3530050c3403586b53d5549b14f66",
    "reconstruct-points --config cubic_pair.json --planes 60":
        "4033ca1ba5edb4f89545f096644a5a89671fab3f9b8a4c0299089e596f62382e",
    "reconstruct-dual --config dual_quartic.json":
        "5fe7360c8cebbfd519f341901a3be46b391b4059f828a4e6d205289ee7c958c8",
    "reconstruct-chow --config chow_cubic.json":
        "c84de0792e36918279d7df1029e9f1a1e34f481a7adab3f1bd6095375c32cd25",
    "classify-motion --config dynamics_mixed.json":
        "8734a290ce5fa567e96e84cf0913b08581647df3131f210e296e35f9b272a605",
    "consistency-tables --d 2..4 --m 2..8":
        "af110aec9b690a41b1bba7e358a172c5b1a46b6728106237b607e3b6a72474b3",
}


@pytest.mark.parametrize("line", sorted(README_DIGESTS))
def test_readme_command_digests_are_pinned(line):
    argv = line.split()
    if "--config" in argv:
        k = argv.index("--config") + 1
        argv[k] = str(CONFIGS / argv[k])
    args = sc._build_parser().parse_args(argv)
    if args.config is not None:
        cfg = sc.load_config(args.config, args.seed, args.noise)
    else:
        cfg = sc.parse_config({"seed": 0})
    rep = sc.run(args.command, cfg, args)
    assert rep.failed_keys() == []
    assert rep.digest == README_DIGESTS[line]


def _assert_digest_ignores_the_blas_thread_count(line, config):
    argv = line.replace(config, str(CONFIGS / config)).split()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "curvemvg.scene_cli", *argv,
                               "--out", os.devnull],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"ok: {argv[0]} digest {README_DIGESTS[line][:16]}\n"


def test_reconstruct_points_digest_ignores_the_blas_thread_count():
    # the sweep meets and checks every candidate in one batch, so no row may
    # take its bits from how BLAS splits that batch between threads
    _assert_digest_ignores_the_blas_thread_count(
        "reconstruct-points --config cubic_pair.json --planes 60", "cubic_pair.json")


def test_classify_motion_digest_ignores_the_blas_thread_count():
    # the fitted forms are scored on all held-out rays in one evaluation
    _assert_digest_ignores_the_blas_thread_count(
        "classify-motion --config dynamics_mixed.json", "dynamics_mixed.json")


def test_reconstruct_chow_digest_ignores_the_blas_thread_count():
    # the stacked Chow fit reads one whitened SVD of all the views' rays
    _assert_digest_ignores_the_blas_thread_count(
        "reconstruct-chow --config chow_cubic.json", "chow_cubic.json")


def test_kruppa_dim_digest_ignores_the_blas_thread_count():
    # the constraint Jacobian's rank is read from one SVD of its seven columns
    _assert_digest_ignores_the_blas_thread_count(
        "kruppa-dim --config conic_pair.json", "conic_pair.json")


def test_kruppa_check_digest_ignores_the_blas_thread_count():
    # the detection responses and the classical residuals of all three curves
    _assert_digest_ignores_the_blas_thread_count(
        "kruppa-check --config kruppa_trio.json --noise 1e-3", "kruppa_trio.json")


def test_simulate_digest_ignores_the_blas_thread_count():
    # each view's samples are projected and normalized row by row
    _assert_digest_ignores_the_blas_thread_count(
        "simulate --config simulate_demo.json", "simulate_demo.json")
