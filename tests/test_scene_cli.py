"""Scene workbench commands: configs, reports, determinism, exit codes."""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvemvg import scene_cli as sc

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
    for bad in ("4..2", "0..2", "a..b", "1..2..3"):
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


def test_main_exit_one_on_shared_camera_center(tmp_path, capsys):
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    cfgp = tmp_path / "shared.json"
    cfgp.write_text(json.dumps({
        "cameras": [{"matrix": np.eye(3, 4).tolist()},
                    {"matrix": np.hstack([R, np.zeros((3, 1))]).tolist()}],
        "curves": ["conic"]}), encoding="utf-8")
    rc = sc.main(["kruppa-dim", "--config", str(cfgp)])
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


# The eight README command lines and their report digests; a change that
# moves any of them must say which and why.
README_DIGESTS = {
    "simulate --config simulate_demo.json":
        "7697a6ef227e450fff8d1d1a948ca4c2edee793b2c0b0de878a2b2fa1d8a83fe",
    "kruppa-check --config kruppa_trio.json --noise 1e-3":
        "8b8f336a43d89eef8cc5aef315d688a77c77f287e8eca083666cc1d33b552d6f",
    "kruppa-dim --config conic_pair.json":
        "0afff9257d2fd2247c2d81be07e125069ca3530050c3403586b53d5549b14f66",
    "reconstruct-points --config cubic_pair.json --planes 60":
        "a62b1fb7c1f1ee539cfc7ffe7c98e3403be610e37f0a338b173172fc55c76629",
    "reconstruct-dual --config dual_quartic.json":
        "9bacb58bdb4a083b3e4cd39154f8782d4e4edbfab5f53c48be8a120f6d5e972a",
    "reconstruct-chow --config chow_cubic.json":
        "3ca2549834a6e7ca8ccaeb8aa7306389e1dc6862a4976e2f24d7bba7132563d1",
    "classify-motion --config dynamics_mixed.json":
        "1aa3197dc233f6836dea5703f7fd7412170c0136730332f030ae101663e77ffc",
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
