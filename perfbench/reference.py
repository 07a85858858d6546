#!/usr/bin/env python3
"""Reference figures for perfbench/README.md.

Usage, from the root of a checkout:  python3 perfbench/reference.py

Prints, each as a median: the import time of curvemvg in a fresh
interpreter, the warm in-process ``scene_cli.run`` time and the cold CLI
time of each README command, and the scene / lift / classify times of one
motion trial per kind.  One BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from curvemvg import dynamics as dy  # noqa: E402
from curvemvg import scene_cli as cli  # noqa: E402
from curvemvg import scenes  # noqa: E402
from workloads import COMMANDS  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def timed(fn, repeat: int) -> float:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(out)


def main():
    ms = timed(lambda: subprocess.run([sys.executable, "-c", "import curvemvg"], env=ENV,
                                      check=True), 5)
    print(f"import curvemvg, fresh interpreter: {ms:.0f} ms")
    for argv in COMMANDS:
        args = cli._build_parser().parse_args(list(argv))
        cfg = (cli.load_config(str(ROOT / args.config)) if args.config
               else cli.parse_config({"seed": 0}))
        warm = timed(lambda: cli.run(args.command, cfg, args), 3)
        cold = timed(lambda: subprocess.run(
            [sys.executable, "-m", "curvemvg.scene_cli", *argv, "--out", os.devnull],
            cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=True), 3)
        print(f"{' '.join(argv):62s} warm {warm:6.0f} ms   cold {cold:6.0f} ms")
    for kind in ("static", "line", "conic", "cubic"):
        parts = []
        for s in range(15):
            t0 = time.perf_counter()
            sc = scenes.observe_trajectory(kind, np.random.default_rng(s))
            t1 = time.perf_counter()
            rays = dy.lift_observations(sc.cameras, sc.detections)
            t2 = time.perf_counter()
            dy.classify_motion(rays)
            t3 = time.perf_counter()
            parts.append((t1 - t0, t2 - t1, t3 - t2, t3 - t0))
        med = [1e3 * statistics.median(col) for col in zip(*parts)]
        print(f"trial {kind:6s}: scene {med[0]:.1f} ms, lift {med[1]:.1f} ms, "
              f"classify {med[2]:.1f} ms, total {med[3]:.1f} ms")


if __name__ == "__main__":
    main()
